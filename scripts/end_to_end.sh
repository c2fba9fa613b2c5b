#!/bin/sh
# Minimal end-to-end demo: dataset -> training -> evaluation -> inference
# (and one refused image size) -> cost comparison -> fast-path oracle. Uses a small model so the whole
# flow finishes in well under a minute. Pass a work directory as $1
# (default: ./demo-run).
# Runs from a plain checkout: the package is taken from ../src, as the
# pytest configuration does, so no install is needed.
set -eu

WORK="${1:-demo-run}"
mkdir -p "$WORK"

SRC="$(cd "$(dirname "$0")/../src" && pwd)"
segrefine() {
    PYTHONPATH="$SRC${PYTHONPATH:+:$PYTHONPATH}" python3 -m segrefine.cli "$@"
}

cat > "$WORK/small.cfg" <<'EOF'
channels=8,16,32,64
decoder_channels=32
embed_dim=16
iters=200
batch=4
eval_interval=50
EOF

segrefine gen --out "$WORK/train" --count 64 --classes 5 --seed 0
segrefine gen --out "$WORK/val" --count 16 --classes 5 --seed 1

segrefine train --config "$WORK/small.cfg" --data "$WORK/train" \
    --val "$WORK/val" --out "$WORK/run" --seed 0

segrefine eval --checkpoint "$WORK/run/checkpoint.srcp" \
    --data "$WORK/val" --out "$WORK/run"

segrefine infer --checkpoint "$WORK/run/checkpoint.srcp" \
    --out "$WORK/run" "$WORK/val/images/0000.frmt" "$WORK/run/mask.pgm"

# an image size the model cannot take (ceil(48/4) = 12 stage-1 rows do not
# halve three times) is refused with exit code 3, not a traceback
segrefine gen --out "$WORK/small" --count 1 --classes 5 --size 48x48 --seed 2
code=0
segrefine infer --checkpoint "$WORK/run/checkpoint.srcp" --out "$WORK/run" \
    "$WORK/small/images/0000.frmt" "$WORK/run/refused.pgm" 2> "$WORK/refused.err" || code=$?
if [ "$code" -ne 3 ] || grep -q Traceback "$WORK/refused.err"; then
    echo "infer of a 48x48 image exited $code, expected 3:" >&2
    cat "$WORK/refused.err" >&2
    exit 1
fi

segrefine bench --config "$WORK/small.cfg" --out "$WORK/run" --size 256x256

# every convolution fast path the run trained and inferred with, against a
# direct reference
segrefine oracle --out "$WORK/run"

echo "demo artifacts in $WORK/run"
