#!/bin/sh
# diffode_cli predict must refuse a checkpoint holding a non-finite weight as
# a load error: "load failed: ..." on stderr and a non-zero exit, never an
# abort (exit 134) inside the model nor "nan" printed as a prediction.
# Usage: cli_nonfinite_weight_test.sh <diffode_cli>
set -eu
cli="$1"
dir="$(mktemp -d)"
trap 'rm -rf "$dir"' EXIT
"$cli" generate --dataset=ushcn --out="$dir/u.csv" --count=3 > /dev/null
"$cli" train --data="$dir/u.csv" --channels=5 --task=interpolation \
  --epochs=1 --save="$dir/w.bin" > /dev/null
size=$(wc -c < "$dir/w.bin")
# Little-endian IEEE doubles: +inf inside the first tensor, NaN as the very
# last value of the last tensor.
cp "$dir/w.bin" "$dir/inf.bin"
printf '\000\000\000\000\000\000\360\177' |
  dd of="$dir/inf.bin" bs=1 seek=64 conv=notrunc 2> /dev/null
cp "$dir/w.bin" "$dir/nan.bin"
printf '\000\000\000\000\000\000\370\177' |
  dd of="$dir/nan.bin" bs=1 seek=$((size - 8)) conv=notrunc 2> /dev/null
for bad in inf nan; do
  for mode in "" "--batch=8" "--batch=8 --precision=f32"; do
    status=0
    # shellcheck disable=SC2086  # $mode is a list of flags
    "$cli" predict --data="$dir/u.csv" --channels=5 --load="$dir/$bad.bin" \
      --at=10.0 $mode > "$dir/out" 2> "$dir/err" || status=$?
    [ "$status" -ne 0 ] && [ "$status" -ne 134 ] || {
      echo "$bad [$mode]: exit status $status"; cat "$dir/err"; exit 1; }
    grep -q '^load failed: ' "$dir/err" || {
      echo "$bad [$mode]: missing 'load failed: ' on stderr"; cat "$dir/err"
      exit 1; }
  done
done
echo "ok"
