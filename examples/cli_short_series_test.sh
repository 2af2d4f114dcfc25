#!/bin/sh
# diffode_cli predict must report, on stderr, every series it cannot serve
# (fewer than 2 observations) on both the per-sequence and the batched path,
# and still serve the rest. Usage: cli_short_series_test.sh <diffode_cli>
set -eu
cli="$1"
dir="$(mktemp -d)"
trap 'rm -rf "$dir"' EXIT
"$cli" generate --dataset=ushcn --out="$dir/train.csv" --count=3 > /dev/null
"$cli" train --data="$dir/train.csv" --channels=5 --task=interpolation \
  --epochs=1 --save="$dir/w.bin" > /dev/null
cat > "$dir/short.csv" <<'CSV'
series_id,time,ch0,ch1,ch2,ch3,ch4
0,0,0.5,,,,-1.0
0,1,,0.25,,,
1,2,,,,,0.5
2,0,1.0,,,,
2,3,,,0.75,,
CSV
expected="series 1: skipped: needs >= 2 observations, has 1"
for batch in 1 8; do
  "$cli" predict --data="$dir/short.csv" --channels=5 --load="$dir/w.bin" \
    --at=1.0 --batch="$batch" > "$dir/out" 2> "$dir/err"
  grep -qxF "$expected" "$dir/err" || {
    echo "--batch=$batch: missing '$expected' on stderr"; cat "$dir/err"; exit 1; }
  [ "$(grep -c '^series [02]:' "$dir/out")" -eq 2 ] || {
    echo "--batch=$batch: series 0 and 2 not served"; cat "$dir/out"; exit 1; }
done
echo "ok"
