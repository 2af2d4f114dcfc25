#!/bin/sh
# diffode_cli predict must refuse a CSV with a non-finite cell as a load
# error: "load failed: ..." on stderr and a non-zero exit, never an abort
# (exit 134) inside the model. Usage: cli_nonfinite_cell_test.sh <diffode_cli>
set -eu
cli="$1"
dir="$(mktemp -d)"
trap 'rm -rf "$dir"' EXIT
"$cli" generate --dataset=ushcn --out="$dir/train.csv" --count=3 > /dev/null
"$cli" train --data="$dir/train.csv" --channels=5 --task=interpolation \
  --epochs=1 --save="$dir/w.bin" > /dev/null
for cell in nan inf; do
  cat > "$dir/bad.csv" <<CSV
series_id,time,ch0,ch1,ch2,ch3,ch4
0,0,0.5,,,,-1.0
0,1,,$cell,,,
0,2,1.0,,,,
CSV
  status=0
  "$cli" predict --data="$dir/bad.csv" --channels=5 --load="$dir/w.bin" \
    --at=1.0 > "$dir/out" 2> "$dir/err" || status=$?
  [ "$status" -ne 0 ] && [ "$status" -ne 134 ] || {
    echo "$cell: exit status $status"; cat "$dir/err"; exit 1; }
  grep -q '^load failed: ' "$dir/err" || {
    echo "$cell: missing 'load failed: ' on stderr"; cat "$dir/err"; exit 1; }
done
echo "ok"
