#!/bin/sh
# bench-ab: run the microbenchmarks of bench_test.go for a base and a head
# checkout, interleaved on this host, and write their go test output for
# cmd/benchgate:
#
#	scripts/bench-ab.sh BASE_DIR HEAD_DIR OUT_DIR
#	go run ./cmd/benchgate gate OUT_DIR/base.txt OUT_DIR/head.txt BENCH_*.json
#
# Every benchmark function runs in a process of its own, base and head
# back to back (alternating which goes first), so neither the heap another
# row left behind nor host drift during the job lands on one side only,
# and sample i of a row in base.txt pairs with sample i in head.txt.
set -eu

PAIRS=10        # paired samples per row: enough for the bootstrap interval
BENCHTIME=100ms # per row and sample: the job takes ~5 minutes on 2 cores
# The rows bench_test.go keeps: B1–B8, B11 and B15 with their sweeps.
ROWS='^Benchmark(B[1-8]|B11|B15)[A-Z]'

if [ $# -ne 3 ]; then
    echo "usage: $0 BASE_DIR HEAD_DIR OUT_DIR" >&2
    exit 2
fi
base=$1
head=$2
mkdir -p "$3"
out=$(cd "$3" && pwd)

(cd "$base" && go test -c -o "$out/base.test" .)
(cd "$head" && go test -c -o "$out/head.test" .)
"$out/base.test" -test.list "$ROWS" > "$out/base.list"
"$out/head.test" -test.list "$ROWS" > "$out/head.list"
: > "$out/base.txt"
: > "$out/head.txt"
i=0
while [ "$i" -lt "$PAIRS" ]; do
    if [ $((i % 2)) -eq 0 ]; then order="base head"; else order="head base"; fi
    for fn in $(sort -u "$out/base.list" "$out/head.list"); do
        for side in $order; do
            grep -qx "$fn" "$out/$side.list" || continue
            dir=$base
            [ "$side" = head ] && dir=$head
            (cd "$dir" && "$out/$side.test" -test.run '^$' -test.bench "^$fn\$" \
                -test.benchmem -test.benchtime "$BENCHTIME") >> "$out/$side.txt"
        done
    done
    i=$((i + 1))
done
