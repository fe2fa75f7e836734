#!/bin/sh
# docs-freshness: fail CI when operator-facing docs still carry claims
# that stopped being true when the parallel dispatch plane landed.
# Each denylist entry is a present-tense claim about the architecture
# that a past PR made false; history sections may *mention* the old
# design ("replaced the single pending list"), but a doc asserting it
# as current fails here. If a new entry false-positives on a history
# mention, rephrase the history — a stale claim shipping to operators
# costs more than a reword.
set -eu
cd "$(dirname "$0")/.."

DOCS="README.md DESIGN.md ROADMAP.md
internal/audit/doc.go internal/cep/doc.go internal/core/doc.go
internal/policy/doc.go internal/sbus/doc.go internal/store/doc.go
internal/sbus/wire.go"

fail=0
check() {
    pattern=$1
    why=$2
    # shellcheck disable=SC2086
    if matches=$(grep -nE "$pattern" $DOCS); then
        echo "docs-freshness: stale claim — $why"
        echo "$matches"
        echo
        fail=1
    fi
}

check 'single-threaded by design' \
    'CEP offers ShardedEngine lanes; only Engine is externally serialized'
check 'still (runs |run )?single-threaded' \
    'detection→policy→audit dispatch is lane-partitioned per bus shard'
check 'mutex-guarded pending list' \
    'audit ingest stages per lane; only chain-head assignment serializes'
check 'serial(ises|izes) every (access|delivery)' \
    'the domain takes no engine-wide lock around CEP or policy dispatch'
check '(B1–B1[0-7]|B1-B1[0-7])([^0-9]|$)' \
    'the microbenchmarks are B1–B8, B11 and B15 (bench_test.go); the other rows moved to e2ebench'
check 'cmd/benchharness|benchharness -[a-z]' \
    'the benchmark harness is deleted: B rows live in bench_test.go, E1–E11 in figures_test.go'
check '(baseline|gates? against|compares? (with|against)) .?BENCH_10' \
    'benchgate anchors allocs/op on the name-keyed BENCH_16.json onward and gates ns/op on paired base runs'
check 'histograms in summary form|latency summaries \(p50/p90/p99\)' \
    '/metrics serves native histograms (le buckets) with companion _quantile gauges'
check '(re)?negotiates?([^a-z]|$)|version negotiation|truncates? (the |their |its )?trailers?|v5↔v4' \
    'links speak one protocol version (v5); nothing negotiates versions or truncates trailers'
check 'serves four surfaces' \
    'the operator surface has five endpoints: /metrics, /healthz, /traces, /lanes, pprof'
check 'no call that stops a link|outlive Domain.Close' \
    'Bus.Close shuts down every link and joins its writer and supervisor loops'
check 'escapes the read buffer|so copy it out|re-intern(ed)? (by|via) .?ifc\.ParseLabel' \
    'LinkFrame.Payload aliases the received batch; labels resolve through the intern table'

if [ "$fail" -eq 0 ]; then
    echo "docs-freshness: OK"
fi
exit "$fail"
