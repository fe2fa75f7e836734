// Command e2ebench is lciot's end-to-end benchmark. It runs one seeded
// workload against the middleware's public API, checks the outputs with
// correctness oracles, and prints every metric by name with its unit.
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {...}}
//
// holding the end-to-end metrics (untraced run, --trace 0) or the
// per-layer metrics (traced run, --trace 1). See README.md for the
// workloads, the metric definitions and the layer → metric map.
//
// Usage (from the repository root):
//
//	bash e2ebench/run.sh --workload ward-pipeline --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  int
	traced   bool
	nproc    int
	// dir is a scratch directory for data directories and trace output.
	dir string
}

// Phase durations derived from --seconds. Every run spends 60% of its
// measured time in the open loop and 40% in closed loops: one closed
// loop in an untraced run; four of a quarter each in a traced run (see
// measure). Both kinds of run use the same inputs.
func (c config) openDur() time.Duration { return c.frac(0.6) }

// closedTotal is the closed-loop time of a run, which sizes its inputs.
func (c config) closedTotal() time.Duration { return c.frac(0.4) }

// closedDur is the length of one closed loop.
func (c config) closedDur() time.Duration {
	if c.traced {
		return c.frac(0.1)
	}
	return c.frac(0.4)
}

func (c config) frac(f float64) time.Duration {
	return time.Duration(f * float64(c.seconds) * float64(time.Second))
}

// A result is what one workload run measured and checked.
type result struct {
	e2e       map[string]metric
	layers    map[string]metric
	facts     map[string]any
	attempted int
	failed    int
	oracles   oracles
	invalid   []string
	spans     []spanRecord
}

func newResult() *result {
	return &result{e2e: map[string]metric{}, layers: map[string]metric{}, facts: map[string]any{}}
}

var workloads = map[string]func(config) (*result, error){
	"ward-pipeline":   runWard,
	"federated-relay": runRelay,
	"charge-sessions": runCharge,
}

// The metrics named in BENCHMARK.json: every run prints all of its
// list. The other end-to-end metrics — wall-clock throughput and
// latencies, which move with CPU stolen from a shared host, and the
// workload-specific ones — and layer timings that exist on only some
// workloads are printed in the table and the report (see README.md).
var (
	gatedE2E    = []string{"setup_s", "live_heap_mb", "cpu_us_per_msg"}
	gatedLayers = []string{
		"loadgen.lag_p99_us",
		"sbus.publish_p50_us", "sbus.publish_p99_us", "sbus.delivered", "sbus.handoffs",
		"sbus.ring_overflow", "sbus.cross_shard_share",
		"ifc.flowcache_hit_ratio", "ifc.denied",
		"cep.detections", "policy.fired", "policy.conflicts",
		"audit.flush_p50_ms", "audit.flush_p99_ms", "audit.ingest_depth_max", "audit.records_per_msg",
		"store.durable_lag_max", "store.segments",
		"link.tx_bytes_per_msg", "link.rx_bytes_per_msg", "link.queue_highwater",
		"link.residency_denied", "link.reconnects",
		"runtime.allocs_per_msg", "runtime.alloc_bytes_per_msg", "runtime.gc_cpu_fraction",
		"runtime.goroutines_leaked", "trace.overhead_ratio",
	}
)

func main() {
	workload := flag.String("workload", "", "workload name: ward-pipeline, federated-relay or charge-sessions")
	seed := flag.Int64("seed", 1, "input generator seed")
	seconds := flag.Int("seconds", 10, "measured time per run, in seconds")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()
	os.Exit(run(*workload, *seed, *seconds, *trace == 1))
}

func run(workload string, seed int64, seconds int, traced bool) int {
	wl, ok := workloads[workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "e2ebench: unknown workload %q\n", workload)
		return 2
	}
	if seconds < 1 {
		fmt.Fprintln(os.Stderr, "e2ebench: --seconds must be at least 1")
		return 2
	}
	nproc := runtime.NumCPU()
	runtime.GOMAXPROCS(nproc)
	dir, err := os.MkdirTemp(".bench_build", "e2ebench-run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 1
	}
	defer os.RemoveAll(dir)
	cfg := config{workload: workload, seed: seed, seconds: seconds, traced: traced, nproc: nproc, dir: dir}

	res, err := wl(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 1
	}
	res.facts["workload"] = workload
	res.facts["seed"] = seed
	res.facts["seconds"] = seconds
	res.facts["traced"] = traced
	res.facts["nproc"] = nproc
	res.facts["gomaxprocs"] = runtime.GOMAXPROCS(0)
	res.facts["go_version"] = runtime.Version()
	if res.attempted > 0 {
		res.e2e["failed_ratio"] = metric{Value: float64(res.failed) / float64(res.attempted), Unit: "ratio"}
	}
	if traced && len(res.spans) > 0 {
		path := filepath.Join(".bench_build", "e2ebench-traces", workload+".csv")
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err == nil {
			if err := writeSpans(path, res.spans); err == nil {
				res.facts["spans_file"] = path
			}
		}
		res.facts["spans"] = len(res.spans)
	}

	printTable(res, traced)
	full, _ := json.Marshal(map[string]any{
		"report": map[string]any{
			"facts": res.facts, "end_to_end": res.e2e, "per_layer": res.layers,
			"oracle_failures": res.oracles.failed, "invalid": res.invalid,
		},
	})
	fmt.Println(string(full))

	if len(res.invalid) > 0 {
		for _, why := range res.invalid {
			fmt.Fprintln(os.Stderr, "e2ebench: invalid run:", why)
		}
		return 1
	}
	gated, src := gatedE2E, res.e2e
	if traced {
		gated, src = gatedLayers, res.layers
	}
	out := make(map[string]metric, len(gated))
	for _, name := range gated {
		m, ok := src[name]
		if !ok {
			fmt.Fprintf(os.Stderr, "e2ebench: metric %s was not measured\n", name)
			return 1
		}
		out[name] = metric{Value: m.Value, Unit: m.Unit}
	}
	correct := len(res.oracles.failed) == 0
	final, _ := json.Marshal(map[string]any{
		"correct": correct, "attempted": max(res.attempted, 1), "failed": res.failed, "metrics": out,
	})
	fmt.Println(string(final))
	if !correct {
		for _, f := range res.oracles.failed {
			fmt.Fprintln(os.Stderr, "e2ebench: oracle failed:", f)
		}
		return 1
	}
	return 0
}

// printTable prints every metric of the run, one per line, with its unit
// and the sample count behind it.
func printTable(res *result, traced bool) {
	section := func(title string, m map[string]metric) {
		names := make([]string, 0, len(m))
		for k := range m {
			names = append(names, k)
		}
		sort.Strings(names)
		fmt.Printf("# %s\n", title)
		for _, k := range names {
			v := m[k]
			if v.N > 0 {
				fmt.Printf("%-34s %14.4f %-6s (n=%d)\n", k, v.Value, v.Unit, v.N)
			} else {
				fmt.Printf("%-34s %14.4f %s\n", k, v.Value, v.Unit)
			}
		}
	}
	if traced {
		section("per-layer metrics (traced run)", res.layers)
	} else {
		section("end-to-end metrics (untraced run)", res.e2e)
	}
}
