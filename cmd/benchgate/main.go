// Command benchgate gates the microbenchmarks in bench_test.go, reading
// standard `go test -run '^$' -bench . -benchmem` output.
//
// Usage:
//
//	benchgate gate BASE.txt HEAD.txt ANCHOR.json...
//	benchgate anchor RUN.txt > BENCH_<n>.json
//
// gate applies two checks and exits 1 naming every row that fails either:
//
//   - allocs/op: each HEAD row's fewest allocs/op over its samples must not
//     exceed the best (lowest) count any anchor file records for that row.
//     Allocations do not depend on the host, so there is no tolerance.
//     Anchors keep every row they ever recorded, so a gain one PR anchors
//     cannot drift back over later PRs.
//   - ns/op: time is gated only against BASE, never against a committed
//     figure from another host. BASE and HEAD are runs of the parent and
//     the change, interleaved on one host (scripts/bench-ab.sh), so the
//     i-th sample of a row in BASE pairs with the i-th in HEAD. A row fails
//     when the whole bootstrap interval of its median paired head/base
//     ratio lies above maxSlowdown.
//
// anchor writes every row of RUN as a name-keyed anchor file: its fewest
// ns/op and its most allocs/op. go test prints allocs/op as a whole number,
// so a row whose allocations depend on goroutine timing or GC (a cross-bus
// hop, a 64 KiB AES-GCM seal) flips between two counts from sample to
// sample; anchoring the higher one and failing only when every HEAD sample
// exceeds it keeps such rows from flapping, while a row whose samples all
// agree still fails on one extra allocation. Files that hold no name-keyed
// rows (the BENCH_1..10 history) are skipped by gate.
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// maxSlowdown is the paired head/base time ratio a row's whole 95%
// interval must exceed to fail. On a 2-core host single samples of the
// noisiest rows swing by ±30%; over five paired runs the lower end of an
// unchanged row's interval reached at most 1.06, while a 20% slowdown
// planted in audit hashing put BenchmarkB5AuditVerify's lower end at
// 1.19–1.29 in three runs of four (1.04 in the fourth). 1.12 sits between.
const maxSlowdown = 1.12

const (
	// minPairs is the fewest paired samples a row needs for its ns/op to
	// be gated; fewer cannot bound an interval.
	minPairs = 5
	// resamples and seed fix the bootstrap, so one input gives one verdict.
	resamples = 10000
	seed      = 1
)

// A sample is one benchmark result line.
type sample struct {
	ns, allocs float64
}

// A run is the samples of every row in one output file, in file order,
// plus the host lines go test prints.
type run struct {
	rows  map[string][]sample
	names []string // first-seen order
	host  map[string]string
}

// An anchorFile is the committed, name-keyed record of one run.
type anchorFile struct {
	Host       map[string]string `json:"host"`
	Benchmarks map[string]anchor `json:"benchmarks"`
}

// An anchor is one row's fewest ns/op (host-bound, for the trajectory) and
// most allocs/op (gated) over a run's samples.
type anchor struct {
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
}

func main() {
	args := os.Args[1:]
	var err error
	switch {
	case len(args) >= 3 && args[0] == "gate":
		var failed bool
		failed, err = gate(os.Stdout, args[1], args[2], args[3:])
		if err == nil && failed {
			os.Exit(1)
		}
	case len(args) == 2 && args[0] == "anchor":
		err = writeAnchor(os.Stdout, args[1])
	default:
		fmt.Fprintln(os.Stderr, "usage: benchgate gate BASE.txt HEAD.txt ANCHOR.json...\n       benchgate anchor RUN.txt")
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(2)
	}
}

// benchLine matches a result line; the -N GOMAXPROCS suffix is dropped so
// rows from hosts with different core counts share a name.
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+(.*)$`)

func parseRun(path string) (*run, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	r := &run{rows: map[string][]sample{}, host: map[string]string{}}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		for _, key := range []string{"goos", "goarch", "cpu"} {
			if v, ok := strings.CutPrefix(line, key+": "); ok {
				r.host[key] = v
			}
		}
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		s := sample{ns: -1, allocs: -1}
		fields := strings.Fields(m[2])
		for i := 0; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("%s: %q: %v", path, line, err)
			}
			switch fields[i+1] {
			case "ns/op":
				s.ns = v
			case "allocs/op":
				s.allocs = v
			}
		}
		if s.ns < 0 {
			continue
		}
		if _, seen := r.rows[m[1]]; !seen {
			r.names = append(r.names, m[1])
		}
		r.rows[m[1]] = append(r.rows[m[1]], s)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(r.names) == 0 {
		return nil, fmt.Errorf("%s: no benchmark results", path)
	}
	return r, nil
}

// extreme returns the smallest (or, with most, the largest) value of field
// over samples that report it, or -1.
func extreme(ss []sample, field func(sample) float64, most bool) float64 {
	best := -1.0
	for _, s := range ss {
		if v := field(s); v >= 0 && (best < 0 || (v < best) != most) {
			best = v
		}
	}
	return best
}

func writeAnchor(w io.Writer, path string) error {
	r, err := parseRun(path)
	if err != nil {
		return err
	}
	out := anchorFile{Host: r.host, Benchmarks: map[string]anchor{}}
	for name, ss := range r.rows {
		out.Benchmarks[name] = anchor{
			NsPerOp:     extreme(ss, func(s sample) float64 { return s.ns }, false),
			AllocsPerOp: extreme(ss, func(s sample) float64 { return s.allocs }, true),
		}
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	_, err = w.Write(append(data, '\n'))
	return err
}

// bestAllocs reads the anchors and returns each row's lowest anchored
// allocs/op.
func bestAllocs(w io.Writer, paths []string) (map[string]float64, error) {
	best := map[string]float64{}
	for _, path := range paths {
		raw, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var f anchorFile
		if err := json.Unmarshal(raw, &f); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if len(f.Benchmarks) == 0 {
			fmt.Fprintf(w, "benchgate: %s has no name-keyed rows (history), skipped\n", path)
			continue
		}
		for name, a := range f.Benchmarks {
			if a.AllocsPerOp < 0 {
				continue
			}
			if b, ok := best[name]; !ok || a.AllocsPerOp < b {
				best[name] = a.AllocsPerOp
			}
		}
	}
	return best, nil
}

// interval returns the median of the paired log-ratios and its seeded
// percentile-bootstrap 95% interval, all as ratios. The median keeps one
// sample disturbed by the host (a GC cycle, a preempted thread) from
// moving a row's verdict.
func interval(base, head []sample) (mid, lo, hi float64) {
	logs := make([]float64, len(base))
	for i := range base {
		logs[i] = math.Log(head[i].ns / base[i].ns)
	}
	rng := rand.New(rand.NewSource(seed))
	medians := make([]float64, resamples)
	draw := make([]float64, len(logs))
	for k := range medians {
		for i := range draw {
			draw[i] = logs[rng.Intn(len(logs))]
		}
		medians[k] = median(draw)
	}
	sort.Float64s(medians)
	return math.Exp(median(logs)), math.Exp(medians[resamples*25/1000]), math.Exp(medians[resamples*975/1000-1])
}

// median sorts xs in place and returns its median.
func median(xs []float64) float64 {
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// gate prints one line per HEAD row and reports whether any row failed.
func gate(w io.Writer, basePath, headPath string, anchorPaths []string) (bool, error) {
	base, err := parseRun(basePath)
	if err != nil {
		return false, err
	}
	head, err := parseRun(headPath)
	if err != nil {
		return false, err
	}
	anchors, err := bestAllocs(w, anchorPaths)
	if err != nil {
		return false, err
	}
	var failures []string
	nsGated, allocsGated := 0, 0
	for _, name := range head.names {
		hs := head.rows[name]
		verdict := "ok"
		timing := "ns/op not gated (no paired base samples)"
		if n := min(len(base.rows[name]), len(hs)); n >= minPairs {
			mid, lo, hi := interval(base.rows[name][:n], hs[:n])
			timing = fmt.Sprintf("head/base %.3f [%.3f, %.3f] over %d pairs", mid, lo, hi, n)
			nsGated++
			if lo > maxSlowdown {
				verdict = "FAIL"
				failures = append(failures, fmt.Sprintf("%s: ns/op slower than base by %.1f%% (95%% interval %+.1f%%..%+.1f%%, limit %+.0f%%)",
					name, 100*(mid-1), 100*(lo-1), 100*(hi-1), 100*(maxSlowdown-1)))
			}
		}
		allocs := extreme(hs, func(s sample) float64 { return s.allocs }, false)
		alloc := "allocs/op not gated (no anchor)"
		if want, ok := anchors[name]; ok && allocs >= 0 {
			alloc = fmt.Sprintf("allocs/op %g (anchor %g)", allocs, want)
			allocsGated++
			if allocs > want {
				verdict = "FAIL"
				failures = append(failures, fmt.Sprintf("%s: %g allocs/op, anchored best %g", name, allocs, want))
			}
		}
		fmt.Fprintf(w, "%-4s %-60s %s; %s\n", verdict, name, timing, alloc)
	}
	fmt.Fprintf(w, "benchgate: %d rows, %d gated on ns/op, %d on allocs/op\n", len(head.names), nsGated, allocsGated)
	if len(failures) > 0 {
		fmt.Fprintf(w, "benchgate: %d regression(s):\n", len(failures))
		for _, f := range failures {
			fmt.Fprintln(w, "  "+f)
		}
		return true, nil
	}
	fmt.Fprintln(w, "benchgate: no regressions")
	return false, nil
}
