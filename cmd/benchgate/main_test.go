package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeRun writes a go test -bench output with pairs samples of two rows,
// scaling row B's ns/op by slow and adding extra allocs/op to row A.
func writeRun(t *testing.T, dir, name string, pairs int, slow float64, extra int) string {
	t.Helper()
	var b strings.Builder
	b.WriteString("goos: linux\ngoarch: amd64\npkg: lciot\ncpu: test cpu\n")
	for i := 0; i < pairs; i++ {
		jitter := 1 + 0.02*float64(i%3-1)
		fmt.Fprintf(&b, "BenchmarkA/n=1-2   \t 1000\t %.1f ns/op\t 64 B/op\t %d allocs/op\n", 100*jitter, 2+extra)
		fmt.Fprintf(&b, "BenchmarkB-2       \t 1000\t %.1f ns/op\t 0 B/op\t 0 allocs/op\n", 1000*jitter*slow)
	}
	b.WriteString("PASS\nok  \tlciot\t1.0s\n")
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestGate(t *testing.T) {
	dir := t.TempDir()
	base := writeRun(t, dir, "base.txt", 10, 1, 0)
	var anchorOut bytes.Buffer
	if err := writeAnchor(&anchorOut, base); err != nil {
		t.Fatal(err)
	}
	anchor := filepath.Join(dir, "BENCH_16.json")
	if err := os.WriteFile(anchor, anchorOut.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	history := filepath.Join(dir, "BENCH_1.json")
	if err := os.WriteFile(history, []byte(`{"rows": [{"table": "B1", "ns_per_op": 1}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name        string
		slow        float64
		extra       int
		wantFail    bool
		wantInError string
	}{
		{"same code", 1, 0, false, ""},
		{"5% slower", 1.05, 0, false, ""},
		{"20% slower", 1.20, 0, true, "BenchmarkB: ns/op slower than base by 20.0%"},
		{"one more alloc", 1, 1, true, "BenchmarkA/n=1: 3 allocs/op, anchored best 2"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			head := writeRun(t, dir, "head.txt", 10, tc.slow, tc.extra)
			var out bytes.Buffer
			failed, err := gate(&out, base, head, []string{history, anchor})
			if err != nil {
				t.Fatal(err)
			}
			if failed != tc.wantFail || !strings.Contains(out.String(), tc.wantInError) {
				t.Fatalf("failed = %v, want %v; report:\n%s", failed, tc.wantFail, out.String())
			}
			if !strings.Contains(out.String(), "2 rows, 2 gated on ns/op, 2 on allocs/op") {
				t.Fatalf("report does not gate both rows both ways:\n%s", out.String())
			}
			// The bootstrap is seeded: the same inputs give the same report.
			var again bytes.Buffer
			if _, err := gate(&again, base, head, []string{history, anchor}); err != nil || again.String() != out.String() {
				t.Fatalf("second gate run differs:\n%s\nvs\n%s", again.String(), out.String())
			}
		})
	}
}
