package main

import (
	"errors"
	"testing"
	"time"

	"lciot/internal/audit"
	"lciot/internal/ifc"
)

// The generators are pure functions of the seed: the same seed yields the
// same input digest, another seed a different one.
func TestGeneratorsAreSeeded(t *testing.T) {
	open, closed := 500*time.Millisecond, 200*time.Millisecond
	digests := map[string]func(seed int64) string{
		"ward-pipeline":   func(s int64) string { return genWard(s, 2, open, closed).digest() },
		"federated-relay": func(s int64) string { return genRelay(s, 2, open, closed).digest() },
		"charge-sessions": func(s int64) string { return genCharge(s, 2*time.Second, closed).digest() },
	}
	for name, digest := range digests {
		a, b, c := digest(1), digest(1), digest(2)
		if a != b {
			t.Errorf("%s: seed 1 gave digests %s and %s", name, a, b)
		}
		if a == c {
			t.Errorf("%s: seeds 1 and 2 gave the same digest %s", name, a)
		}
	}
}

type brokenChain struct{}

func (brokenChain) Verify() (int64, error) { return 3, errors.New("hash mismatch at 3") }

type goodChain struct{}

func (goodChain) Verify() (int64, error) { return -1, nil }

// Each oracle passes on a clean observation and fails on a synthetic
// violating one.
func TestOraclesCatchViolations(t *testing.T) {
	old := time.Now().Add(-time.Hour)
	tagged := audit.Record{Seq: 7, Time: old, Kind: audit.FlowAllowed, DataID: "s1/7",
		SrcCtx: ifc.MustContext([]ifc.Tag{"meter"}, nil)}
	tombstone := tagged.Redact("erased")
	cases := []struct {
		oracle     string
		clean, bad error
	}{
		{oracleChain, verifyChains(map[string]chain{"log": goodChain{}}),
			verifyChains(map[string]chain{"log": goodChain{}, "store": brokenChain{}})},
		{oracleDenied, deniedNeverDelivered([]int32{0, 1}, []int32{1, 0}),
			deniedNeverDelivered([]int32{0, 1}, []int32{1, 1})},
		{oracleExactlyOnce + " (duplicate)", exactlyOnce([]int32{1, 1}, []int32{1, 1}, func(int) bool { return true }),
			exactlyOnce([]int32{1, 2}, []int32{1, 2}, func(int) bool { return true })},
		{oracleExactlyOnce + " (lost)", exactlyOnce([]int32{1, 0}, []int32{1, 0}, func(i int) bool { return i == 0 }),
			exactlyOnce([]int32{1, 0}, []int32{1, 0}, func(int) bool { return true })},
		{oracleExactlyOnce + " (unaudited)", exactlyOnce([]int32{1}, []int32{1}, func(int) bool { return true }),
			exactlyOnce([]int32{0}, []int32{1}, func(int) bool { return true })},
		{oracleEpisodes, countsMatch("alerts", []int{2, 0}, []int{2, 0}),
			countsMatch("alerts", []int{2, 1}, []int{2, 0})},
		{oracleSweeps, sweepsMatch(4, 4), sweepsMatch(5, 4)},
		{oracleErasure, erasureComplete("durable", []audit.Record{tombstone}, map[string]bool{"s1/7": true}),
			erasureComplete("durable", []audit.Record{tagged}, map[string]bool{"s1/7": true})},
		{oracleRetention, retentionCompliant(audit.RetentionReport([]audit.Record{tombstone}, "meter", time.Now())),
			retentionCompliant(audit.RetentionReport([]audit.Record{tagged}, "meter", time.Now()))},
	}
	for _, c := range cases {
		if c.clean != nil {
			t.Errorf("%s: clean observation failed: %v", c.oracle, c.clean)
		}
		if c.bad == nil {
			t.Errorf("%s: violating observation passed", c.oracle)
		}
	}
}

// The ward reference counts a rule firing per episode: three tachycardic
// readings connect, three settling readings disconnect, and a second
// tachycardia inside an open episode fires nothing (the rule's guard).
func TestWardReference(t *testing.T) {
	hr := []float32{80, 150, 151, 152, 90, 150, 150, 150, 105, 106, 107, 80, 145, 146, 147}
	ops := make([]wardOp, len(hr))
	order := make([]int32, len(hr))
	for i, v := range hr {
		ops[i] = wardOp{hr: v}
		order[i] = int32(i)
	}
	ops[0].research = true // research readings never reach the monitor
	fires, detections, disconnects := wardReference(ops, order)
	if len(fires) != 2 || fires[0] != 3 || fires[1] != 14 {
		t.Errorf("fires = %v, want readings 3 and 14", fires)
	}
	if detections != 4 || disconnects != 1 {
		t.Errorf("detections, disconnects = %d, %d; want 4, 1", detections, disconnects)
	}
}

// Self time is a span's duration minus the part its children cover, with
// children clipped to the parent and overlaps counted once.
func TestSelfTimes(t *testing.T) {
	spans := []spanRecord{
		{name: "parent", start: 0, end: 100},
		{name: "child", start: 20, end: 50, parent: 1},
		{name: "child", start: 40, end: 80, parent: 1},
		{name: "late", start: 90, end: 150, parent: 1},
	}
	got := selfTimes(spans)
	if got["parent"] != 100-60-10 {
		t.Errorf("parent self time = %d, want 30", got["parent"])
	}
	if got["child"] != 30+40 || got["late"] != 60 {
		t.Errorf("child/late self times = %d/%d, want 70/60", got["child"], got["late"])
	}
}

// A tracer records spans only while it is on, which is how a traced run
// measures its untraced closed loops; a nil tracer records nothing.
func TestTracerRecordsOnlyWhileOn(t *testing.T) {
	var none *tracer
	if id := none.begin("nil", 0, 1); id != 0 {
		t.Errorf("nil tracer returned span %d", id)
	}
	tr := newTracer(4)
	if id := tr.begin("off", 0, 1); id != 0 {
		t.Errorf("tracer that is off returned span %d", id)
	}
	tr.setOn(true)
	tr.end(tr.begin("on", 0, 2))
	tr.setOn(false)
	tr.end(tr.begin("off", 0, 3))
	got := tr.recorded()
	if len(got) != 1 || got[0].name != "on" || got[0].req != 2 || got[0].end == 0 {
		t.Errorf("recorded %+v, want the one span begun while on", got)
	}
}

// A percentile is reported only with at least ten samples beyond it.
func TestQuantileNeedsTenBeyond(t *testing.T) {
	s := make(samples, 100)
	for i := range s {
		s[i] = int64(100 - i)
	}
	if v, ok := s.quantile(0.90); !ok || v != 90 {
		t.Errorf("p90 of 1..100 = %d, %v; want 90, true", v, ok)
	}
	if _, ok := s.quantile(0.99); ok {
		t.Error("p99 of 100 samples reported with fewer than ten beyond it")
	}
}

func TestIdxOf(t *testing.T) {
	for in, want := range map[string]int32{"w/12": 12, "s3/0": 0, "c17/905": 905} {
		if got, ok := idxOf(in); !ok || got != want {
			t.Errorf("idxOf(%q) = %d, %v", in, got, ok)
		}
	}
	for _, in := range []string{"w/", "nodigits", "w/1x"} {
		if _, ok := idxOf(in); ok {
			t.Errorf("idxOf(%q) parsed", in)
		}
	}
}
