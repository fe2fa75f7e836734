package audit

import (
	"errors"
	"sync"
	"testing"
	"time"

	"lciot/internal/ifc"
)

func testClock() func() time.Time {
	t := time.Unix(1700000000, 0)
	return func() time.Time {
		t = t.Add(time.Millisecond)
		return t
	}
}

func flowRecord(src, dst ifc.EntityID, allowed bool) Record {
	kind := FlowAllowed
	if !allowed {
		kind = FlowDenied
	}
	return Record{
		Kind: kind, Layer: LayerMessaging, Domain: "hospital",
		Src: src, Dst: dst, DataID: "d-" + string(src),
	}
}

func TestLogAppendAssignsSequenceAndChain(t *testing.T) {
	l := NewLog(testClock())
	r1 := l.Append(flowRecord("a", "b", true))
	r2 := l.Append(flowRecord("b", "c", true))

	if r1.Seq != 0 || r2.Seq != 1 {
		t.Fatalf("seqs = %d, %d", r1.Seq, r2.Seq)
	}
	if r2.PrevHash != r1.Hash {
		t.Fatal("records not chained")
	}
	if r1.Time.IsZero() || r2.Time.IsZero() {
		t.Fatal("timestamps not assigned")
	}
	if l.HeadHash() != r2.Hash {
		t.Fatal("head hash wrong")
	}
	if bad, err := l.Verify(); err != nil || bad != -1 {
		t.Fatalf("Verify = %d, %v", bad, err)
	}
}

func TestLogDetectsTampering(t *testing.T) {
	l := NewLog(testClock())
	for i := 0; i < 10; i++ {
		l.Append(flowRecord("a", "b", true))
	}
	// Reach into the log and modify a record (simulated attacker).
	l.mu.Lock()
	l.records.At(4).Note = "doctored"
	l.mu.Unlock()

	bad, err := l.Verify()
	if !errors.Is(err, ErrChainBroken) {
		t.Fatalf("Verify err = %v, want ErrChainBroken", err)
	}
	if bad != 4 {
		t.Fatalf("first bad seq = %d, want 4", bad)
	}
}

func TestLogDetectsRelink(t *testing.T) {
	l := NewLog(testClock())
	for i := 0; i < 5; i++ {
		l.Append(flowRecord("a", "b", true))
	}
	// Replace a record wholesale with a self-consistent one: linkage to the
	// successor must still break.
	l.mu.Lock()
	forged := flowRecord("x", "y", true)
	forged.Seq = 2
	forged.Time = time.Unix(1, 0)
	forged.PrevHash = l.records.At(1).Hash
	forged.Hash = computeHash(&forged)
	*l.records.At(2) = forged
	l.mu.Unlock()

	bad, err := l.Verify()
	if !errors.Is(err, ErrChainBroken) {
		t.Fatalf("Verify err = %v", err)
	}
	if bad != 3 {
		t.Fatalf("first bad seq = %d, want 3 (successor unlinked)", bad)
	}
}

func TestLogGetAndSelect(t *testing.T) {
	l := NewLog(testClock())
	l.Append(flowRecord("a", "b", true))
	l.Append(flowRecord("m", "n", false))
	l.Append(flowRecord("x", "y", true))

	r, err := l.Get(1)
	if err != nil {
		t.Fatal(err)
	}
	if r.Kind != FlowDenied {
		t.Fatalf("Get(1).Kind = %v", r.Kind)
	}
	if _, err := l.Get(99); err == nil {
		t.Fatal("Get beyond head succeeded")
	}
	denied := l.Select(func(r Record) bool { return r.Kind == FlowDenied })
	if len(denied) != 1 || denied[0].Src != "m" {
		t.Fatalf("Select denied = %v", denied)
	}
	if got := len(l.Select(nil)); got != 3 {
		t.Fatalf("Select(nil) = %d records", got)
	}
}

func TestLogPruneAndOffload(t *testing.T) {
	l := NewLog(testClock())
	for i := 0; i < 10; i++ {
		l.Append(flowRecord("a", "b", true))
	}
	segment := l.Prune(6)
	if len(segment) != 6 {
		t.Fatalf("pruned %d records, want 6", len(segment))
	}
	if l.Len() != 4 {
		t.Fatalf("retained %d records, want 4", l.Len())
	}
	// Retained chain still verifies.
	if bad, err := l.Verify(); err != nil || bad != -1 {
		t.Fatalf("retained Verify = %d, %v", bad, err)
	}
	// Pruned range is no longer accessible.
	if _, err := l.Get(3); !errors.Is(err, ErrPruned) {
		t.Fatalf("Get(pruned) = %v, want ErrPruned", err)
	}
	// Offloaded segment verifies and links to the retained log.
	first, err := l.Get(6)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifySegment(segment, &first); err != nil {
		t.Fatalf("segment verification failed: %v", err)
	}
	// A tampered segment is detected.
	segment[2].Note = "doctored"
	if err := VerifySegment(segment, &first); !errors.Is(err, ErrChainBroken) {
		t.Fatalf("tampered segment = %v, want ErrChainBroken", err)
	}
	// Pruning nothing returns nil.
	if seg := l.Prune(2); seg != nil {
		t.Fatalf("redundant prune returned %d records", len(seg))
	}
	// Pruning beyond the head clamps.
	if seg := l.Prune(1000); len(seg) != 4 {
		t.Fatalf("clamped prune returned %d records, want 4", len(seg))
	}
}

func TestVerifySegmentBreaks(t *testing.T) {
	l := NewLog(testClock())
	for i := 0; i < 4; i++ {
		l.Append(flowRecord("a", "b", true))
	}
	seg := l.Prune(4)
	// Break internal linkage.
	seg[2].PrevHash = [32]byte{0xff}
	if err := VerifySegment(seg, nil); !errors.Is(err, ErrChainBroken) {
		t.Fatalf("broken segment = %v", err)
	}
	if err := VerifySegment(nil, nil); err != nil {
		t.Fatalf("empty segment = %v", err)
	}
}

func TestLogSinkForwarding(t *testing.T) {
	domainLog := NewLog(testClock())
	thingLog := NewLog(testClock())
	thingLog.AddSink(func(r Record) {
		r.Domain = "collected"
		domainLog.Append(r)
	})
	thingLog.Append(flowRecord("a", "b", true))
	thingLog.Append(flowRecord("c", "d", false))

	if domainLog.Len() != 2 {
		t.Fatalf("domain log has %d records", domainLog.Len())
	}
	got := domainLog.Select(nil)
	if got[0].Domain != "collected" {
		t.Fatalf("sink record domain = %q", got[0].Domain)
	}
	// The collector re-chains with its own hashes.
	if bad, err := domainLog.Verify(); err != nil || bad != -1 {
		t.Fatalf("domain Verify = %d, %v", bad, err)
	}
}

func TestLogConcurrentAppend(t *testing.T) {
	l := NewLog(nil)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				l.Append(flowRecord("a", "b", true))
			}
		}()
	}
	wg.Wait()
	if l.Len() != 800 {
		t.Fatalf("len = %d, want 800", l.Len())
	}
	if bad, err := l.Verify(); err != nil || bad != -1 {
		t.Fatalf("concurrent Verify = %d, %v", bad, err)
	}
}

func TestEventKindLayerStrings(t *testing.T) {
	kinds := map[EventKind]string{
		FlowAllowed: "flow-allowed", FlowDenied: "flow-denied",
		ContextChange: "context-change", PrivilegeGrant: "privilege-grant",
		Reconfiguration: "reconfiguration", GateCrossing: "gate-crossing",
		BreakGlass: "break-glass", EventKind(42): "EventKind(42)",
	}
	for k, want := range kinds {
		if k.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(k), k.String(), want)
		}
	}
	layers := map[Layer]string{
		LayerKernel: "kernel", LayerMessaging: "messaging",
		LayerPolicy: "policy", Layer(9): "Layer(9)",
	}
	for l, want := range layers {
		if l.String() != want {
			t.Errorf("layer %d String() = %q, want %q", int(l), l.String(), want)
		}
	}
}
