package audit

import (
	"errors"
	"sync"
	"testing"
)

// TestAppendAsyncChainsInOrder checks that batched background hashing
// produces exactly the chain a synchronous log would: dense sequence
// numbers, correct linkage, Verify clean.
func TestAppendAsyncChainsInOrder(t *testing.T) {
	l := NewLog(testClock())
	for i := 0; i < 100; i++ {
		l.AppendAsync(flowRecord("a", "b", i%3 != 0))
	}
	l.Flush()
	if l.Len() != 100 {
		t.Fatalf("len = %d, want 100", l.Len())
	}
	if bad, err := l.Verify(); err != nil || bad != -1 {
		t.Fatalf("Verify = %d, %v", bad, err)
	}
	for i := 0; i < 100; i++ {
		r, err := l.Get(uint64(i))
		if err != nil {
			t.Fatal(err)
		}
		if r.Seq != uint64(i) || r.Time.IsZero() {
			t.Fatalf("record %d: seq=%d time=%v", i, r.Seq, r.Time)
		}
	}
}

// TestAppendAsyncInterleavesWithSyncAppend mixes both ingest paths: the
// synchronous path flushes first, so its record lands after everything
// already enqueued, and the combined chain verifies.
func TestAppendAsyncInterleavesWithSyncAppend(t *testing.T) {
	l := NewLog(testClock())
	for i := 0; i < 10; i++ {
		l.AppendAsync(flowRecord("async", "x", true))
	}
	r := l.Append(flowRecord("sync", "y", true))
	if r.Seq != 10 {
		t.Fatalf("sync append seq = %d, want 10 (after the enqueued batch)", r.Seq)
	}
	if r.Hash == ([32]byte{}) {
		t.Fatal("sync append returned an unhashed record")
	}
	if bad, err := l.Verify(); err != nil || bad != -1 {
		t.Fatalf("Verify = %d, %v", bad, err)
	}
}

// TestAsyncTamperDetected: the tamper-evidence guarantee must be identical
// on the batched path — doctoring any record breaks Verify.
func TestAsyncTamperDetected(t *testing.T) {
	l := NewLog(testClock())
	for i := 0; i < 50; i++ {
		l.AppendAsync(flowRecord("a", "b", true))
	}
	l.Flush()
	l.mu.Lock()
	l.records.At(17).Note = "doctored"
	l.mu.Unlock()
	bad, err := l.Verify()
	if !errors.Is(err, ErrChainBroken) || bad != 17 {
		t.Fatalf("Verify after tamper = %d, %v; want seq 17, ErrChainBroken", bad, err)
	}
}

// TestAppendAsyncConcurrent drives the ring from many goroutines (well
// past the backpressure bound) and checks the committed chain.
func TestAppendAsyncConcurrent(t *testing.T) {
	l := NewLog(nil)
	var wg sync.WaitGroup
	const writers, each = 8, 2000
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < each; j++ {
				l.AppendAsync(flowRecord("a", "b", true))
			}
		}()
	}
	wg.Wait()
	if got := l.Len(); got != writers*each {
		t.Fatalf("len = %d, want %d", got, writers*each)
	}
	if bad, err := l.Verify(); err != nil || bad != -1 {
		t.Fatalf("Verify = %d, %v", bad, err)
	}
}

// TestAsyncSinkForwarding: sinks fire for batched records too (on the
// hasher goroutine), preserving hierarchical collection.
func TestAsyncSinkForwarding(t *testing.T) {
	collector := NewLog(testClock())
	thing := NewLog(testClock())
	thing.AddSink(func(r Record) {
		r.Domain = "collected"
		collector.Append(r)
	})
	for i := 0; i < 20; i++ {
		thing.AppendAsync(flowRecord("a", "b", true))
	}
	thing.Flush()
	if collector.Len() != 20 {
		t.Fatalf("collector len = %d, want 20", collector.Len())
	}
	if bad, err := collector.Verify(); err != nil || bad != -1 {
		t.Fatalf("collector Verify = %d, %v", bad, err)
	}
}

// TestZeroValueLog: the documented zero-value readiness, on both paths.
func TestZeroValueLog(t *testing.T) {
	var l Log
	l.AppendAsync(flowRecord("a", "b", true))
	r := l.Append(flowRecord("b", "c", true))
	if r.Seq != 1 || r.Time.IsZero() {
		t.Fatalf("zero-value log append = %+v", r)
	}
	if bad, err := l.Verify(); err != nil || bad != -1 {
		t.Fatalf("Verify = %d, %v", bad, err)
	}
}
