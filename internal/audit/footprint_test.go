package audit

import (
	"encoding/hex"
	"runtime"
	"strconv"
	"testing"
	"time"
	"unsafe"

	"lciot/internal/ifc"
)

// goldenRecord is a fully populated record whose chained hash is pinned by
// TestRecordHashGolden.
func goldenRecord() Record {
	r := Record{
		Seq: 7, Time: time.Unix(1700000000, 123456789),
		Kind: FlowAllowed, Layer: LayerMessaging, Domain: "hub",
		Src: "edge:dev-1.two", Dst: "hub:fwd-1.in",
		SrcCtx: ifc.MustContext([]ifc.Tag{"fleet"}, nil),
		DataID: "r/42", Agent: "policy-engine", Note: "egress to peer bus",
		TraceID: "0123456789abcdef0123456789abcdef",
	}
	for i := range r.PrevHash {
		r.PrevHash[i] = 0xAB
	}
	return r
}

// TestRecordHashGolden pins the hash preimage: the record layout in memory
// may change, but a record must hash exactly as before, so chains written
// by earlier builds (WAL segments, exports) still verify. The binary codec
// must carry the record through unchanged too.
func TestRecordHashGolden(t *testing.T) {
	const want = "f8b78fcb45eeaefa406baefc2af82177518a3ea509797072d558e9aa0d6cdbf1"
	r := goldenRecord()
	h := computeHash(&r)
	if got := hex.EncodeToString(h[:]); got != want {
		t.Fatalf("golden record hashes to %s, want %s", got, want)
	}
	r.Hash = h
	back, err := DecodeRecordBinary(AppendRecordBinary(nil, &r))
	if err != nil {
		t.Fatal(err)
	}
	if HashRecord(&back) != h || back.Hash != h || back.Kind != r.Kind || back.Layer != r.Layer {
		t.Fatalf("binary round trip changed the record: %+v", back)
	}
}

// TestComputeHashAllocs: hashing a record reuses a pooled preimage buffer
// and keeps the digest on the stack.
func TestComputeHashAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under -race")
	}
	r := goldenRecord()
	if allocs := testing.AllocsPerRun(1000, func() { r.Hash = computeHash(&r) }); allocs != 0 {
		t.Fatalf("computeHash: %v allocs per record, want 0", allocs)
	}
}

// TestRecordFootprint bounds the in-memory record: the one-byte Kind and
// Layer share a word with Redacted.
func TestRecordFootprint(t *testing.T) {
	if size := unsafe.Sizeof(Record{}); size > 280 {
		t.Fatalf("Record is %d bytes, limit 280", size)
	}
}

// asyncStream appends n records through AppendAsync and flushes, minting a
// fresh DataID per record as a live domain does. It returns the heap kept
// and the bytes allocated per record.
func asyncStream(l *Log, n int) (kept, allocated float64) {
	ctx := ifc.MustContext([]ifc.Tag{"fleet"}, nil)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		l.AppendAsync(Record{
			Kind: FlowAllowed, Layer: LayerMessaging, Domain: "hub",
			Src: "edge:dev-1.two", Dst: "hub:fwd-1.in", SrcCtx: ctx,
			DataID: "r/" + strconv.Itoa(i), Agent: "policy-engine", Note: "egress to peer bus",
		})
	}
	l.Flush()
	runtime.GC()
	runtime.ReadMemStats(&after)
	kept = (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / float64(n)
	allocated = float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
	return kept, allocated
}

// TestLogHeapPerRecord bounds the heap the chain keeps per committed
// record on a 100k-record async stream: the record itself, its DataID and
// a share of one partly filled chunk, with no regrowth slack.
func TestLogHeapPerRecord(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under -race")
	}
	const n, limit = 100_000, 320
	l := NewLog(nil)
	kept, _ := asyncStream(l, n)
	if got := l.Len(); got != n {
		t.Fatalf("log holds %d records, want %d", got, n)
	}
	t.Logf("chain heap: %.0f B per record", kept)
	if kept > limit {
		t.Fatalf("chain heap %.0f B per record, limit %d", kept, limit)
	}
}

// TestLogFootprintAllocatedPerRecord bounds the bytes allocated per record
// on the same stream: a commit never copies the chain, and staging buffers
// are reused instead of regrown after every drain.
func TestLogFootprintAllocatedPerRecord(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under -race")
	}
	const n, limit = 100_000, 512
	_, allocated := asyncStream(NewLog(nil), n)
	t.Logf("allocated: %.0f B per record", allocated)
	if allocated > limit {
		t.Fatalf("allocated %.0f B per record, limit %d", allocated, limit)
	}
}

// TestAppendAsyncFlushAllocs: in steady state, staging 64 records and
// flushing them allocates at most the hasher goroutine and a share of the
// next chunk.
func TestAppendAsyncFlushAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under -race")
	}
	l := NewLog(nil)
	r := goldenRecord()
	round := func() {
		for i := 0; i < 64; i++ {
			l.AppendAsync(r)
		}
		l.Flush()
	}
	round()
	if allocs := testing.AllocsPerRun(100, round); allocs > 2 {
		t.Fatalf("64 AppendAsync + Flush: %v allocs, limit 2", allocs)
	}
}
