package audit

import (
	"runtime"
	"strconv"
	"testing"

	"lciot/internal/ifc"
)

// footprintRecords builds n allowed flows with fresh DataIDs over a fixed
// ring of processes, the shape of a busy domain's audit stream.
func footprintRecords(n int) []Record {
	ctx := ifc.MustContext([]ifc.Tag{"medical"}, nil)
	recs := make([]Record, n)
	for i := range recs {
		recs[i] = Record{
			Kind: FlowAllowed, Src: entityID("proc", i%8), Dst: entityID("proc", (i+1)%8),
			SrcCtx: ctx, DstCtx: ctx,
			DataID: "ward/hr/" + strconv.Itoa(i), Agent: "hospital",
		}
	}
	return recs
}

// TestGraphAppendKnownRecordAllocatesNothing: a record whose nodes and
// edges all exist — every repeat message on a busy channel — must not
// allocate.
func TestGraphAppendKnownRecordAllocatesNothing(t *testing.T) {
	recs := footprintRecords(1)
	g := BuildGraph(recs)
	_, before := g.Len()
	if allocs := testing.AllocsPerRun(100, func() { g.Append(recs) }); allocs != 0 {
		t.Fatalf("re-appending a known record: %v allocs, want 0", allocs)
	}
	if _, after := g.Len(); after != before {
		t.Fatalf("re-appending a known record changed the edge count: %d -> %d", before, after)
	}
}

// TestGraphHeapPerRecord bounds the graph's live heap on a stream of 100k
// records with fresh DataIDs, appended one at a time as the domain's log
// sink does. The records (and their ID strings) exist before the baseline
// reading, so only the graph's own storage is counted.
func TestGraphHeapPerRecord(t *testing.T) {
	const n, limit = 100_000, 200
	recs := footprintRecords(n)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	g := &Graph{}
	for i := range recs {
		g.Append(recs[i : i+1])
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(recs)
	if nodes, _ := g.Len(); nodes != n+9 {
		t.Fatalf("graph holds %d nodes, want %d", nodes, n+9)
	}
	perRecord := (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / n
	t.Logf("graph heap: %.0f B per record", perRecord)
	if perRecord > limit {
		t.Fatalf("graph heap %.0f B per record, limit %d", perRecord, limit)
	}
}

// BenchmarkGraphAppend measures one record appended through the log-sink
// path (run with -benchmem): "fresh" mints a new DataID per record (the
// ID string is allocated inside the loop and counted), "repeat" re-appends
// a record whose nodes and edges all exist.
func BenchmarkGraphAppend(b *testing.B) {
	b.Run("fresh", func(b *testing.B) {
		recs := footprintRecords(1)
		g := &Graph{}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			recs[0].DataID = "ward/hr/" + strconv.Itoa(i)
			g.Append(recs)
		}
	})
	b.Run("repeat", func(b *testing.B) {
		recs := footprintRecords(1)
		g := BuildGraph(recs)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			g.Append(recs)
		}
	})
}
