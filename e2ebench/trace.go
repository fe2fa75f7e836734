package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"sync/atomic"
)

// A span is one timed call from the benchmark into a layer of the
// program: name, start and end (ns since the benchmark's clock base), the
// span that caused it (0 = none) and the message it served (-1 = none).
type span struct {
	name   string
	start  int64
	parent int32
	req    int32
	// end is stored last and atomically: a reader that sees it non-zero
	// also sees the fields written before it, so finished spans can be read
	// while handlers are still recording.
	end atomic.Int64
}

// A tracer keeps spans in a preallocated in-memory buffer; recording is
// one atomic add plus the slot writes. Spans beyond the buffer are counted
// and dropped. A nil tracer records nothing, which is how untraced runs
// keep the recording sites free; a tracer that is off records nothing
// either, which is how a traced run measures its untraced phases.
type tracer struct {
	spans   []span
	n       atomic.Int64
	dropped atomic.Int64
	on      atomic.Bool
}

func newTracer(capacity int) *tracer { return &tracer{spans: make([]span, capacity)} }

// setOn starts or stops recording.
func (t *tracer) setOn(on bool) {
	if t != nil {
		t.on.Store(on)
	}
}

// begin reserves a span and stamps its start, returning its id (0 when
// the tracer is nil, off or full).
func (t *tracer) begin(name string, parent int32, req int32) int32 {
	if t == nil || !t.on.Load() {
		return 0
	}
	i := t.n.Add(1) - 1
	if i >= int64(len(t.spans)) {
		t.dropped.Add(1)
		return 0
	}
	sp := &t.spans[i]
	sp.name, sp.start, sp.parent, sp.req = name, nowNs(), parent, req
	return int32(i + 1)
}

// end stamps the end of span id.
func (t *tracer) end(id int32) {
	if t == nil || id == 0 {
		return
	}
	t.spans[id-1].end.Store(nowNs())
}

// A finished span, copied out of the tracer.
type spanRecord struct {
	name       string
	start, end int64
	parent     int32
	req        int32
}

// recorded returns copies of the spans finished so far, with ids preserved
// (recorded()[i] is span i+1; an unfinished span has end 0).
func (t *tracer) recorded() []spanRecord {
	n := min(t.n.Load(), int64(len(t.spans)))
	out := make([]spanRecord, n)
	for i := range out {
		sp := &t.spans[i]
		if end := sp.end.Load(); end != 0 {
			out[i] = spanRecord{name: sp.name, start: sp.start, end: end, parent: sp.parent, req: sp.req}
		}
	}
	return out
}

// selfTimes returns, per span name, the summed self time in ns: each
// span's duration minus the part of its interval that its children's
// intervals cover (children may run on other goroutines and outlive the
// parent, so only the overlap counts).
func selfTimes(spans []spanRecord) map[string]int64 {
	children := make(map[int32][][2]int64)
	for _, s := range spans {
		if s.parent != 0 && s.end > 0 {
			children[s.parent] = append(children[s.parent], [2]int64{s.start, s.end})
		}
	}
	out := make(map[string]int64)
	for i, s := range spans {
		if s.end == 0 {
			continue
		}
		out[s.name] += s.end - s.start - covered(s.start, s.end, children[int32(i+1)])
	}
	return out
}

// covered returns how much of [lo, hi) the union of the intervals covers.
func covered(lo, hi int64, ivs [][2]int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	clipped := make([][2]int64, 0, len(ivs))
	for _, iv := range ivs {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if a < b {
			clipped = append(clipped, [2]int64{a, b})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i][0] < clipped[j][0] })
	var total, curA, curB int64
	open := false
	for _, iv := range clipped {
		if open && iv[0] <= curB {
			curB = max(curB, iv[1])
			continue
		}
		if open {
			total += curB - curA
		}
		curA, curB, open = iv[0], iv[1], true
	}
	if open {
		total += curB - curA
	}
	return total
}

// writeSpans writes the spans as CSV (id,name,start_ns,end_ns,parent,req).
func writeSpans(path string, spans []spanRecord) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id,name,start_ns,end_ns,parent,req")
	for i, s := range spans {
		if s.end != 0 {
			fmt.Fprintf(w, "%d,%s,%d,%d,%d,%d\n", i+1, s.name, s.start, s.end, s.parent, s.req)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
