package telemetry

import (
	"encoding/hex"
	"fmt"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"
)

// Flow tracing: a compact trace context — 128-bit trace ID plus a hop
// counter — is stamped on a message at publish (head-based sampling),
// carried in the message metadata and in every link frame's trailer, and
// recorded as timestamped span events at each bus delivery, link
// egress/ingress and relay forward. Only the head node consults the
// sampling rate: once a message carries a trace, every downstream node
// records spans for it, so a federated path yields one trace whose hops
// count up monotonically across nodes. Error paths always record (with a
// minted trace ID when the message carried none), so denials and
// degradations are visible even at low sampling rates.

// A TraceID is a 128-bit flow identifier, rendered as 32 hex digits.
type TraceID struct {
	Hi, Lo uint64
}

// IsZero reports whether the ID is unset.
func (t TraceID) IsZero() bool { return t.Hi == 0 && t.Lo == 0 }

// String renders the ID as 32 lowercase hex digits.
func (t TraceID) String() string {
	if t.IsZero() {
		return ""
	}
	return fmt.Sprintf("%016x%016x", t.Hi, t.Lo)
}

// MarshalJSON renders the ID as its hex string.
func (t TraceID) MarshalJSON() ([]byte, error) {
	return []byte(`"` + t.String() + `"`), nil
}

// ParseTraceID parses the 32-hex-digit form (as found in audit records).
func ParseTraceID(s string) (TraceID, bool) {
	if len(s) != 32 {
		return TraceID{}, false
	}
	b, err := hex.DecodeString(s)
	if err != nil {
		return TraceID{}, false
	}
	var t TraceID
	for i := 0; i < 8; i++ {
		t.Hi = t.Hi<<8 | uint64(b[i])
		t.Lo = t.Lo<<8 | uint64(b[i+8])
	}
	return t, !t.IsZero()
}

// A TraceContext travels with a message: the trace ID and the number of
// bus hops the message has taken so far (0 at the publishing node,
// incremented at each link ingress).
type TraceContext struct {
	ID  TraceID
	Hop uint8
}

// IsZero reports whether the context carries no trace.
func (c TraceContext) IsZero() bool { return c.ID.IsZero() }

// sampleEvery is the head-sampling rate: 0 disables head sampling, N
// samples one publish in N. sampleTick is the global publish counter the
// rate divides.
var (
	sampleEvery atomic.Uint64
	sampleTick  atomic.Uint64
)

// SetTraceSampling sets the head-based sampling rate: every n-th publish
// starts a trace; n <= 0 disables head sampling (error spans still
// record).
func SetTraceSampling(n int) {
	if n < 0 {
		n = 0
	}
	sampleEvery.Store(uint64(n))
}

// TraceSampling reports the current head-sampling rate.
func TraceSampling() int { return int(sampleEvery.Load()) }

// newTraceID mints a random non-zero ID.
func newTraceID() TraceID {
	for {
		t := TraceID{Hi: rand.Uint64(), Lo: rand.Uint64()}
		if !t.IsZero() {
			return t
		}
	}
}

// StartTrace makes the head sampling decision for one publish: one atomic
// load when sampling is disabled. When sampled it returns a fresh context
// at hop 0.
func StartTrace() (TraceContext, bool) {
	n := sampleEvery.Load()
	if n == 0 {
		return TraceContext{}, false
	}
	if sampleTick.Add(1)%n != 0 {
		return TraceContext{}, false
	}
	return TraceContext{ID: newTraceID()}, true
}

// A Span is one timestamped event on a trace: a publish, bus delivery,
// link egress/ingress, relay forward, or an error.
type Span struct {
	Trace TraceID   `json:"trace"`
	Time  time.Time `json:"time"`
	Node  string    `json:"node"`
	Kind  string    `json:"kind"`
	Src   string    `json:"src,omitempty"`
	Dst   string    `json:"dst,omitempty"`
	Hop   uint8     `json:"hop"`
	Err   string    `json:"err,omitempty"`
}

// spanRingCap bounds the in-memory span buffer; the ring overwrites the
// oldest spans, and spansEvicted counts what scrolled away so /traces can
// report truncation honestly.
const spanRingCap = 4096

var (
	spanMu      sync.Mutex
	spanRing    [spanRingCap]Span
	spanNext    int
	spanCount   int
	spanEvicted uint64
)

// RecordSpan appends a span event for ctx and returns the trace ID it
// recorded under. A zero context records nothing (and returns the zero ID)
// — unless errNote is non-empty, in which case a trace ID is minted so
// errors and degradations are always visible (always-sample-on-error);
// callers stamp the returned ID into the matching audit record. The
// no-trace, no-error case costs no atomics at all.
func RecordSpan(ctx TraceContext, node, kind, src, dst, errNote string) TraceID {
	if ctx.ID.IsZero() {
		if errNote == "" {
			return TraceID{}
		}
		ctx.ID = newTraceID()
	}
	s := Span{
		Trace: ctx.ID, Time: time.Now(), Node: node, Kind: kind,
		Src: src, Dst: dst, Hop: ctx.Hop, Err: errNote,
	}
	spanMu.Lock()
	if spanCount == spanRingCap {
		spanEvicted++
	} else {
		spanCount++
	}
	spanRing[spanNext] = s
	spanNext = (spanNext + 1) % spanRingCap
	spanMu.Unlock()
	return ctx.ID
}

// Spans copies the buffered spans, oldest first.
func Spans() []Span {
	spanMu.Lock()
	defer spanMu.Unlock()
	out := make([]Span, 0, spanCount)
	start := spanNext - spanCount
	if start < 0 {
		start += spanRingCap
	}
	for i := 0; i < spanCount; i++ {
		out = append(out, spanRing[(start+i)%spanRingCap])
	}
	return out
}

// SpansEvicted reports how many spans the bounded buffer has overwritten.
func SpansEvicted() uint64 {
	spanMu.Lock()
	defer spanMu.Unlock()
	return spanEvicted
}

// ResetSpans clears the span buffer (tests; lciotd never calls it).
func ResetSpans() {
	spanMu.Lock()
	spanNext, spanCount, spanEvicted = 0, 0, 0
	spanMu.Unlock()
}

// A Trace groups the buffered spans of one trace ID, ordered as recorded.
type Trace struct {
	ID    TraceID `json:"trace"`
	Spans []Span  `json:"spans"`
}

// Traces groups the span buffer by trace ID, ordered by each trace's first
// buffered span (what /traces serves).
func Traces() []Trace {
	spans := Spans()
	idx := make(map[TraceID]int, len(spans))
	out := make([]Trace, 0, 16)
	for _, s := range spans {
		i, ok := idx[s.Trace]
		if !ok {
			i = len(out)
			idx[s.Trace] = i
			out = append(out, Trace{ID: s.Trace})
		}
		out[i].Spans = append(out[i].Spans, s)
	}
	return out
}
