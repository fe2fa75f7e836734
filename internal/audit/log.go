package audit

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"lciot/internal/fault"
	"lciot/internal/telemetry"
)

// fpSinkStall is the chaos seam in the async ingest pipeline: an armed
// delay stalls the hasher goroutine once per drained batch — publishers
// on the AppendAsync hot path then back up against the bounded staging
// lanes, which is exactly the backpressure behaviour soak drills verify.
var fpSinkStall = fault.New("audit.sink.stall")

// Errors reported by Log.
var (
	ErrChainBroken = errors.New("audit: hash chain broken")
	ErrPruned      = errors.New("audit: range pruned")
)

// A Log is a tamper-evident, append-only audit log. Every record's hash
// covers its content and its predecessor's hash; Verify detects any
// retrospective modification. Logs may be pruned from the front once a
// segment has been offloaded (Challenge 6: "can logs be offloaded to others
// for distributed audit?"), retaining the chain head so continuity remains
// checkable.
//
// Ingest has two paths. Append hashes and commits synchronously and
// returns the completed record. AppendAsync — the enforcement hot path —
// stages the record into a bounded per-lane buffer and returns
// immediately; a background hasher goroutine collects the staged lanes,
// merges them by arrival ticket, and commits the batch, assigning
// sequence numbers and chaining hashes. Flush blocks until every staged
// record is committed. Every read-side method (Len, Get, Select, Verify,
// HeadHash, Prune) flushes first, so observers always see a complete,
// verifiable chain; the tamper-evidence guarantees are identical on both
// paths.
//
// Staging is sharded: SetStagingLanes(n) gives the log n independent
// staging buffers, each behind its own lock, so concurrent producers
// (e.g. the bus's per-shard dispatchers) never contend on one ingest
// mutex. AppendAsyncLane stages into a chosen lane; AppendAsync uses
// lane 0. Chain head assignment stays serialized — only the hasher
// assigns Seq/PrevHash/Hash, in arrival-ticket order — so the sharded
// staging changes who waits where, never what the chain looks like:
// records staged by one goroutine always commit in that goroutine's
// program order, whatever lane mix it used.
//
// The zero value is ready to use (one staging lane).
type Log struct {
	mu sync.Mutex
	// records is the retained chain, in fixed chunks: a commit never
	// copies earlier records, and Prune releases whole chunks.
	records chunkSeq[Record]
	// firstSeq is the sequence number of records.At(0); it advances on
	// prune.
	firstSeq uint64
	nextSeq  uint64
	// lastHash is the hash of the most recent record (or the pruned
	// checkpoint's hash).
	lastHash [32]byte
	now      func() time.Time
	// sinks receive a copy of each appended record (e.g. a domain-wide
	// collector, or a durable store). They must not block for long, and
	// must not call back into this log's blocking methods (Append, Flush
	// or any read-side method): async-path sinks run on the hasher
	// goroutine, where such a call would self-deadlock. Appending to a
	// *different* log is fine.
	sinks []func(Record)
	// sinkMu serialises commit+deliver so sinks observe records in exactly
	// chain order even under concurrent Append calls — durable sinks
	// (internal/store) rely on this to persist a contiguous chain.
	sinkMu sync.Mutex

	// lanes holds the per-shard staging buffers (lazily a single lane for
	// zero-value logs; see SetStagingLanes).
	lanes atomic.Pointer[[]stageLane]
	// tickets issues one arrival ticket per staged record, taken under the
	// staging lane's lock so each lane's buffer is ticket-ordered. The
	// hasher merges lanes by ticket, which defines chain order.
	tickets atomic.Uint64
	// draining is true while a hasher goroutine is live. The goroutine is
	// started on demand and exits when every lane empties, so idle logs
	// hold no background resources.
	draining atomic.Bool
	// batch is the hasher's merge buffer, kept here because the hasher
	// exits whenever the lanes empty; only the goroutine holding draining
	// touches it; so does batchKeep, which decides when an oversized one
	// is dropped.
	batch     []staged
	batchKeep bufKeep
	// trimIdle asks the hasher to drop oversized staging buffers at its next
	// pass that finds them empty, bursty cycle or not: Flush sets it, since a
	// caller waiting for the chain to settle marks the end of a burst.
	trimIdle atomic.Bool
	// flushMu guards completed; Flush waits on the watermark — completed
	// catching up with tickets-issued-as-of-the-call — not on full
	// quiescence, so it stays bounded under sustained ingest.
	flushMu   sync.Mutex
	flushCond *sync.Cond
	completed uint64
}

// A staged record is one AppendAsync payload parked in a lane buffer with
// the arrival ticket that fixes its place in the chain, plus the stage
// clock of the message that produced it (nil for unattributed flows): the
// hasher marks the decide→audit edge at commit.
type staged struct {
	ticket uint64
	rec    Record
	stage  *telemetry.StageClock
}

// A stageLane is one staging buffer: its own lock, its own backpressure
// condition, its own slice — plus lifetime ingest counters (records and
// approximate bytes staged), maintained under the same lock the producer
// already holds, so lane-load accounting costs no extra synchronisation.
// Producers on different lanes never touch the same lock.
type stageLane struct {
	mu      sync.Mutex
	cond    *sync.Cond
	buf     []staged
	keep    bufKeep
	records uint64
	bytes   uint64
}

// condLocked lazily builds the lane's backpressure condition variable;
// the lane's mu must be held.
func (ln *stageLane) condLocked() *sync.Cond {
	if ln.cond == nil {
		ln.cond = sync.NewCond(&ln.mu)
	}
	return ln.cond
}

// maxPending bounds each staging lane; enqueueing beyond it blocks until
// the hasher catches up (backpressure rather than unbounded memory).
const maxPending = 4096

// maxKeptBuf bounds the capacity of an idle staging buffer (lane or
// hasher batch). Buffers are cleared and reused after every drain, so a
// busy lane does not regrow from empty each time. A buffer a burst grew
// past maxKeptBuf is dropped once calmCycles drain cycles in a row (a cycle
// ends at a pass that finds the buffer empty) needed no more than
// maxKeptBuf, or once a Flush has asked for it. So one burst cannot pin
// lanes x maxPending records for good, while a hasher that lags again and
// again keeps its buffers instead of regrowing them from nil after every
// catch-up.
const maxKeptBuf = 1024

// calmCycles is how many calm drain cycles an oversized staging buffer
// survives; see maxKeptBuf.
const calmCycles = 8

// bufKeep decides when an oversized staging buffer is dropped (see
// maxKeptBuf). Its owner's lock, or the draining flag, guards it.
type bufKeep struct {
	peak int // most records held at one pass in the current cycle
	calm int // cycles in a row whose peak fit in maxKeptBuf
}

// note records that a pass found n records in the buffer.
func (k *bufKeep) note(n int) { k.peak = max(k.peak, n) }

// endCycle closes a cycle at a pass that found the buffer empty and
// reports whether a buffer of capacity c should be dropped.
func (k *bufKeep) endCycle(c int, trim bool) bool {
	if k.peak <= maxKeptBuf {
		k.calm++
	} else {
		k.calm = 0
	}
	k.peak = 0
	if c <= maxKeptBuf || !(trim || k.calm >= calmCycles) {
		return false
	}
	k.calm = 0
	return true
}

// NewLog builds an empty log. A nil clock means time.Now.
func NewLog(clock func() time.Time) *Log {
	if clock == nil {
		clock = time.Now
	}
	return &Log{now: clock}
}

// clock returns the log's time source (zero-value logs use time.Now).
func (l *Log) clock() time.Time {
	if l.now == nil {
		return time.Now()
	}
	return l.now()
}

// AddSink registers a callback invoked for each appended record (on the
// appending goroutine for Append, on the hasher goroutine for AppendAsync).
// Sinks enable hierarchical collection: a thing's log forwards into its
// domain's log. See the Log doc comment for what sinks must not do.
func (l *Log) AddSink(sink func(Record)) {
	l.Flush()
	l.mu.Lock()
	defer l.mu.Unlock()
	l.sinks = append(l.sinks, sink)
}

// Append adds a record synchronously, assigning its sequence number,
// timestamp (when zero) and chained hash, and returns the completed record.
// Any records already enqueued via AppendAsync are committed first, so the
// chain reflects arrival order.
func (l *Log) Append(r Record) Record {
	l.Flush()
	if r.Time.IsZero() {
		r.Time = l.clock()
	}
	l.sinkMu.Lock()
	l.mu.Lock()
	l.commitLocked(&r)
	sinks := l.sinks
	l.mu.Unlock()

	for _, s := range sinks {
		s(r)
	}
	l.sinkMu.Unlock()
	return r
}

// SetStagingLanes resizes the async staging tier to n independent lanes
// (clamped to at least 1). Growing the lane count is what the sharded bus
// does at construction so each shard dispatcher stages on its own lock;
// a request smaller than the current count is a no-op, so two buses
// sharing a log keep the larger tier. Call before concurrent ingest
// begins: the resize flushes, and records staged after it land in the
// new lanes.
func (l *Log) SetStagingLanes(n int) {
	if n < 1 {
		n = 1
	}
	if cur := l.lanes.Load(); cur != nil && len(*cur) >= n {
		return
	}
	l.Flush()
	lanes := make([]stageLane, n)
	l.lanes.Store(&lanes)
}

// StagingLanes reports the current staging lane count.
func (l *Log) StagingLanes() int { return len(*l.getLanes()) }

// getLanes returns the staging lanes, lazily installing a single lane so
// the zero-value Log stays ready to use.
func (l *Log) getLanes() *[]stageLane {
	if lanes := l.lanes.Load(); lanes != nil {
		return lanes
	}
	fresh := make([]stageLane, 1)
	l.lanes.CompareAndSwap(nil, &fresh)
	return l.lanes.Load()
}

// AppendAsync stages a record for batched, background hashing on lane 0
// and returns immediately. See AppendAsyncLane.
func (l *Log) AppendAsync(r Record) { l.AppendAsyncLane(0, r) }

// AppendAsyncLane stages a record for batched, background hashing on the
// given staging lane (reduced modulo the lane count) and returns
// immediately. The record's timestamp is assigned now (when zero); its
// sequence number and chained hash are assigned by the hasher in
// arrival-ticket order. Callers running on distinct lanes contend on
// nothing but the arrival-ticket counter. Call Flush to wait for
// commitment; read-side methods flush implicitly.
func (l *Log) AppendAsyncLane(lane int, r Record) {
	l.AppendAsyncLaneStaged(lane, r, nil)
}

// AppendAsyncLaneStaged is AppendAsyncLane threading the stage clock of the
// message that produced the record (nil for unattributed flows): the hasher
// marks the clock's decide→audit edge when the record commits, closing the
// last pipeline stage.
func (l *Log) AppendAsyncLaneStaged(lane int, r Record, stage *telemetry.StageClock) {
	if r.Time.IsZero() {
		r.Time = l.clock()
	}
	lanes := *l.getLanes()
	if lane < 0 {
		lane = -lane
	}
	ln := &lanes[lane%len(lanes)]
	ln.mu.Lock()
	for len(ln.buf) >= maxPending {
		ln.condLocked().Wait()
	}
	// Ticket under the lane lock: each lane's buffer stays ticket-ordered,
	// and a goroutine's consecutive appends get ascending tickets, so the
	// hasher's merged order preserves every producer's program order.
	ln.buf = append(ln.buf, staged{ticket: l.tickets.Add(1), rec: r, stage: stage})
	ln.records++
	ln.bytes += approxRecordSize(&r)
	ln.mu.Unlock()
	if l.draining.CompareAndSwap(false, true) {
		go l.drain()
	}
}

// approxRecordSize estimates a record's in-memory footprint for lane-load
// accounting: the fixed struct size plus the variable string payloads. An
// estimate is enough — skew reports compare lanes against each other, so
// only relative weight matters.
func approxRecordSize(r *Record) uint64 {
	const fixed = 256 // struct fields, hashes, label headers
	return uint64(fixed +
		len(r.Domain) + len(r.Src) + len(r.Dst) + len(r.DataID) +
		len(r.Agent) + len(r.Note) + len(r.TraceID))
}

// A LaneIngest summarises one staging lane's lifetime async ingest: how
// many records were staged there and their approximate size. The counters
// are cumulative — they survive drains — so two snapshots diff cleanly.
type LaneIngest struct {
	Records uint64
	Bytes   uint64
}

// LaneStats returns per-lane lifetime ingest counters, indexed by staging
// lane. It takes each lane's lock briefly; producers on other lanes are
// unaffected.
func (l *Log) LaneStats() []LaneIngest {
	lanes := *l.getLanes()
	out := make([]LaneIngest, len(lanes))
	for i := range lanes {
		ln := &lanes[i]
		ln.mu.Lock()
		out[i] = LaneIngest{Records: ln.records, Bytes: ln.bytes}
		ln.mu.Unlock()
	}
	return out
}

// IngestDepth reports how many AppendAsync records are staged but not
// yet hashed and committed — the async ingest queue depth the telemetry
// layer surfaces.
func (l *Log) IngestDepth() int {
	issued := l.tickets.Load()
	l.flushMu.Lock()
	defer l.flushMu.Unlock()
	return int(issued - l.completed)
}

// Flush blocks until every record staged via AppendAsync/AppendAsyncLane
// before the call has been hashed, chained and delivered to sinks.
// Records staged after the call are not waited for, so Flush is bounded
// even while other goroutines keep appending.
func (l *Log) Flush() {
	if !l.trimIdle.Load() {
		l.trimIdle.Store(true)
	}
	target := l.tickets.Load()
	l.flushMu.Lock()
	for l.completed < target {
		l.flushCondLocked().Wait()
	}
	l.flushMu.Unlock()
}

// flushCondLocked lazily builds the watermark condition variable (so the
// zero-value Log stays ready to use). Callers must hold flushMu.
func (l *Log) flushCondLocked() *sync.Cond {
	if l.flushCond == nil {
		l.flushCond = sync.NewCond(&l.flushMu)
	}
	return l.flushCond
}

// collectStaged moves staged records into the hasher's batch buffer,
// wakes producers blocked on lane backpressure, and returns the batch
// merged into arrival-ticket order — the order the chain will record.
// Each lane keeps its buffer, cleared so it holds no copy of a record,
// unless the lane was already empty and its buffer is oversized for the
// whole cycle just ended (see maxKeptBuf).
//
// Only records ticketed before the pass starts are taken. Each of them
// was staged under its lane's lock in the same critical section that
// issued its ticket, so all are in the lanes by the time the pass locks
// them; later tickets wait for the next pass. A batch is therefore every
// ticket up to the one read here, with no gaps: a producer that spreads
// its records over several lanes still sees them committed in its
// program order, and the Flush watermark never counts a later record in
// place of an earlier one still staged.
func (l *Log) collectStaged(trim bool) []staged {
	lanes := *l.getLanes()
	upto := l.tickets.Load()
	batch := l.batch[:0]
	for i := range lanes {
		ln := &lanes[i]
		ln.mu.Lock()
		k := len(ln.buf)
		for k > 0 && ln.buf[k-1].ticket > upto {
			k--
		}
		switch {
		case k > 0:
			ln.keep.note(len(ln.buf))
			batch = append(batch, ln.buf[:k]...)
			rest := copy(ln.buf, ln.buf[k:])
			clear(ln.buf[rest:])
			ln.buf = ln.buf[:rest]
			ln.condLocked().Broadcast() // release writers blocked on backpressure
		case len(ln.buf) == 0:
			if ln.keep.endCycle(cap(ln.buf), trim) {
				ln.buf = nil // the burst that grew it is over
			}
		}
		ln.mu.Unlock()
	}
	// Each lane's contribution is already ticket-sorted (tickets are taken
	// under the lane lock), so this is a k-way merge; a sort keeps it
	// simple and the batch is bounded by lanes x maxPending.
	slices.SortFunc(batch, func(a, b staged) int { return cmp.Compare(a.ticket, b.ticket) })
	return batch
}

// anyStaged reports whether any lane holds staged records.
func (l *Log) anyStaged() bool {
	lanes := *l.getLanes()
	for i := range lanes {
		ln := &lanes[i]
		ln.mu.Lock()
		n := len(ln.buf)
		ln.mu.Unlock()
		if n > 0 {
			return true
		}
	}
	return false
}

// drain is the background hasher: it repeatedly collects the staged lanes
// into one ticket-ordered batch and commits it under the chain lock, then
// exits once every lane stays empty. Chain head assignment happens only
// here — staging is sharded, sequencing is not.
func (l *Log) drain() {
	for {
		trim := l.trimIdle.Load()
		batch := l.collectStaged(trim)
		if len(batch) == 0 {
			if l.batchKeep.endCycle(cap(batch), trim) {
				l.batch = nil
			}
			if trim {
				l.trimIdle.Store(false)
			}
			l.draining.Store(false)
			// A producer may have staged between the collect and the flag
			// store; re-arm and keep draining if we win the flag back.
			if !l.anyStaged() || !l.draining.CompareAndSwap(false, true) {
				return
			}
			continue
		}
		l.batchKeep.note(len(batch))

		if act := fpSinkStall.Check(); act != nil {
			act.Wait()
		}
		l.sinkMu.Lock()
		l.mu.Lock()
		for i := range batch {
			l.commitLocked(&batch[i].rec)
		}
		sinks := l.sinks
		l.mu.Unlock()
		// Close the decide→audit stage edge now that the records are in the
		// chain (nil-safe; most records carry no clock).
		for i := range batch {
			batch[i].stage.MarkAudit()
		}
		for _, s := range sinks {
			for i := range batch {
				s(batch[i].rec)
			}
		}
		l.sinkMu.Unlock()
		clear(batch) // keep no copy of a record once it is committed
		l.batch = batch[:0]

		l.flushMu.Lock()
		l.completed += uint64(len(batch))
		l.flushCondLocked().Broadcast() // advance the Flush watermark
		l.flushMu.Unlock()
	}
}

// commitLocked assigns seq, chains and stores one record; l.mu must be held.
func (l *Log) commitLocked(r *Record) {
	r.Seq = l.nextSeq
	r.PrevHash = l.lastHash
	r.Hash = computeHash(r)
	l.records.Append(*r)
	l.nextSeq++
	l.lastHash = r.Hash
}

// Restore primes an empty log with a recovery checkpoint: the next
// sequence number to assign and the hash of the last record committed
// before the process died. Subsequent appends continue the persisted
// chain exactly as Prune-retained logs do — the first new record carries
// lastHash as its PrevHash, so the chain verifies across the restart
// boundary. Restoring a log that has already committed records is an
// error; recovery happens before ingest begins.
func (l *Log) Restore(nextSeq uint64, lastHash [32]byte) error {
	l.Flush()
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.nextSeq != 0 || l.records.Len() != 0 {
		return errors.New("audit: Restore on a log that already has records")
	}
	l.firstSeq = nextSeq
	l.nextSeq = nextSeq
	l.lastHash = lastHash
	return nil
}

// Checkpoint returns the log's chain head: the next sequence number and
// the hash of the last committed record (the pruned checkpoint's hash when
// everything has been pruned). A durable store resuming this chain after a
// restart feeds these back through Restore.
func (l *Log) Checkpoint() (nextSeq uint64, lastHash [32]byte) {
	l.Flush()
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.nextSeq, l.lastHash
}

// Len returns the number of retained records.
func (l *Log) Len() int {
	l.Flush()
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.records.Len()
}

// HeadHash returns the hash of the latest record.
func (l *Log) HeadHash() [32]byte {
	l.Flush()
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.lastHash
}

// Get returns the record with the given sequence number.
func (l *Log) Get(seq uint64) (Record, error) {
	l.Flush()
	l.mu.Lock()
	defer l.mu.Unlock()
	if seq < l.firstSeq {
		return Record{}, fmt.Errorf("%w: seq %d < first retained %d", ErrPruned, seq, l.firstSeq)
	}
	idx := seq - l.firstSeq
	if idx >= uint64(l.records.Len()) {
		return Record{}, fmt.Errorf("audit: seq %d beyond head %d", seq, l.nextSeq)
	}
	return *l.records.At(int(idx)), nil
}

// Select returns a copy of all retained records matching the filter; a nil
// filter selects everything.
func (l *Log) Select(filter func(Record) bool) []Record {
	l.Flush()
	l.mu.Lock()
	defer l.mu.Unlock()
	n := l.records.Len()
	out := make([]Record, 0, n)
	for i := 0; i < n; i++ {
		if r := l.records.At(i); filter == nil || filter(*r) {
			out = append(out, *r)
		}
	}
	return out
}

// Verify walks the retained chain, checking every record's hash and
// linkage. It returns the sequence number of the first bad record, or -1
// with a nil error when the chain is intact. Tombstones (Redacted records)
// are checked for linkage only: their payload is gone by design, but they
// still carry the original hash, so the chain continues through them.
func (l *Log) Verify() (int64, error) {
	l.Flush()
	l.mu.Lock()
	defer l.mu.Unlock()
	prev := [32]byte{}
	for i := 0; i < l.records.Len(); i++ {
		r := l.records.At(i)
		if i == 0 {
			prev = r.PrevHash // trust the checkpoint after pruning
		}
		if r.PrevHash != prev {
			return int64(r.Seq), fmt.Errorf("%w: record %d links to wrong predecessor", ErrChainBroken, r.Seq)
		}
		if r.Redacted {
			// A tombstone must actually be one: payload fields zeroed. The
			// flag exempts a record from the content-hash check, so any
			// surviving payload under it is a forgery, not an erasure.
			if !ValidTombstone(r) {
				return int64(r.Seq), fmt.Errorf("%w: record %d marked redacted but carries payload", ErrChainBroken, r.Seq)
			}
		} else if computeHash(r) != r.Hash {
			return int64(r.Seq), fmt.Errorf("%w: record %d content hash mismatch", ErrChainBroken, r.Seq)
		}
		prev = r.Hash
	}
	return -1, nil
}

// Redact replaces the retained record with the given sequence number by
// its chain-preserving tombstone (see Record.Redact): the payload fields
// are zeroed while linkage survives, so Verify still passes end to end.
// Redacting an already-redacted record is a no-op. This is the in-memory
// half of erasure; the disk tier redacts through store.AuditStore.
func (l *Log) Redact(seq uint64, note string) error {
	l.Flush()
	l.mu.Lock()
	defer l.mu.Unlock()
	if seq < l.firstSeq {
		return fmt.Errorf("%w: seq %d < first retained %d", ErrPruned, seq, l.firstSeq)
	}
	idx := seq - l.firstSeq
	if idx >= uint64(l.records.Len()) {
		return fmt.Errorf("audit: seq %d beyond head %d", seq, l.nextSeq)
	}
	if r := l.records.At(int(idx)); !r.Redacted {
		*r = r.Redact(note)
	}
	return nil
}

// RedactMany tombstones every listed retained record with one flush and
// one lock acquisition (a batch erasure would otherwise pay a hasher
// round trip per record). Sequence numbers outside the retained window
// and already-redacted records are skipped. Returns the number of records
// newly tombstoned.
func (l *Log) RedactMany(seqs []uint64, note string) int {
	l.Flush()
	l.mu.Lock()
	defer l.mu.Unlock()
	n := 0
	for _, seq := range seqs {
		if seq < l.firstSeq {
			continue
		}
		idx := seq - l.firstSeq
		if idx >= uint64(l.records.Len()) {
			continue
		}
		if r := l.records.At(int(idx)); !r.Redacted {
			*r = r.Redact(note)
			n++
		}
	}
	return n
}

// Prune discards records with Seq < upto, returning the discarded segment
// for offload. The chain head remains verifiable because the first retained
// record still carries the hash of the last pruned one. The log keeps no
// copy of a pruned record: whole chunks are released and the pruned slots
// of a chunk still in use are zeroed.
func (l *Log) Prune(upto uint64) []Record {
	l.Flush()
	l.mu.Lock()
	defer l.mu.Unlock()
	if upto <= l.firstSeq {
		return nil
	}
	if upto > l.nextSeq {
		upto = l.nextSeq
	}
	segment := make([]Record, upto-l.firstSeq)
	for i := range segment {
		segment[i] = *l.records.At(i)
	}
	l.records.DropFront(len(segment))
	l.firstSeq = upto
	return segment
}

// VerifySegment checks an offloaded segment against itself and, when the
// follower's first retained record is supplied, against the retained chain.
// Tombstones verify by linkage only, as in Log.Verify.
func VerifySegment(segment []Record, next *Record) error {
	for i := 1; i < len(segment); i++ {
		if segment[i].PrevHash != segment[i-1].Hash {
			return fmt.Errorf("%w: segment break at %d", ErrChainBroken, segment[i].Seq)
		}
	}
	for i := range segment {
		r := segment[i]
		if r.Redacted {
			if !ValidTombstone(&r) {
				return fmt.Errorf("%w: segment record %d marked redacted but carries payload", ErrChainBroken, r.Seq)
			}
			continue
		}
		if computeHash(&r) != r.Hash {
			return fmt.Errorf("%w: segment record %d hash mismatch", ErrChainBroken, r.Seq)
		}
	}
	if next != nil && len(segment) > 0 {
		if next.PrevHash != segment[len(segment)-1].Hash {
			return fmt.Errorf("%w: retained log does not follow segment", ErrChainBroken)
		}
	}
	return nil
}
