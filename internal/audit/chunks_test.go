package audit

import (
	"errors"
	"math/rand"
	"runtime"
	"strconv"
	"testing"
	"time"
)

// logModel is the reference for TestLogMatchesSliceModel: the chain as one
// plain slice, with the head state a Log keeps.
type logModel struct {
	recs     []Record
	firstSeq uint64
	nextSeq  uint64
	lastHash [32]byte
}

func (m *logModel) append(r Record) {
	r.Seq = m.nextSeq
	r.PrevHash = m.lastHash
	r.Hash = computeHash(&r)
	m.recs = append(m.recs, r)
	m.nextSeq++
	m.lastHash = r.Hash
}

// lookup returns the retained record with the given seq, if any.
func (m *logModel) lookup(seq uint64) *Record {
	if seq < m.firstSeq || seq >= m.nextSeq {
		return nil
	}
	return &m.recs[seq-m.firstSeq]
}

func (m *logModel) prune(upto uint64) []Record {
	if upto <= m.firstSeq {
		return nil
	}
	if upto > m.nextSeq {
		upto = m.nextSeq
	}
	n := upto - m.firstSeq
	seg := append([]Record(nil), m.recs[:n]...)
	m.recs = m.recs[n:]
	m.firstSeq = upto
	return seg
}

// TestLogMatchesSliceModel drives a Log and the slice model with the same
// random Append, AppendAsync, Prune, Redact and RedactMany calls, with prune
// points on and around chunk boundaries, and checks after every step that
// Get, Select, Len, Verify and Checkpoint agree with the model.
func TestLogMatchesSliceModel(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		l := NewLog(nil)
		l.SetStagingLanes(3)
		m := &logModel{}
		clock := time.Unix(1700000000, 0)
		next := func() Record {
			clock = clock.Add(time.Millisecond)
			i := int(m.nextSeq)
			return Record{
				Time: clock, Kind: FlowAllowed, Layer: LayerMessaging, Domain: "d",
				Src: entityID("p", i%5), Dst: entityID("p", (i+1)%5),
				DataID: "x/" + strconv.Itoa(i), Note: "n" + strconv.Itoa(rng.Intn(3)),
			}
		}
		for step := 0; step < 100; step++ {
			switch op := rng.Intn(10); {
			case op < 4: // a burst through the async path, on random lanes
				for k := rng.Intn(chunkLen); k >= 0; k-- {
					r := next()
					m.append(r)
					l.AppendAsyncLane(rng.Intn(3), r)
				}
			case op < 6:
				r := next()
				m.append(r)
				got := l.Append(r)
				if want := m.recs[len(m.recs)-1]; got != want {
					t.Fatalf("seed %d step %d: Append returned %v, want %v", seed, step, got, want)
				}
			case op < 8:
				upto := m.firstSeq + [...]uint64{0, chunkLen - 1, chunkLen, chunkLen + 1,
					uint64(rng.Intn(2 * chunkLen))}[rng.Intn(5)]
				if rng.Intn(4) == 0 {
					upto = m.nextSeq // everything
				}
				want := m.prune(upto)
				got := l.Prune(upto)
				if len(got) != len(want) {
					t.Fatalf("seed %d step %d: Prune(%d) returned %d records, want %d", seed, step, upto, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("seed %d step %d: pruned record %d differs", seed, step, i)
					}
				}
			case op < 9:
				seq := m.firstSeq + uint64(rng.Intn(len(m.recs)+2)) - 1
				err := l.Redact(seq, "erased")
				if r := m.lookup(seq); r != nil {
					if err != nil {
						t.Fatalf("seed %d step %d: Redact(%d) = %v", seed, step, seq, err)
					}
					if !r.Redacted {
						*r = r.Redact("erased")
					}
				} else if err == nil {
					t.Fatalf("seed %d step %d: Redact(%d) outside [%d, %d) succeeded", seed, step, seq, m.firstSeq, m.nextSeq)
				}
			default:
				var seqs []uint64
				want := 0
				for k := rng.Intn(50); k > 0; k-- {
					seq := m.firstSeq + uint64(rng.Intn(len(m.recs)+4)) - 2
					seqs = append(seqs, seq)
					if r := m.lookup(seq); r != nil && !r.Redacted {
						*r = r.Redact("batch")
						want++
					}
				}
				if got := l.RedactMany(seqs, "batch"); got != want {
					t.Fatalf("seed %d step %d: RedactMany tombstoned %d, want %d", seed, step, got, want)
				}
			}
			checkAgainstModel(t, l, m, seed, step)
		}
	}
}

func checkAgainstModel(t *testing.T, l *Log, m *logModel, seed int64, step int) {
	t.Helper()
	if got := l.Len(); got != len(m.recs) {
		t.Fatalf("seed %d step %d: Len = %d, want %d", seed, step, got, len(m.recs))
	}
	all := l.Select(nil)
	if len(all) != len(m.recs) {
		t.Fatalf("seed %d step %d: Select(nil) returned %d records, want %d", seed, step, len(all), len(m.recs))
	}
	for i := range m.recs {
		if all[i] != m.recs[i] {
			t.Fatalf("seed %d step %d: Select record %d = %v, want %v", seed, step, i, all[i], m.recs[i])
		}
	}
	redacted := l.Select(func(r Record) bool { return r.Redacted })
	want := 0
	for i := range m.recs {
		if m.recs[i].Redacted {
			if want >= len(redacted) || redacted[want] != m.recs[i] {
				t.Fatalf("seed %d step %d: filtered Select disagrees at seq %d", seed, step, m.recs[i].Seq)
			}
			want++
		}
	}
	if len(redacted) != want {
		t.Fatalf("seed %d step %d: filtered Select returned %d, want %d", seed, step, len(redacted), want)
	}
	for _, seq := range []uint64{m.firstSeq - 1, m.firstSeq, m.firstSeq + chunkLen, m.nextSeq - 1, m.nextSeq} {
		got, err := l.Get(seq)
		if r := m.lookup(seq); r != nil {
			if err != nil || got != *r {
				t.Fatalf("seed %d step %d: Get(%d) = %v, %v; want %v", seed, step, seq, got, err, *r)
			}
		} else if err == nil {
			t.Fatalf("seed %d step %d: Get(%d) outside [%d, %d) succeeded", seed, step, seq, m.firstSeq, m.nextSeq)
		} else if seq < m.firstSeq && !errors.Is(err, ErrPruned) {
			t.Fatalf("seed %d step %d: Get(%d) below the window = %v, want ErrPruned", seed, step, seq, err)
		}
	}
	if bad, err := l.Verify(); bad != -1 || err != nil {
		t.Fatalf("seed %d step %d: Verify = %d, %v", seed, step, bad, err)
	}
	if next, head := l.Checkpoint(); next != m.nextSeq || head != m.lastHash {
		t.Fatalf("seed %d step %d: Checkpoint = %d, %x; want %d, %x", seed, step, next, head, m.nextSeq, m.lastHash)
	}
}

// TestChunkSeqDropFrontZeroes: elements dropped from a chunk that is still
// in use are zeroed, and whole dropped chunks are released.
func TestChunkSeqDropFrontZeroes(t *testing.T) {
	l := NewLog(nil)
	for i := 0; i < 3*chunkLen+10; i++ {
		l.Append(Record{Kind: FlowAllowed, DataID: "d/" + strconv.Itoa(i), Note: "payload"})
	}
	for _, upto := range []uint64{5, chunkLen + 7, 2*chunkLen + 1, 3*chunkLen + 3} {
		l.Prune(upto)
		s := &l.records
		if want := (s.off + s.n + chunkLen - 1) / chunkLen; len(s.chunks) != want {
			t.Fatalf("after Prune(%d): %d chunks held, want %d", upto, len(s.chunks), want)
		}
		for i, r := range s.chunks[0][:s.off] {
			if r != (Record{}) {
				t.Fatalf("after Prune(%d): pruned slot %d still holds %v", upto, i, r)
			}
		}
		if got := s.At(0).DataID; got != "d/"+strconv.FormatUint(upto, 10) {
			t.Fatalf("after Prune(%d): first retained record is %q", upto, got)
		}
	}
	l.Prune(l.nextSeq)
	if s := &l.records; s.n != 0 || len(s.chunks) > 1 {
		t.Fatalf("after pruning everything: %d records in %d chunks", s.n, len(s.chunks))
	}
}

// TestErasedDataLeavesNoStagingCopy: once records are committed and then
// tombstoned by an erasure, no staging lane buffer or hasher batch buffer,
// anywhere up to its capacity, still holds a copy of the erased datum
// (ROADMAP item 3, invariant (ii), for the staging tier).
func TestErasedDataLeavesNoStagingCopy(t *testing.T) {
	const erased = "session/erase-me"
	l := NewLog(nil)
	l.SetStagingLanes(4)
	for i := 0; i < 600; i++ {
		id := "session/keep-" + strconv.Itoa(i)
		if i%3 == 0 {
			id = erased
		}
		l.AppendAsyncLane(i, Record{Kind: FlowAllowed, Src: "a", Dst: "b", DataID: id})
	}
	l.Flush()
	var seqs []uint64
	for _, r := range l.Select(func(r Record) bool { return r.DataID == erased }) {
		seqs = append(seqs, r.Seq)
	}
	if n := l.RedactMany(seqs, "erasure request"); n != 200 {
		t.Fatalf("tombstoned %d records, want 200", n)
	}
	l.Flush()
	// The hasher owns its batch buffer until it exits.
	for l.draining.Load() {
		runtime.Gosched()
	}
	holds := func(buf []staged) bool {
		for _, s := range buf[:cap(buf)] {
			if s.rec.DataID == erased {
				return true
			}
		}
		return false
	}
	if holds(l.batch) {
		t.Fatal("hasher batch buffer still holds the erased DataID")
	}
	lanes := *l.getLanes()
	for i := range lanes {
		ln := &lanes[i]
		ln.mu.Lock()
		dirty := holds(ln.buf)
		ln.mu.Unlock()
		if dirty {
			t.Fatalf("staging lane %d still holds the erased DataID", i)
		}
	}
	if left := l.Select(func(r Record) bool { return r.DataID == erased }); len(left) != 0 {
		t.Fatalf("%d committed records still name the erased DataID", len(left))
	}
}
