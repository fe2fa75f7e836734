package sbus

import (
	"sync"
	"sync/atomic"

	"lciot/internal/fault"
	"lciot/internal/lanehash"
	"lciot/internal/msg"
)

// fpHandoff is the chaos seam for the handoff rings: an armed program
// forces the overflow path — the delivery is refused as if the ring were
// full, so the publisher falls back to inline execution. Drills use it to
// provoke the relaxed ordering semantics overload produces without having
// to actually fill a 4096-slot ring.
var fpHandoff = fault.New("sbus.shard.handoff")

// handoffRingSize bounds each shard's cross-shard delivery ring. While the
// ring has free slots, handoffs preserve per-source FIFO order; when it is
// full the publisher delivers inline instead (see publish), trading
// ordering for liveness under overload: the inline message can overtake
// older messages for the same channel still queued on the ring, and the
// sink's handler can run on the publisher's goroutine concurrently with
// the shard's dispatcher. Sink handlers on a multi-shard bus must
// tolerate both (see the package documentation's ordering semantics).
const handoffRingSize = 4096

// maxShards bounds the shard count a bus can be built with. The cap is a
// sanity limit, not a tuning recommendation: useful shard counts track the
// host's core count (see the README scaling guide).
const maxShards = 1024

// A handoff is one cross-shard delivery parked on the destination shard's
// ring, carrying everything deliverLocal needs.
type handoff struct {
	srcComp *Component
	srcEP   EndpointSpec
	ch      *channel
	m       *msg.Message
}

// A shard owns a horizontal slice of the bus: the components whose names
// hash to it, every channel whose *source* component lives here, and the
// byComp re-evaluation index entries for its own components (including
// entries for channels owned by other shards whose sink lives here). Each
// shard has its own copy-on-write routing snapshot, its own write lock,
// and — on multi-shard buses — its own dispatch goroutine draining the
// handoff ring. Reconfiguration on one shard therefore never serialises
// publishes or re-evaluations on another.
type shard struct {
	idx int

	// mu serialises this shard's routing mutations; routing holds the
	// shard's immutable snapshot, read lock-free by the message path.
	mu      sync.Mutex
	routing atomic.Pointer[routing]

	// ring receives cross-shard deliveries destined for this shard's
	// components; drained by the shard's dispatch goroutine.
	ring chan handoff

	// enqMu fences ring enqueues against Close. Publishers hold the read
	// side across the closed-flag check and the enqueue; Close sets the
	// flag and then takes the write side once as a barrier, after which no
	// new handoff can reach the ring — everything the ring holds was
	// accepted before the barrier and is drained by the dispatcher's
	// shutdown pass.
	enqMu sync.RWMutex

	// Stats, all monotonic.
	delivered  atomic.Uint64 // successful deliveries to sinks on this shard
	handoffsIn atomic.Uint64 // cross-shard deliveries accepted onto the ring
	overflow   atomic.Uint64 // handoffs delivered inline because the ring was full
	reevals    atomic.Uint64 // context re-evaluations of this shard's components
}

// dispatch drains the shard's handoff ring until the bus closes, then
// drains whatever is already queued and exits. It is the only reader of
// the ring, so ring order — per-source publish order while the ring has
// capacity — is delivery order.
func (sh *shard) dispatch(b *Bus) {
	for {
		select {
		case h := <-sh.ring:
			b.deliverLocal(h.srcComp, h.srcEP, h.ch, h.m)
		case <-b.quit:
			for {
				select {
				case h := <-sh.ring:
					b.deliverLocal(h.srcComp, h.srcEP, h.ch, h.m)
				default:
					return
				}
			}
		}
	}
}

// tryHandoff attempts to park a cross-shard delivery on the shard's ring,
// reporting whether the shard's dispatcher now owns it. It refuses — and
// the caller must deliver inline — when the bus is closed (no dispatcher
// will drain the ring again) or the ring is full. The read lock pairs
// with the write-side barrier in Close: an enqueue that wins the race
// against Close lands on the ring before the barrier completes, so the
// dispatcher's shutdown drain still delivers it; an enqueue that loses
// observes the closed flag and falls back.
func (sh *shard) tryHandoff(b *Bus, h handoff) bool {
	if act := fpHandoff.Check(); act != nil {
		act.Wait()
		sh.overflow.Add(1)
		return false // forced overflow: caller delivers inline
	}
	sh.enqMu.RLock()
	defer sh.enqMu.RUnlock()
	if b.closed.Load() {
		return false
	}
	select {
	case sh.ring <- h:
		sh.handoffsIn.Add(1)
		return true
	default:
		sh.overflow.Add(1)
		return false
	}
}

// shardIdxFor maps a component name to a shard by the shared FNV-1a
// placement hash (internal/lanehash — the same function the CEP and
// policy dispatch lanes use, so a component's deliveries, detections and
// rule dispatch stay on one lane index). The mapping is pure: a
// component's shard is a function of its name and the bus's shard count
// only, so callers can predict placement (shard affinity) and tests can
// construct names that land on chosen shards.
func shardIdxFor(name string, n int) int {
	return lanehash.Index(name, n)
}

// shardIdx returns the index of the shard owning the named component.
func (b *Bus) shardIdx(component string) int {
	return shardIdxFor(component, len(b.shards))
}

// shardFor returns the shard owning the named component.
func (b *Bus) shardFor(component string) *shard {
	return b.shards[b.shardIdx(component)]
}

// NumShards returns the bus's shard count (>= 1).
func (b *Bus) NumShards() int { return len(b.shards) }

// ShardOf reports which shard the named component maps to. The mapping is
// stable for the life of the bus, whether or not the component is
// registered yet.
func (b *Bus) ShardOf(component string) int { return b.shardIdx(component) }

// ShardStats is a point-in-time view of one shard, for operators and
// tests watching how load spreads across the bus.
type ShardStats struct {
	// Shard is the shard index.
	Shard int
	// Components and Channels count what the shard currently owns.
	Components int
	Channels   int
	// Delivered counts successful deliveries to sinks homed on this shard
	// (whether executed inline or by the shard's dispatcher).
	Delivered uint64
	// HandoffsIn counts cross-shard deliveries accepted onto the ring.
	HandoffsIn uint64
	// Overflow counts handoffs delivered inline on the publisher's
	// goroutine because the ring was full.
	Overflow uint64
	// Reevaluations counts context re-evaluations of this shard's
	// components.
	Reevaluations uint64
}

// ShardStats snapshots every shard. Each shard's routing counts are
// individually consistent; the slice as a whole is not a cross-shard
// atomic snapshot.
func (b *Bus) ShardStats() []ShardStats {
	out := make([]ShardStats, len(b.shards))
	for i, sh := range b.shards {
		r := sh.routing.Load()
		out[i] = ShardStats{
			Shard:         i,
			Components:    len(r.components),
			Channels:      len(r.channels),
			Delivered:     sh.delivered.Load(),
			HandoffsIn:    sh.handoffsIn.Load(),
			Overflow:      sh.overflow.Load(),
			Reevaluations: sh.reevals.Load(),
		}
	}
	return out
}

// Close stops the shard dispatchers after draining deliveries already
// accepted onto the rings, then shuts down every federation link and
// waits for all link loops to return. Close is idempotent. Local
// delivery keeps working, with cross-shard deliveries falling back to
// inline execution on the publisher's goroutine (publishers observe the
// closed flag and never enqueue onto an undrained ring); sends to a peer
// fail with ErrLinkDown, and no new link can be added. Close must not be
// called from a handler of a message that arrived over a link, since it
// waits for that link's reader.
func (b *Bus) Close() {
	b.closeOnce.Do(func() {
		b.closed.Store(true)
		// Barrier: wait out every in-flight tryHandoff. Once every write
		// lock is held, every publisher sees the closed flag before
		// touching a ring, so the rings only hold handoffs accepted before
		// this point — all of which the dispatchers' shutdown drain below
		// delivers.
		for _, sh := range b.shards {
			sh.enqMu.Lock()
		}
		close(b.quit)
		for _, sh := range b.shards {
			sh.enqMu.Unlock()
		}
		b.closeLinks()
	})
}

// mutate1 clones shard i's snapshot, applies fn, and publishes the result
// if fn reports success — the single-shard copy-on-write step.
func (b *Bus) mutate1(i int, fn func(r *routing) bool) bool {
	sh := b.shards[i]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	next := sh.routing.Load().clone()
	if !fn(next) {
		return false
	}
	sh.routing.Store(next)
	return true
}

// mutate2 locks shards i and j (possibly equal) in index order, clones
// both snapshots, applies fn, and publishes the clones fn mutated if it
// reports success. When i == j, ri and rj are the same clone. Locking in
// index order makes concurrent two-shard mutations deadlock-free.
func (b *Bus) mutate2(i, j int, fn func(ri, rj *routing) bool) bool {
	if i == j {
		return b.mutate1(i, func(r *routing) bool { return fn(r, r) })
	}
	lo, hi := i, j
	if lo > hi {
		lo, hi = hi, lo
	}
	b.shards[lo].mu.Lock()
	defer b.shards[lo].mu.Unlock()
	b.shards[hi].mu.Lock()
	defer b.shards[hi].mu.Unlock()
	ri := b.shards[i].routing.Load().clone()
	rj := b.shards[j].routing.Load().clone()
	if !fn(ri, rj) {
		return false
	}
	b.shards[i].routing.Store(ri)
	b.shards[j].routing.Store(rj)
	return true
}

// mutateN locks every shard in idxs (which must be sorted ascending and
// duplicate-free — the same ascending order mutate1/mutate2 use, keeping
// all three deadlock-free against each other), clones each snapshot,
// applies fn to the clones, and publishes them all if fn reports success.
// Bulk operations use it when retire-and-replace of many keys must be
// atomic with respect to concurrent single-channel mutations on the same
// keys.
func (b *Bus) mutateN(idxs []int, fn func(rs map[int]*routing) bool) bool {
	for _, i := range idxs {
		b.shards[i].mu.Lock()
	}
	defer func() {
		for _, i := range idxs {
			b.shards[i].mu.Unlock()
		}
	}()
	rs := make(map[int]*routing, len(idxs))
	for _, i := range idxs {
		rs[i] = b.shards[i].routing.Load().clone()
	}
	if !fn(rs) {
		return false
	}
	for _, i := range idxs {
		b.shards[i].routing.Store(rs[i])
	}
	return true
}

// channelShards returns the shard indexes a channel key touches: the
// source component's home shard (which owns the channel) and, for local
// sinks, the destination component's home shard (which indexes it for
// re-evaluation). For remote sinks j == i.
func (b *Bus) channelShards(key channelKey) (i, j int, srcName, dstName string) {
	srcName, _, _ = splitEndpointAddr(key.src)
	i = b.shardIdx(srcName)
	j = i
	if remote, rest := splitRemoteAddr(key.dst); remote == "" {
		dstName, _, _ = splitEndpointAddr(rest)
		j = b.shardIdx(dstName)
	}
	return i, j, srcName, dstName
}

// installChannel publishes ch into the owning shard's channel table and
// source index and into the byComp index of every touched component's
// home shard, atomically replacing any predecessor with the same key.
// Both shards' snapshots swap while both locks are held, so readers never
// see the channel in one index but not the other.
func (b *Bus) installChannel(ch *channel) {
	i, j, srcName, dstName := b.channelShards(ch.key)
	ch.srcShard, ch.dstShard = i, j
	b.mutate2(i, j, func(ri, rj *routing) bool {
		if old := ri.removeOwned(ch.key); old != nil {
			ri.removeByComp(srcName, old)
			if dstName != "" && dstName != srcName {
				rj.removeByComp(dstName, old)
			}
		}
		ri.addOwned(ch)
		ri.addByComp(srcName, ch)
		if dstName != "" && dstName != srcName {
			rj.addByComp(dstName, ch)
		}
		return true
	})
}

// uninstallChannel removes the channel with the given key from every
// index, reporting whether it existed. When expect is non-nil the removal
// only proceeds if the routed channel is still that exact channel —
// re-evaluation uses this so it can condemn a channel outside the shard
// lock without tearing down a replacement connected in the interim.
func (b *Bus) uninstallChannel(key channelKey, expect *channel) bool {
	i, j, srcName, dstName := b.channelShards(key)
	removed := false
	b.mutate2(i, j, func(ri, rj *routing) bool {
		if expect != nil && ri.channels[key] != expect {
			return false
		}
		old := ri.removeOwned(key)
		if old == nil {
			return false
		}
		ri.removeByComp(srcName, old)
		if dstName != "" && dstName != srcName {
			rj.removeByComp(dstName, old)
		}
		removed = true
		return true
	})
	return removed
}

// ownedChannels collects every channel from every shard's snapshot. Each
// shard's contribution is individually consistent; the slice as a whole
// is not a cross-shard atomic snapshot (callers — link replay, listings —
// tolerate that).
func (b *Bus) ownedChannels() []*channel {
	var out []*channel
	for _, sh := range b.shards {
		r := sh.routing.Load()
		for _, ch := range r.channels {
			out = append(out, ch)
		}
	}
	return out
}

// channelByKey looks a channel up in its owning shard (internal; tests).
func (b *Bus) channelByKey(key channelKey) *channel {
	srcName, _, _ := splitEndpointAddr(key.src)
	return b.shardFor(srcName).routing.Load().channels[key]
}
