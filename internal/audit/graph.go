package audit

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
)

// NodeKind distinguishes the three node types of the paper's Fig. 11 audit
// graph, which follow the Open Provenance Model: data items (F), processes
// (P) and agents (A).
type NodeKind int

// Node kinds.
const (
	NodeData NodeKind = iota + 1
	NodeProcess
	NodeAgent
)

// String implements fmt.Stringer.
func (k NodeKind) String() string {
	switch k {
	case NodeData:
		return "data"
	case NodeProcess:
		return "process"
	case NodeAgent:
		return "agent"
	default:
		return fmt.Sprintf("NodeKind(%d)", int(k))
	}
}

// EdgeKind labels provenance relations.
type EdgeKind int

// Edge kinds (OPM/PROV-flavoured, as in Fig. 11).
const (
	EdgeGeneratedBy  EdgeKind = iota + 1 // data  -> process that produced it
	EdgeUsed                             // process -> data it consumed
	EdgeInformedBy                       // process -> process (information flow)
	EdgeControlledBy                     // process -> agent managing it
	EdgeDerivedFrom                      // data  -> data it was derived from
)

// String implements fmt.Stringer.
func (k EdgeKind) String() string {
	switch k {
	case EdgeGeneratedBy:
		return "wasGeneratedBy"
	case EdgeUsed:
		return "used"
	case EdgeInformedBy:
		return "wasInformedBy"
	case EdgeControlledBy:
		return "wasControlledBy"
	case EdgeDerivedFrom:
		return "wasDerivedFrom"
	default:
		return fmt.Sprintf("EdgeKind(%d)", int(k))
	}
}

// A Node is a provenance graph vertex.
type Node struct {
	ID   string
	Kind NodeKind
	// Attrs carries free-form metadata (labels at creation time, owner...).
	Attrs map[string]string
}

// An Edge is a directed provenance relation from Src to Dst.
type Edge struct {
	Src, Dst string
	Kind     EdgeKind
}

// ErrUnknownNode is returned by queries over absent nodes.
var ErrUnknownNode = errors.New("audit: unknown node")

// A Graph is a provenance graph. The zero value is ready to use.
//
// Storage is interned: every node ID maps to a slot in one node table, and
// an edge is two pointer-free halves, {to, kind} in the source's out list
// and in the destination's in list, so a history of millions of edges
// holds no per-edge strings for the collector to scan. Edges form a set:
// adding an edge that already exists changes nothing, which is what keeps
// a busy channel's repeated wasInformedBy edge from growing the graph once
// per message. Len therefore counts distinct edges. RemoveNodes returns
// the freed slots to a free list that later nodes reuse.
//
// Reachability queries (Ancestry, Descendants, and everything built on
// them) are memoized: the first query for a node walks the graph, repeated
// queries return the memoized set in time proportional to the answer, not
// to the history. The memo is epoch-stamped — every edge added or removed
// advances the graph epoch, and a memo from an older epoch is discarded
// wholesale on the next query — so audit workloads that build once (or
// append in bursts) and then query repeatedly never pay the walk twice for
// the same topology.
type Graph struct {
	mu sync.RWMutex
	// index maps each live node ID to its slot.
	index map[string]int32
	// slots is the node table, in fixed chunks: a new node never moves
	// the existing ones.
	slots chunkSeq[slot]
	// free lists the slots RemoveNodes released, for reuse.
	free []int32
	// pairs is the edge set for edges with no data endpoint. An edge that
	// touches a data node is deduplicated by scanning that node's short
	// adjacency list instead, so the set stays as small as the process
	// and agent topology, not the data history.
	pairs map[pairKey]struct{}
	// edges counts distinct edges.
	edges int
	// epoch advances on every edge added or removed; reachability memos
	// are only valid while their stamped epoch matches.
	epoch uint64
	// anc and desc memoize Ancestry and Descendants results per node.
	anc  reachMemo
	desc reachMemo
}

// A slot is one node table entry.
type slot struct {
	id    string
	attrs map[string]string
	// out lists the edges leaving this node, in the order they were added;
	// in lists the edges entering it.
	out, in []half
	kind    NodeKind
}

// at returns slot i of the node table.
func (g *Graph) at(i int32) *slot { return g.slots.At(int(i)) }

// A half is one end's view of an edge: the slot at the far end and the
// edge kind.
type half struct {
	to   int32
	kind uint8
}

// A pairKey names one edge in the pairs set.
type pairKey struct {
	src, dst int32
	kind     uint8
}

// A reachMemo holds reachability sets computed at one graph epoch.
type reachMemo struct {
	epoch uint64
	sets  map[string][]string
}

// lookup returns the memoized set for id, if still valid at epoch.
func (m *reachMemo) lookup(epoch uint64, id string) ([]string, bool) {
	if m.epoch != epoch || m.sets == nil {
		return nil, false
	}
	s, ok := m.sets[id]
	return s, ok
}

// store records a computed set, discarding any stale-epoch memo first.
func (m *reachMemo) store(epoch uint64, id string, set []string) {
	if m.epoch != epoch || m.sets == nil {
		m.epoch = epoch
		m.sets = make(map[string][]string)
	}
	m.sets[id] = set
}

// AddNode inserts or updates a node.
func (g *Graph) AddNode(n Node) {
	g.mu.Lock()
	defer g.mu.Unlock()
	i, ok := g.index[n.ID]
	if !ok {
		g.newSlotLocked(n.ID, n.Kind, n.Attrs)
		return
	}
	s := g.at(i)
	if (s.kind == NodeData) == (n.Kind == NodeData) {
		s.kind, s.attrs = n.Kind, n.Attrs
		return
	}
	// The node moves across the data boundary, so which of its edges
	// belong in the pairs set changes: take them all out under the old
	// kind and put back those that qualify under the new one.
	g.forEachEdgeLocked(i, func(k pairKey) { delete(g.pairs, k) })
	s.kind, s.attrs = n.Kind, n.Attrs
	g.forEachEdgeLocked(i, func(k pairKey) {
		if g.inPairsLocked(k.src, k.dst) {
			g.pairs[k] = struct{}{}
		}
	})
}

// forEachEdgeLocked calls fn with every edge touching slot i. A self-loop
// is reported twice.
func (g *Graph) forEachEdgeLocked(i int32, fn func(pairKey)) {
	for _, h := range g.at(i).out {
		fn(pairKey{src: i, dst: h.to, kind: h.kind})
	}
	for _, h := range g.at(i).in {
		fn(pairKey{src: h.to, dst: i, kind: h.kind})
	}
}

// newSlotLocked interns a new node, reusing a freed slot when there is one.
func (g *Graph) newSlotLocked(id string, kind NodeKind, attrs map[string]string) int32 {
	if g.index == nil {
		g.index = make(map[string]int32)
		g.pairs = make(map[pairKey]struct{})
	}
	s := slot{id: id, attrs: attrs, kind: kind}
	var i int32
	if n := len(g.free); n > 0 {
		i = g.free[n-1]
		g.free = g.free[:n-1]
		*g.at(i) = s
	} else {
		i = int32(g.slots.Len())
		g.slots.Append(s)
	}
	g.index[id] = i
	return i
}

// inPairsLocked reports whether an edge between slots a and b is kept in
// the pairs set: it is when neither endpoint is a data node.
func (g *Graph) inPairsLocked(a, b int32) bool {
	return g.at(a).kind != NodeData && g.at(b).kind != NodeData
}

// AddEdge inserts a directed edge; both endpoints must exist. Adding an
// edge that is already present changes nothing; adding a new one advances
// the graph epoch, retiring every memoized reachability set.
func (g *Graph) AddEdge(e Edge) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	src, ok := g.index[e.Src]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownNode, e.Src)
	}
	dst, ok := g.index[e.Dst]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownNode, e.Dst)
	}
	if e.Kind < 0 || e.Kind > math.MaxUint8 {
		return fmt.Errorf("audit: edge kind %d out of range", int(e.Kind))
	}
	g.addEdgeLocked(src, dst, uint8(e.Kind))
	return nil
}

// addEdgeLocked adds the edge src -> dst unless it is already present.
func (g *Graph) addEdgeLocked(src, dst int32, kind uint8) {
	if g.inPairsLocked(src, dst) {
		k := pairKey{src: src, dst: dst, kind: kind}
		if _, dup := g.pairs[k]; dup {
			return
		}
		g.pairs[k] = struct{}{}
	} else {
		// One end is a data node; both lists hold the edge, so scan the
		// shorter one.
		list, want := g.at(src).out, half{to: dst, kind: kind}
		if in := g.at(dst).in; len(in) < len(list) {
			list, want = in, half{to: src, kind: kind}
		}
		for _, h := range list {
			if h == want {
				return
			}
		}
	}
	s, d := g.at(src), g.at(dst)
	s.out = append(s.out, half{to: dst, kind: kind})
	d.in = append(d.in, half{to: src, kind: kind})
	g.edges++
	g.epoch++
}

// freeKind marks a slot whose node is being removed.
const freeKind NodeKind = -1

// RemoveNodes deletes the given nodes and every edge touching them — the
// provenance half of erasure: an erased datum must not remain queryable
// from live state (tombstoned records no longer back it, and the graph
// must agree). Their slots are released for reuse. Removal advances the
// epoch, retiring memoized reachability sets. Returns the number of nodes
// removed.
func (g *Graph) RemoveNodes(ids map[string]bool) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	var dead []int32
	for id := range ids {
		i, ok := g.index[id]
		if !ok {
			continue
		}
		dead = append(dead, i)
		g.forEachEdgeLocked(i, func(k pairKey) {
			if g.inPairsLocked(k.src, k.dst) {
				delete(g.pairs, k)
			}
		})
	}
	if len(dead) == 0 {
		return 0
	}
	for _, i := range dead {
		g.at(i).kind = freeKind
	}
	// Count the removed edges (an edge between two removed nodes once, by
	// its out half) and collect the surviving neighbours whose lists must
	// drop halves pointing at removed slots.
	touched := make(map[int32]struct{})
	for _, i := range dead {
		g.edges -= len(g.at(i).out)
		for _, h := range g.at(i).out {
			if g.at(h.to).kind != freeKind {
				touched[h.to] = struct{}{}
			}
		}
		for _, h := range g.at(i).in {
			if g.at(h.to).kind != freeKind {
				g.edges--
				touched[h.to] = struct{}{}
			}
		}
	}
	for t := range touched {
		s := g.at(t)
		s.out = g.dropFreedLocked(s.out)
		s.in = g.dropFreedLocked(s.in)
	}
	for _, i := range dead {
		delete(g.index, g.at(i).id)
		*g.at(i) = slot{kind: freeKind}
		g.free = append(g.free, i)
	}
	g.epoch++
	return len(dead)
}

// dropFreedLocked filters out the halves pointing at freed slots, keeping
// the order of the rest.
func (g *Graph) dropFreedLocked(list []half) []half {
	kept := list[:0]
	for _, h := range list {
		if g.at(h.to).kind != freeKind {
			kept = append(kept, h)
		}
	}
	return kept
}

// Node returns the node with the given ID.
func (g *Graph) Node(id string) (Node, bool) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	i, ok := g.index[id]
	if !ok {
		return Node{}, false
	}
	s := g.at(i)
	return Node{ID: s.id, Kind: s.kind, Attrs: s.attrs}, true
}

// Len returns the node count and the number of distinct edges.
func (g *Graph) Len() (nodes, edges int) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return len(g.index), g.edges
}

// Ancestry returns every node reachable from id along outgoing edges — for
// a data item: the processes that generated it, the data they used, and so
// on back to the sources. This answers "how was this file generated?". The
// first query for a node walks the history; repeats are served from the
// epoch-stamped memo until the topology changes.
func (g *Graph) Ancestry(id string) ([]string, error) {
	return g.reach(id, &g.anc, true)
}

// Descendants returns every node that transitively depends on id (walks
// incoming edges). This answers "where did this sensor's data end up?" —
// the taint/impact query behind Concern 5. Memoized like Ancestry.
func (g *Graph) Descendants(id string) ([]string, error) {
	return g.reach(id, &g.desc, false)
}

// reach serves one reachability query through the given memo, computing and
// memoizing the set on a miss. Callers receive a fresh copy, so memoized
// sets are never aliased by callers.
func (g *Graph) reach(id string, memo *reachMemo, outgoing bool) ([]string, error) {
	g.mu.RLock()
	if _, ok := g.index[id]; !ok {
		g.mu.RUnlock()
		return nil, fmt.Errorf("%w: %q", ErrUnknownNode, id)
	}
	if set, hit := memo.lookup(g.epoch, id); hit {
		g.mu.RUnlock()
		return append([]string(nil), set...), nil
	}
	g.mu.RUnlock()

	g.mu.Lock()
	defer g.mu.Unlock()
	if _, ok := g.index[id]; !ok {
		// Removed while we upgraded the lock.
		return nil, fmt.Errorf("%w: %q", ErrUnknownNode, id)
	}
	// Another goroutine may have filled the memo while we upgraded the lock.
	if set, hit := memo.lookup(g.epoch, id); hit {
		return append([]string(nil), set...), nil
	}
	set := g.walkLocked(id, outgoing)
	memo.store(g.epoch, id, set)
	return append([]string(nil), set...), nil
}

// walkLocked collects, sorted, the IDs of every node reachable from id
// (excluding id itself) over out- or in-edges. id must exist; the caller
// holds g.mu.
func (g *Graph) walkLocked(id string, outgoing bool) []string {
	start := g.index[id]
	seen := map[int32]struct{}{start: {}}
	todo := []int32{start}
	var out []string
	for len(todo) > 0 {
		n := todo[len(todo)-1]
		todo = todo[:len(todo)-1]
		adj := g.at(n).out
		if !outgoing {
			adj = g.at(n).in
		}
		for _, h := range adj {
			if _, dup := seen[h.to]; dup {
				continue
			}
			seen[h.to] = struct{}{}
			out = append(out, g.at(h.to).id)
			todo = append(todo, h.to)
		}
	}
	sort.Strings(out)
	return out
}

// PathExists reports whether dst is in src's ancestry closure.
func (g *Graph) PathExists(src, dst string) (bool, error) {
	anc, err := g.Ancestry(src)
	if err != nil {
		return false, err
	}
	for _, n := range anc {
		if n == dst {
			return true, nil
		}
	}
	return false, nil
}

// Agents returns the agents controlling any process in id's ancestry — the
// "who is responsible?" query for apportioning liability.
func (g *Graph) Agents(id string) ([]string, error) {
	anc, err := g.Ancestry(id)
	if err != nil {
		return nil, err
	}
	anc = append(anc, id)
	var out []string
	seen := make(map[string]struct{})
	g.mu.RLock()
	defer g.mu.RUnlock()
	for _, n := range anc {
		if i, ok := g.index[n]; ok && g.at(i).kind == NodeAgent {
			if _, dup := seen[n]; !dup {
				seen[n] = struct{}{}
				out = append(out, n)
			}
		}
	}
	sort.Strings(out)
	return out, nil
}

// sortedIDsLocked returns every live node ID in order; the caller holds
// g.mu.
func (g *Graph) sortedIDsLocked() []string {
	ids := make([]string, 0, len(g.index))
	for id := range g.index {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}
