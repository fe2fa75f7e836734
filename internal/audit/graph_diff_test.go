package audit

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"

	"lciot/internal/ifc"
)

// refGraph is the brute-force reference model of a Graph: a node map and
// an edge set, with reachability recomputed from scratch by fixpoint.
type refGraph struct {
	nodes map[string]Node
	edges map[Edge]bool
}

func (m *refGraph) ensure(n Node) {
	if _, ok := m.nodes[n.ID]; !ok {
		m.nodes[n.ID] = n
	}
}

func (m *refGraph) append(recs []Record) {
	for _, r := range recs {
		src, dst := string(r.Src), string(r.Dst)
		if (r.Kind != FlowAllowed && r.Kind != GateCrossing) || src == "" || dst == "" {
			continue
		}
		m.ensure(Node{ID: src, Kind: NodeProcess, Attrs: map[string]string{"ctx": r.SrcCtx.String()}})
		m.ensure(Node{ID: dst, Kind: NodeProcess, Attrs: map[string]string{"ctx": r.DstCtx.String()}})
		m.edges[Edge{Src: dst, Dst: src, Kind: EdgeInformedBy}] = true
		if r.DataID != "" {
			m.ensure(Node{ID: r.DataID, Kind: NodeData})
			m.edges[Edge{Src: src, Dst: r.DataID, Kind: EdgeUsed}] = true
			m.edges[Edge{Src: r.DataID, Dst: dst, Kind: EdgeGeneratedBy}] = true
		}
		if r.Agent != "" {
			m.ensure(Node{ID: string(r.Agent), Kind: NodeAgent})
			m.edges[Edge{Src: src, Dst: string(r.Agent), Kind: EdgeControlledBy}] = true
		}
	}
}

func (m *refGraph) remove(ids map[string]bool) (n int) {
	for id := range ids {
		if _, ok := m.nodes[id]; ok {
			delete(m.nodes, id)
			n++
		}
	}
	for e := range m.edges {
		if ids[e.Src] || ids[e.Dst] {
			delete(m.edges, e)
		}
	}
	return n
}

func (m *refGraph) reach(id string, outgoing bool) []string {
	seen := map[string]bool{id: true}
	for grew := true; grew; {
		grew = false
		for e := range m.edges {
			from, to := e.Src, e.Dst
			if !outgoing {
				from, to = to, from
			}
			if seen[from] && !seen[to] {
				seen[to], grew = true, true
			}
		}
	}
	var out []string
	for n := range seen {
		if n != id {
			out = append(out, n)
		}
	}
	sort.Strings(out)
	return out
}

// TestGraphMatchesReferenceModel runs random interleavings of every
// mutation and query against both a Graph and the reference model. The ID
// pool is small, so records repeat edges, AddNode moves nodes across the
// data/process boundary, and RemoveNodes frees slots that later nodes
// reuse.
func TestGraphMatchesReferenceModel(t *testing.T) {
	pool := []string{"d0", "d1", "d2", "d3", "d4", "p0", "p1", "p2", "p3", "a0", "a1", ""}
	kinds := []NodeKind{NodeData, NodeProcess, NodeAgent}
	events := []EventKind{FlowAllowed, FlowAllowed, GateCrossing, FlowDenied}
	ctxs := []ifc.SecurityContext{{}, ifc.MustContext([]ifc.Tag{"medical"}, nil)}
	for seed := int64(0); seed < 40; seed++ {
		r := rand.New(rand.NewSource(seed))
		pick := func() string { return pool[r.Intn(len(pool))] }
		g := &Graph{}
		m := &refGraph{nodes: map[string]Node{}, edges: map[Edge]bool{}}
		for step := 0; step < 400; step++ {
			where := fmt.Sprintf("seed %d step %d", seed, step)
			switch op := r.Intn(10); op {
			case 0, 1, 2:
				var recs []Record
				for i := r.Intn(3) + 1; i > 0; i-- {
					recs = append(recs, Record{
						Kind: events[r.Intn(len(events))], Src: ifc.EntityID(pick()), Dst: ifc.EntityID(pick()),
						DataID: pick(), Agent: ifc.PrincipalID(pick()),
						SrcCtx: ctxs[r.Intn(2)], DstCtx: ctxs[r.Intn(2)],
					})
				}
				g.Append(recs)
				m.append(recs)
			case 3:
				n := Node{ID: pick(), Kind: kinds[r.Intn(len(kinds))], Attrs: map[string]string{"step": strconv.Itoa(step)}}
				g.AddNode(n)
				m.nodes[n.ID] = n
			case 4:
				e := Edge{Src: pick(), Dst: pick(), Kind: EdgeKind(r.Intn(5) + 1)}
				_, srcOK := m.nodes[e.Src]
				_, dstOK := m.nodes[e.Dst]
				err := g.AddEdge(e)
				if srcOK && dstOK {
					if err != nil {
						t.Fatalf("%s: AddEdge(%v) = %v", where, e, err)
					}
					m.edges[e] = true
				} else if !errors.Is(err, ErrUnknownNode) {
					t.Fatalf("%s: AddEdge(%v) with a missing endpoint = %v", where, e, err)
				}
			case 5:
				ids := map[string]bool{}
				for i := r.Intn(3) + 1; i > 0; i-- {
					ids[pick()] = true
				}
				if got, want := g.RemoveNodes(ids), m.remove(ids); got != want {
					t.Fatalf("%s: RemoveNodes(%v) = %d, want %d", where, ids, got, want)
				}
				checkExportsOmit(t, where, g, ids)
			default:
				checkQueries(t, where, g, m, pick())
			}
			if nodes, edges := g.Len(); nodes != len(m.nodes) || edges != len(m.edges) {
				t.Fatalf("%s: Len = %d, %d; want %d, %d", where, nodes, edges, len(m.nodes), len(m.edges))
			}
		}
		checkExports(t, fmt.Sprintf("seed %d", seed), g, m)
		if g.slots.Len() > len(pool) {
			t.Fatalf("seed %d: node table grew to %d slots for %d distinct IDs", seed, g.slots.Len(), len(pool))
		}
	}
}

// checkQueries compares every per-node query against the model.
func checkQueries(t *testing.T, where string, g *Graph, m *refGraph, id string) {
	t.Helper()
	want, exists := m.nodes[id]
	got, ok := g.Node(id)
	if ok != exists || !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: Node(%q) = %+v, %v; want %+v, %v", where, id, got, ok, want, exists)
	}
	anc, err := g.Ancestry(id)
	desc, derr := g.Descendants(id)
	agents, aerr := g.Agents(id)
	path, perr := g.PathExists(id, "p0")
	if !exists {
		for _, err := range []error{err, derr, aerr, perr} {
			if !errors.Is(err, ErrUnknownNode) {
				t.Fatalf("%s: query on absent %q = %v", where, id, err)
			}
		}
		return
	}
	if err != nil || derr != nil || aerr != nil || perr != nil {
		t.Fatalf("%s: queries on %q: %v %v %v %v", where, id, err, derr, aerr, perr)
	}
	wantAnc := m.reach(id, true)
	if !reflect.DeepEqual(anc, wantAnc) {
		t.Fatalf("%s: Ancestry(%q) = %v, want %v", where, id, anc, wantAnc)
	}
	if want := m.reach(id, false); !reflect.DeepEqual(desc, want) {
		t.Fatalf("%s: Descendants(%q) = %v, want %v", where, id, desc, want)
	}
	var wantAgents []string
	for _, n := range append(wantAnc, id) {
		if m.nodes[n].Kind == NodeAgent {
			wantAgents = append(wantAgents, n)
		}
	}
	sort.Strings(wantAgents)
	if !reflect.DeepEqual(agents, wantAgents) {
		t.Fatalf("%s: Agents(%q) = %v, want %v", where, id, agents, wantAgents)
	}
	if want := containsString(wantAnc, "p0"); path != want {
		t.Fatalf("%s: PathExists(%q, p0) = %v, want %v", where, id, path, want)
	}
}

// checkExports compares the DOT and JSON exports against the model.
func checkExports(t *testing.T, where string, g *Graph, m *refGraph) {
	t.Helper()
	ids := make([]string, 0, len(m.nodes))
	for id := range m.nodes {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	edges := make([]Edge, 0, len(m.edges))
	for e := range m.edges {
		edges = append(edges, e)
	}
	sortEdges(edges)

	var dot strings.Builder
	dot.WriteString("digraph provenance {\n")
	for _, id := range ids {
		shape := map[NodeKind]string{NodeData: "ellipse", NodeAgent: "diamond"}[m.nodes[id].Kind]
		if shape == "" {
			shape = "box"
		}
		fmt.Fprintf(&dot, "  %q [shape=%s];\n", id, shape)
	}
	for _, e := range edges {
		fmt.Fprintf(&dot, "  %q -> %q [label=%q];\n", e.Src, e.Dst, e.Kind.String())
	}
	dot.WriteString("}\n")
	if got := g.DOT(); got != dot.String() {
		t.Fatalf("%s: DOT =\n%s\nwant\n%s", where, got, dot.String())
	}

	var exp jsonGraph
	b, err := g.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &exp); err != nil {
		t.Fatal(err)
	}
	gotIDs := make([]string, 0, len(exp.Nodes))
	for _, n := range exp.Nodes {
		want := m.nodes[n.ID]
		if n.Kind != want.Kind.String() || !reflect.DeepEqual(n.Attrs, want.Attrs) {
			t.Fatalf("%s: JSON node %+v, want %+v", where, n, want)
		}
		gotIDs = append(gotIDs, n.ID)
	}
	if !reflect.DeepEqual(gotIDs, ids) {
		t.Fatalf("%s: JSON nodes %v, want %v", where, gotIDs, ids)
	}
	gotEdges := make([]Edge, 0, len(exp.Edges))
	for _, e := range exp.Edges {
		gotEdges = append(gotEdges, Edge{Src: e.Src, Dst: e.Dst, Kind: edgeKindOf(e.Kind)})
	}
	sortEdges(gotEdges)
	if !reflect.DeepEqual(gotEdges, edges) {
		t.Fatalf("%s: JSON edges %v, want %v", where, gotEdges, edges)
	}
}

// checkExportsOmit asserts that no removed ID survives in either export.
func checkExportsOmit(t *testing.T, where string, g *Graph, removed map[string]bool) {
	t.Helper()
	b, err := g.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	dot := g.DOT()
	for id := range removed {
		if id == "" {
			continue
		}
		if q := strconv.Quote(id); strings.Contains(dot, q) || strings.Contains(string(b), q) {
			t.Fatalf("%s: removed node %q still exported:\n%s\n%s", where, id, dot, b)
		}
	}
}

func sortEdges(es []Edge) {
	sort.Slice(es, func(i, j int) bool {
		a, b := es[i], es[j]
		if a.Src != b.Src {
			return a.Src < b.Src
		}
		if a.Dst != b.Dst {
			return a.Dst < b.Dst
		}
		return a.Kind < b.Kind
	})
}

func edgeKindOf(s string) EdgeKind {
	for k := EdgeGeneratedBy; k <= EdgeDerivedFrom; k++ {
		if k.String() == s {
			return k
		}
	}
	return 0
}

// TestGraphSlotReuseUnderErasureChurn streams records with fresh DataIDs
// over a fixed set of processes and erases each batch as a retention
// sweep would: freed slots must be reused, so the node table stays
// bounded by the live node count, and no erased ID may be exported.
func TestGraphSlotReuseUnderErasureChurn(t *testing.T) {
	g := &Graph{}
	const batch = 50
	for round := 0; round < 200; round++ {
		erase := make(map[string]bool, batch)
		var recs []Record
		for i := 0; i < batch; i++ {
			id := fmt.Sprintf("dev%d/hr/%d", i%5, round*batch+i)
			erase[id] = true
			recs = append(recs, Record{
				Kind: FlowAllowed, Src: entityID("p", i%4), Dst: entityID("p", i%4+1),
				DataID: id, Agent: "hospital",
			})
		}
		g.Append(recs)
		if n := g.RemoveNodes(erase); n != batch {
			t.Fatalf("round %d: removed %d nodes, want %d", round, n, batch)
		}
	}
	// Five processes and one agent stay live.
	if nodes, _ := g.Len(); nodes != 6 {
		t.Fatalf("live nodes = %d, want 6", nodes)
	}
	if g.slots.Len() > 6+batch {
		t.Fatalf("node table grew to %d slots under churn; want <= %d", g.slots.Len(), 6+batch)
	}
	if dot := g.DOT(); strings.Contains(dot, "/hr/") {
		t.Fatalf("erased data still in DOT:\n%s", dot)
	}
	if b, _ := g.MarshalJSON(); strings.Contains(string(b), "/hr/") {
		t.Fatalf("erased data still in JSON: %s", b)
	}
}
