package audit

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"lciot/internal/ifc"
)

// BuildGraph derives a provenance graph from flow records, the paper's
// observation that "the logs generated during IFC enforcement are a natural
// source of provenance information". Each allowed flow with a DataID
// contributes: the datum (F node), the endpoint processes (P nodes), a
// used/generatedBy pair, and an informedBy edge between the processes.
// Agents attach via wasControlledBy when the record names one.
func BuildGraph(records []Record) *Graph {
	g := &Graph{}
	g.Append(records)
	return g
}

// Append ingests more flow records into an existing graph — the
// build-once/append-many path. Instead of rebuilding the whole graph when
// the audit log grows, callers derive it once with BuildGraph and Append
// each new batch; queries between batches are then served from the
// reachability memo, and only records that add an edge force a
// recomputation. The whole batch is ingested under one lock acquisition.
// A record whose nodes and edges all exist already changes nothing and
// allocates nothing: a new process node's "ctx" attribute is built only
// when the node is created.
func (g *Graph) Append(records []Record) {
	g.mu.Lock()
	defer g.mu.Unlock()
	for i := range records {
		r := &records[i]
		if r.Kind != FlowAllowed && r.Kind != GateCrossing {
			continue
		}
		if r.Src == "" || r.Dst == "" {
			continue
		}
		src := g.ensureLocked(string(r.Src), NodeProcess, &r.SrcCtx)
		dst := g.ensureLocked(string(r.Dst), NodeProcess, &r.DstCtx)
		// Process-to-process information flow.
		g.addEdgeLocked(dst, src, uint8(EdgeInformedBy))
		if r.DataID != "" {
			data := g.ensureLocked(r.DataID, NodeData, nil)
			g.addEdgeLocked(src, data, uint8(EdgeUsed))
			g.addEdgeLocked(data, dst, uint8(EdgeGeneratedBy))
		}
		if r.Agent != "" {
			agent := g.ensureLocked(string(r.Agent), NodeAgent, nil)
			g.addEdgeLocked(src, agent, uint8(EdgeControlledBy))
		}
	}
}

// ensureLocked returns id's slot, creating the node if it is absent; an
// existing node keeps its kind. A new node is labelled with its security
// context when ctx is non-nil, so the label is formatted once per node,
// not once per record.
func (g *Graph) ensureLocked(id string, kind NodeKind, ctx *ifc.SecurityContext) int32 {
	if i, ok := g.index[id]; ok {
		return i
	}
	var attrs map[string]string
	if ctx != nil {
		attrs = map[string]string{"ctx": ctx.String()}
	}
	return g.newSlotLocked(id, kind, attrs)
}

// DOT renders the graph in Graphviz format, with the Fig. 11 conventions:
// data items as ellipses, processes as boxes, agents as diamonds.
func (g *Graph) DOT() string {
	g.mu.RLock()
	defer g.mu.RUnlock()

	ids := g.sortedIDsLocked()
	var b strings.Builder
	b.WriteString("digraph provenance {\n")
	for _, id := range ids {
		shape := "box"
		switch g.at(g.index[id]).kind {
		case NodeData:
			shape = "ellipse"
		case NodeAgent:
			shape = "diamond"
		}
		fmt.Fprintf(&b, "  %q [shape=%s];\n", id, shape)
	}
	for _, src := range ids {
		edges := append([]half(nil), g.at(g.index[src]).out...)
		sort.Slice(edges, func(i, j int) bool {
			if di, dj := g.at(edges[i].to).id, g.at(edges[j].to).id; di != dj {
				return di < dj
			}
			return edges[i].kind < edges[j].kind
		})
		for _, h := range edges {
			fmt.Fprintf(&b, "  %q -> %q [label=%q];\n", src, g.at(h.to).id, EdgeKind(h.kind).String())
		}
	}
	b.WriteString("}\n")
	return b.String()
}

// jsonGraph is the export schema.
type jsonGraph struct {
	Nodes []jsonNode `json:"nodes"`
	Edges []jsonEdge `json:"edges"`
}

type jsonNode struct {
	ID    string            `json:"id"`
	Kind  string            `json:"kind"`
	Attrs map[string]string `json:"attrs,omitempty"`
}

type jsonEdge struct {
	Src  string `json:"src"`
	Dst  string `json:"dst"`
	Kind string `json:"kind"`
}

// MarshalJSON exports the graph for external tools (the paper used Neo4J
// and Cytoscape; any JSON-consuming tool works here).
func (g *Graph) MarshalJSON() ([]byte, error) {
	g.mu.RLock()
	defer g.mu.RUnlock()

	out := jsonGraph{}
	for _, id := range g.sortedIDsLocked() {
		s := g.at(g.index[id])
		out.Nodes = append(out.Nodes, jsonNode{ID: id, Kind: s.kind.String(), Attrs: s.attrs})
		for _, h := range s.out {
			out.Edges = append(out.Edges, jsonEdge{Src: id, Dst: g.at(h.to).id, Kind: EdgeKind(h.kind).String()})
		}
	}
	return json.Marshal(out)
}

// ComplianceReport summarises a log for a regulator: totals by kind, denial
// details, break-glass activations, and the erasure evidence (obligation
// actions and tombstones).
type ComplianceReport struct {
	Total       int            `json:"total"`
	ByKind      map[string]int `json:"by_kind"`
	Denials     []Record       `json:"denials,omitempty"`
	BreakGlass  []Record       `json:"break_glass,omitempty"`
	Obligations []Record       `json:"obligations,omitempty"`
	// Redacted counts chain-preserving tombstones in the log.
	Redacted    int   `json:"redacted"`
	ChainIntact bool  `json:"chain_intact"`
	FirstBadSeq int64 `json:"first_bad_seq"` // -1 when intact
}

// Report builds a compliance report over the log's retained records.
func Report(l *Log) ComplianceReport {
	rep := ComplianceReport{ByKind: make(map[string]int), FirstBadSeq: -1}
	for _, r := range l.Select(nil) {
		rep.Total++
		rep.ByKind[r.Kind.String()]++
		if r.Redacted {
			rep.Redacted++
		}
		switch r.Kind {
		case FlowDenied:
			rep.Denials = append(rep.Denials, r)
		case BreakGlass:
			rep.BreakGlass = append(rep.BreakGlass, r)
		case ObligationScheduled, ObligationExecuted, ObligationRefused, Redaction:
			rep.Obligations = append(rep.Obligations, r)
		}
	}
	bad, err := l.Verify()
	rep.ChainIntact = err == nil
	rep.FirstBadSeq = bad
	return rep
}
