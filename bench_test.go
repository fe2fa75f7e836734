// The microbenchmarks B1–B8, B11 and B15 (see DESIGN.md, "Experiments"):
// the only definition of each row, size sweeps included as sub-benchmarks.
// The paper (a vision paper) reports no absolute numbers; these rows
// substantiate its performance *claims* — principally "we have shown the
// LSM performance overhead to be minimal" (Section 8.2.1) and IFC against
// sticky policies (Section 10.2) — and expose the scaling behaviour of every
// mechanism the design depends on. Whole-path throughput, durability,
// federation and the pipeline's stage edges are measured end to end by
// e2ebench instead.
//
// Run with:
//
//	go test -run '^$' -bench . -benchmem .
//
// cmd/benchgate gates this output: allocs/op against the committed
// BENCH_*.json anchors, ns/op through paired base/head runs
// (scripts/bench-ab.sh).
package lciot_test

import (
	"fmt"
	"strconv"
	"sync"
	"testing"
	"time"

	"lciot/internal/ac"
	"lciot/internal/audit"
	"lciot/internal/cep"
	"lciot/internal/ctxmodel"
	"lciot/internal/ifc"
	"lciot/internal/msg"
	"lciot/internal/names"
	"lciot/internal/oskernel"
	"lciot/internal/policy"
	"lciot/internal/sbus"
	"lciot/internal/sticky"
	"lciot/internal/telemetry"
	"lciot/internal/transport"
)

// --- B1: kernel enforcement overhead (the paper's "minimal LSM overhead") ---

func benchKernel(b *testing.B, hooks bool) {
	k := oskernel.NewKernel("bench", audit.NewLog(nil))
	k.SetHooksEnabled(hooks)
	ctx := ifc.MustContext([]ifc.Tag{"medical", "ann"}, []ifc.Tag{"consent"})
	p := k.Boot("app", ctx)
	if err := k.Create(p.PID(), "/f"); err != nil {
		b.Fatal(err)
	}
	payload := []byte("reading")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := k.Write(p.PID(), "/f", payload); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkB1LSMOverheadHooksOff(b *testing.B) { benchKernel(b, false) }
func BenchmarkB1LSMOverheadHooksOn(b *testing.B)  { benchKernel(b, true) }

// --- B2: flow-check cost vs label size ---

func BenchmarkB2FlowCheck(b *testing.B) {
	for _, n := range []int{1, 10, 100, 1000} {
		b.Run(fmt.Sprintf("tags=%d", n), func(b *testing.B) {
			tags := make([]ifc.Tag, n)
			for i := range tags {
				tags[i] = ifc.Tag("tag-" + strconv.Itoa(i))
			}
			src := ifc.SecurityContext{Secrecy: ifc.MustLabel(tags...)}
			dst := ifc.SecurityContext{Secrecy: ifc.MustLabel(tags...).With("extra")}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if d := ifc.CheckFlow(src, dst); !d.Allowed {
					b.Fatal("flow should be allowed")
				}
			}
		})
	}
}

// BenchmarkB2FlowCheckDistinctPairs rotates through many distinct context
// pairs so most checks miss the bounded decision cache: the comparison
// against BenchmarkB2FlowCheck isolates what the cache is worth over the
// raw interned-label merge walk.
func BenchmarkB2FlowCheckDistinctPairs(b *testing.B) {
	const pairs = 4096 // well past the cache bound
	srcs := make([]ifc.SecurityContext, pairs)
	dsts := make([]ifc.SecurityContext, pairs)
	for i := range srcs {
		base := ifc.Tag("pair-" + strconv.Itoa(i))
		srcs[i] = ifc.SecurityContext{Secrecy: ifc.MustLabel(base, "medical")}
		dsts[i] = ifc.SecurityContext{Secrecy: ifc.MustLabel(base, "medical", "extra")}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if d := ifc.CheckFlow(srcs[i%pairs], dsts[i%pairs]); !d.Allowed {
			b.Fatal("flow should be allowed")
		}
	}
}

// --- B3: message-path enforcement overhead ---

// benchACL lets principal "p" do anything.
func benchACL(b *testing.B) *ac.ACL {
	b.Helper()
	var acl ac.ACL
	acl.DefineRole(ac.Role{Name: "any", Grants: []ac.Permission{{Action: "*", Resource: "**"}}})
	if err := acl.Assign(ac.Assignment{Principal: "p", Role: "any", Args: map[string]string{}}); err != nil {
		b.Fatal(err)
	}
	return &acl
}

func newBenchBus(b *testing.B, schema *msg.Schema, clearance ifc.Label) (*sbus.Bus, *sbus.Component) {
	b.Helper()
	bus := sbus.NewBus("bench", benchACL(b), nil, nil)
	b.Cleanup(func() { bus.Close() })
	ctx := ifc.MustContext([]ifc.Tag{"medical"}, nil)
	src, err := bus.Register("src", "p", ctx, nil,
		sbus.EndpointSpec{Name: "out", Dir: sbus.Source, Schema: schema})
	if err != nil {
		b.Fatal(err)
	}
	sink, err := bus.Register("dst", "p", ctx, func(*msg.Message, sbus.Delivery) {},
		sbus.EndpointSpec{Name: "in", Dir: sbus.Sink, Schema: schema})
	if err != nil {
		b.Fatal(err)
	}
	sink.SetClearance(clearance)
	if err := bus.Connect("p", "src.out", "dst.in"); err != nil {
		b.Fatal(err)
	}
	return bus, src
}

func benchSchema(withTags bool) *msg.Schema {
	sensitive := ifc.EmptyLabel
	if withTags {
		sensitive = ifc.MustLabel("pii")
	}
	return msg.MustSchema("vitals", ifc.EmptyLabel,
		msg.Field{Name: "patient", Type: msg.TString, Required: true, Secrecy: sensitive},
		msg.Field{Name: "heart-rate", Type: msg.TFloat, Required: true},
	)
}

func benchMessage() *msg.Message {
	m := msg.New("vitals").Set("patient", msg.Str("ann")).Set("heart-rate", msg.Float(72))
	m.DataID = "r"
	return m
}

func BenchmarkB3MessagePathLocal(b *testing.B) {
	_, src := newBenchBus(b, benchSchema(false), ifc.EmptyLabel)
	m := benchMessage()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if n, err := src.Publish("out", m); err != nil || n != 1 {
			b.Fatal(n, err)
		}
	}
}

func BenchmarkB3MessagePathWithQuench(b *testing.B) {
	// The receiver lacks the "pii" clearance, so every delivery quenches
	// the patient attribute.
	_, src := newBenchBus(b, benchSchema(true), ifc.EmptyLabel)
	m := benchMessage()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if n, err := src.Publish("out", m); err != nil || n != 1 {
			b.Fatal(n, err)
		}
	}
}

func BenchmarkB3MessagePathCrossBus(b *testing.B) {
	net := transport.NewMemNetwork()
	acl := benchACL(b)
	home := sbus.NewBus("home", acl, nil, nil)
	cloud := sbus.NewBus("cloud", acl, nil, nil)
	l, err := net.Listen("cloud")
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { home.Close(); cloud.Close(); l.Close() })
	go cloud.Serve(l)
	if _, err := home.LinkTo(net, "cloud"); err != nil {
		b.Fatal(err)
	}

	schema := benchSchema(false)
	ctx := ifc.MustContext([]ifc.Tag{"medical"}, nil)
	src, err := home.Register("src", "p", ctx, nil,
		sbus.EndpointSpec{Name: "out", Dir: sbus.Source, Schema: schema})
	if err != nil {
		b.Fatal(err)
	}
	delivered := make(chan struct{}, 1024)
	if _, err := cloud.Register("dst", "p", ctx,
		func(*msg.Message, sbus.Delivery) { delivered <- struct{}{} },
		sbus.EndpointSpec{Name: "in", Dir: sbus.Sink, Schema: schema}); err != nil {
		b.Fatal(err)
	}
	if err := home.Connect("p", "src.out", "cloud:dst.in"); err != nil {
		b.Fatal(err)
	}
	m := benchMessage()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := src.Publish("out", m); err != nil {
			b.Fatal(err)
		}
		<-delivered
	}
}

func BenchmarkB3CodecJSON(b *testing.B) {
	m := benchMessage()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		data, err := msg.EncodeJSON(m)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := msg.DecodeJSON(data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkB3CodecBinary(b *testing.B) {
	m := benchMessage()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		data, err := msg.EncodeBinary(m)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := msg.DecodeBinary(data); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkB3EncodeJSON and BenchmarkB3EncodeBinary price the encoders
// alone: the JSON one renders into pooled scratch, the binary one allocates
// only the returned buffer.
func BenchmarkB3EncodeJSON(b *testing.B) {
	m := benchMessage()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := msg.EncodeJSON(m); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkB3EncodeBinary(b *testing.B) {
	m := benchMessage()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := msg.EncodeBinary(m); err != nil {
			b.Fatal(err)
		}
	}
}

// --- B4: reconfiguration propagation ---

// benchReconfig times one round trip {a} -> {a,b} -> {a} of a source's
// context while every one of its fan-out channels stays legal: the sinks
// live in the *more* constrained {a,b} domain, so each SetContext
// re-evaluates all of them without tearing any down. `unaffected`
// source/sink pairs between other components must never be visited.
func benchReconfig(b *testing.B, fanout, unaffected int) {
	schema := benchSchema(false)
	bus := sbus.NewBus("bench", benchACL(b), nil, nil)
	b.Cleanup(func() { bus.Close() })
	ctxA := ifc.MustContext([]ifc.Tag{"a"}, nil)
	ctxB := ifc.MustContext([]ifc.Tag{"a", "b"}, nil)
	src, err := bus.Register("src", "p", ctxA, nil,
		sbus.EndpointSpec{Name: "out", Dir: sbus.Source, Schema: schema})
	if err != nil {
		b.Fatal(err)
	}
	if err := src.Entity().GrantPrivileges(ifc.OwnerPrivileges("a", "b")); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < fanout; i++ {
		name := "dst" + strconv.Itoa(i)
		if _, err := bus.Register(name, "p", ctxB, nil,
			sbus.EndpointSpec{Name: "in", Dir: sbus.Sink, Schema: schema}); err != nil {
			b.Fatal(err)
		}
		if err := bus.Connect("p", "src.out", name+".in"); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < unaffected; i++ {
		so, si := "so"+strconv.Itoa(i), "si"+strconv.Itoa(i)
		if _, err := bus.Register(so, "p", ctxA, nil,
			sbus.EndpointSpec{Name: "out", Dir: sbus.Source, Schema: schema}); err != nil {
			b.Fatal(err)
		}
		if _, err := bus.Register(si, "p", ctxA, nil,
			sbus.EndpointSpec{Name: "in", Dir: sbus.Sink, Schema: schema}); err != nil {
			b.Fatal(err)
		}
		if err := bus.Connect("p", so+".out", si+".in"); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := src.SetContext(ctxB); err != nil {
			b.Fatal(err)
		}
		if err := src.SetContext(ctxA); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if got, want := len(bus.Channels()), fanout+unaffected; got != want {
		b.Fatalf("channels fell to %d of %d during bench", got, want)
	}
}

// BenchmarkB4Reconfiguration scales with the changed component's own
// fan-out: inherent work, each of its channels must be re-checked.
func BenchmarkB4Reconfiguration(b *testing.B) {
	for _, fanout := range []int{1, 10, 100, 1000} {
		b.Run(fmt.Sprintf("channels=%d", fanout), func(b *testing.B) { benchReconfig(b, fanout, 0) })
	}
}

// BenchmarkB4ReconfigurationUnaffected holds the fan-out at one and adds
// channels between other components: the by-component index must keep the
// cost flat.
func BenchmarkB4ReconfigurationUnaffected(b *testing.B) {
	for _, unaffected := range []int{0, 99, 999} {
		b.Run(fmt.Sprintf("unaffected=%d", unaffected), func(b *testing.B) { benchReconfig(b, 1, unaffected) })
	}
}

// --- B5: audit ingest and provenance queries ---

func BenchmarkB5AuditAppend(b *testing.B) {
	l := audit.NewLog(nil)
	rec := audit.Record{
		Kind: audit.FlowAllowed, Layer: audit.LayerMessaging,
		Src: "a", Dst: "b", DataID: "d",
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Append(rec)
	}
}

// BenchmarkB5AuditAppendAsync measures the enforcement-path cost of an
// audit record when hashing is batched onto the background hasher: the
// number to compare against BenchmarkB5AuditAppend, whose synchronous
// chain-extend the message path no longer pays.
func BenchmarkB5AuditAppendAsync(b *testing.B) {
	l := audit.NewLog(nil)
	rec := audit.Record{
		Kind: audit.FlowAllowed, Layer: audit.LayerMessaging,
		Src: "a", Dst: "b", DataID: "d",
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.AppendAsync(rec)
	}
	l.Flush()
	b.StopTimer()
	if l.Len() != b.N {
		b.Fatalf("committed %d of %d records", l.Len(), b.N)
	}
}

func BenchmarkB5AuditVerify(b *testing.B) {
	l := audit.NewLog(nil)
	for i := 0; i < 10000; i++ {
		l.Append(audit.Record{Kind: audit.FlowAllowed, Src: "a", Dst: "b"})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if bad, err := l.Verify(); err != nil || bad != -1 {
			b.Fatal(bad, err)
		}
	}
}

func BenchmarkB5ProvenanceAncestry(b *testing.B) {
	for _, depth := range []int{10, 100, 1000} {
		b.Run(fmt.Sprintf("chain=%d", depth), func(b *testing.B) {
			l := audit.NewLog(nil)
			for i := 0; i < depth; i++ {
				l.Append(audit.Record{
					Kind:   audit.FlowAllowed,
					Src:    ifc.EntityID("proc" + strconv.Itoa(i)),
					Dst:    ifc.EntityID("proc" + strconv.Itoa(i+1)),
					DataID: "datum" + strconv.Itoa(i),
				})
			}
			g := audit.BuildGraph(l.Select(nil))
			leaf := "proc" + strconv.Itoa(depth)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := g.Ancestry(leaf); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkB5ProvenanceColdBuild is the cost of a query that follows a
// topology change: build the graph of a 1000-record chain and walk it once,
// with no memo to serve from.
func BenchmarkB5ProvenanceColdBuild(b *testing.B) {
	const depth = 1000
	l := audit.NewLog(nil)
	for i := 0; i < depth; i++ {
		l.Append(audit.Record{
			Kind:   audit.FlowAllowed,
			Src:    ifc.EntityID("proc" + strconv.Itoa(i)),
			Dst:    ifc.EntityID("proc" + strconv.Itoa(i+1)),
			DataID: "datum" + strconv.Itoa(i),
		})
	}
	records := l.Select(nil)
	leaf := "proc" + strconv.Itoa(depth)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := audit.BuildGraph(records).Ancestry(leaf); err != nil {
			b.Fatal(err)
		}
	}
}

// --- B6: global tag resolution, cold vs cached ---

func benchNamespace(b *testing.B, depth int) (*names.Resolver, ifc.Tag) {
	b.Helper()
	root := names.NewRoot()
	ns := "d0"
	for i := 1; i < depth; i++ {
		ns += "/d" + strconv.Itoa(i)
	}
	zone, err := root.DelegatePath(ns)
	if err != nil {
		b.Fatal(err)
	}
	tag := ifc.Tag(ns + "/medical")
	if err := zone.Register(names.TagRecord{Tag: tag, Owner: "o", TTL: time.Hour}); err != nil {
		b.Fatal(err)
	}
	return names.NewResolver(root), tag
}

func BenchmarkB6NameResolutionCold(b *testing.B) {
	for _, depth := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			r, tag := benchNamespace(b, depth)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r.Flush() // force the authoritative walk every time
				if _, err := r.Resolve("p", tag); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkB6NameResolutionCached(b *testing.B) {
	r, tag := benchNamespace(b, 8)
	if _, err := r.Resolve("p", tag); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Resolve("p", tag); err != nil {
			b.Fatal(err)
		}
	}
}

// --- B7: CEP throughput vs pattern count ---

func BenchmarkB7CEP(b *testing.B) {
	for _, patterns := range []int{1, 10, 100} {
		b.Run(fmt.Sprintf("patterns=%d", patterns), func(b *testing.B) {
			e := cep.NewEngine(func(cep.Detection) {})
			for i := 0; i < patterns; i++ {
				e.Register(&cep.Threshold{
					PatternName: "p" + strconv.Itoa(i),
					Match:       func(ev cep.Event) bool { return ev.Value > 1e12 }, // never fires
					Count:       3,
					Window:      time.Minute,
				})
			}
			t0 := time.Unix(0, 0)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.Feed(cep.Event{Type: "hr", Time: t0.Add(time.Duration(i) * time.Millisecond), Value: 70})
			}
		})
	}
}

// BenchmarkB7CEPTyped registers typed patterns, one subscribed to the fed
// type: the by-type index makes the cost track the matching pattern, not
// the registered count (BenchmarkB7CEP is the untyped catch-all bucket).
func BenchmarkB7CEPTyped(b *testing.B) {
	for _, patterns := range []int{1, 10, 100, 1000} {
		b.Run(fmt.Sprintf("patterns=%d", patterns), func(b *testing.B) {
			e := cep.NewEngine(func(cep.Detection) {})
			for i := 0; i < patterns; i++ {
				e.Register(&cep.Threshold{
					PatternName: "p" + strconv.Itoa(i),
					Types:       []string{"t" + strconv.Itoa(i)},
					Match:       func(ev cep.Event) bool { return ev.Value > 1e12 }, // never fires
					Count:       3,
					Window:      time.Minute,
				})
			}
			t0 := time.Unix(0, 0)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.Feed(cep.Event{Type: "t0", Time: t0.Add(time.Duration(i) * time.Millisecond), Value: 70})
			}
		})
	}
}

// --- B8: policy evaluation throughput vs rule-set size ---

func BenchmarkB8PolicyEvaluation(b *testing.B) {
	for _, rules := range []int{1, 10, 100, 1000} {
		b.Run(fmt.Sprintf("rules=%d", rules), func(b *testing.B) {
			src := ""
			for i := 0; i < rules; i++ {
				src += fmt.Sprintf(
					"rule \"r%d\" { on event \"hr\" when event.value > 1000 do alert \"x\" }\n", i)
			}
			store := ctxmodel.NewStore(nil)
			eng := policy.NewEngine(store, nil)
			eng.Load(policy.MustParse(src))
			det := cep.Detection{Pattern: "hr", Value: 70}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if errs := eng.HandleDetection(det); len(errs) != 0 {
					b.Fatal(errs)
				}
			}
		})
	}
}

// indexedRules returns n rules of which the first three trigger on "hr"
// and the rest each on a pattern of their own.
func indexedRules(n int) string {
	src := ""
	for i := 0; i < n; i++ {
		pattern := "p" + strconv.Itoa(i)
		if i < 3 {
			pattern = "hr"
		}
		src += fmt.Sprintf("rule \"r%d\" { on event %q when event.value > 1000 do alert \"x\" }\n", i, pattern)
	}
	return src
}

// BenchmarkB8PolicyDispatchIndexed loads n rules, at most three on the
// detected pattern: the trigger index evaluates only that bucket, so the
// cost tracks the matching rules, not the loaded ones.
// BenchmarkB8PolicyEvaluation puts every rule in the hot bucket, the worst
// case.
func BenchmarkB8PolicyDispatchIndexed(b *testing.B) {
	for _, rules := range []int{1, 10, 100, 1000} {
		b.Run(fmt.Sprintf("rules=%d", rules), func(b *testing.B) {
			eng := policy.NewEngine(ctxmodel.NewStore(nil), nil)
			eng.Load(policy.MustParse(indexedRules(rules)))
			det := cep.Detection{Pattern: "hr", Value: 70}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if errs := eng.HandleDetection(det); len(errs) != 0 {
					b.Fatal(errs)
				}
			}
		})
	}
}

// BenchmarkB8PolicyDispatchConcurrent has four goroutines dispatch to the
// same hot bucket of an engine with four dispatch lanes; ns/op is wall time
// over all dispatches. The snapshot read is lock-free and per-rule
// bookkeeping atomic, so the cost stays flat in the loaded rule count and
// depends on concurrency only through the host's core count.
func BenchmarkB8PolicyDispatchConcurrent(b *testing.B) {
	const workers = 4
	for _, rules := range []int{1, 10, 100, 1000} {
		b.Run(fmt.Sprintf("rules=%d", rules), func(b *testing.B) {
			eng := policy.NewEngine(ctxmodel.NewStore(nil), nil, policy.WithDispatchLanes(workers))
			eng.Load(policy.MustParse(indexedRules(rules)))
			b.ReportAllocs()
			b.ResetTimer()
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				n := b.N / workers
				if w < b.N%workers {
					n++
				}
				wg.Add(1)
				go func() {
					defer wg.Done()
					det := cep.Detection{Pattern: "hr", Value: 70}
					for i := 0; i < n; i++ {
						if errs := eng.HandleDetection(det); len(errs) != 0 {
							b.Error(errs)
							return
						}
					}
				}()
			}
			wg.Wait()
		})
	}
}

// BenchmarkB8ConflictResolution measures the marginal cost of the
// Challenge 4 machinery: N rules firing on one trigger, all claiming the
// same resource, so every evaluation resolves N-1 conflicts.
func BenchmarkB8ConflictResolution(b *testing.B) {
	for _, rules := range []int{2, 10, 100} {
		b.Run(fmt.Sprintf("conflicting=%d", rules), func(b *testing.B) {
			src := ""
			for i := 0; i < rules; i++ {
				src += fmt.Sprintf(
					"rule \"r%d\" priority %d { on event \"e\" do set mode = \"m%d\" }\n", i, i, i)
			}
			store := ctxmodel.NewStore(nil)
			eng := policy.NewEngine(store, nil,
				policy.WithConflictHandler(func(policy.Conflict) {}))
			eng.Load(policy.MustParse(src))
			det := cep.Detection{Pattern: "e"}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if errs := eng.HandleDetection(det); len(errs) != 0 {
					b.Fatal(errs)
				}
			}
		})
	}
}

func BenchmarkB8PolicyParse(b *testing.B) {
	src := `
rule "emergency-response" priority 10 {
    on event "tachycardia"
    when ctx.location == "home" and not ctx.emergency
    do set emergency = true; alert "emergency"; breakglass 30m;
       connect "a.out" -> "b.in"; actuate "s" "rate" 1
}`
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := policy.Parse(src); err != nil {
			b.Fatal(err)
		}
	}
}

// --- B11: sticky-policy baseline vs IFC enforcement ---
//
// The paper (Section 10.2) positions sticky policies as the alternative
// end-to-end control. B11 quantifies the per-datum cost difference: sticky
// pays AES-GCM plus an authority interaction per protected datum; IFC pays
// a label subset check per flow.

// b11Sizes are the payload sizes of the B11 comparison: sticky pays
// cryptography that scales with the payload, IFC a size-independent label
// check.
var b11Sizes = []int{32, 64 << 10}

func b11Payload(size int) []byte {
	data := make([]byte, size)
	for i := range data {
		data[i] = byte(i)
	}
	return data
}

func BenchmarkB11StickyProtectOpen(b *testing.B) {
	for _, size := range b11Sizes {
		b.Run(fmt.Sprintf("bytes=%d", size), func(b *testing.B) {
			auth := sticky.NewAuthority()
			data := b11Payload(size)
			pol := sticky.Policy{Text: "medical: treatment only"}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				bundle, err := auth.Seal(data, pol)
				if err != nil {
					b.Fatal(err)
				}
				if err := auth.Agree("clinic", bundle.ID); err != nil {
					b.Fatal(err)
				}
				if _, err := auth.Open("clinic", bundle); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkB11IFCProtectFlow is the IFC equivalent of "protect and hand
// over one datum": a kernel pipe write + read across the enforcement hook,
// audit included.
func BenchmarkB11IFCProtectFlow(b *testing.B) {
	for _, size := range b11Sizes {
		b.Run(fmt.Sprintf("bytes=%d", size), func(b *testing.B) {
			k := oskernel.NewKernel("bench", nil)
			ctx := ifc.MustContext([]ifc.Tag{"medical", "ann"}, nil)
			producer := k.Boot("producer", ctx)
			consumer := k.Boot("consumer", ctx)
			pipe, err := k.MkPipe(producer.PID())
			if err != nil {
				b.Fatal(err)
			}
			data := b11Payload(size)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := k.WritePipe(producer.PID(), pipe, data); err != nil {
					b.Fatal(err)
				}
				if _, err := k.ReadPipe(consumer.PID(), pipe); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- B15: the telemetry layer's own overhead ---

// BenchmarkB15Telemetry prices the telemetry layer on the publish+delivery
// path of BenchmarkB3MessagePathLocal. Every other row runs dark (the gate
// is off, as it is for every library embedder), so this is where the
// enabled cost is accounted for: dark, metrics armed, and metrics armed
// with every publish traced (the worst case; lciotd operators sample 1 in
// N). The dark contracts are pinned by deterministic tests instead of this
// row: TestDisabledInstrumentsRecordNothing (internal/telemetry) and
// TestStageSamplingDark (internal/core).
func BenchmarkB15Telemetry(b *testing.B) {
	modes := []struct {
		name        string
		arm, disarm func()
	}{
		{"mode=dark", func() {}, func() {}},
		{"mode=metrics", telemetry.Enable, telemetry.Disable},
		{"mode=tracing",
			func() { telemetry.Enable(); telemetry.SetTraceSampling(1) },
			func() { telemetry.Disable(); telemetry.SetTraceSampling(0); telemetry.ResetSpans() }},
	}
	for _, md := range modes {
		b.Run(md.name, func(b *testing.B) {
			_, src := newBenchBus(b, benchSchema(false), ifc.EmptyLabel)
			m := benchMessage()
			md.arm()
			b.Cleanup(md.disarm)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// Publish stamps the trace context onto the message; clear
				// it so a reused message does not turn every later publish
				// into a relay-path measurement.
				m.Trace = telemetry.TraceContext{}
				if _, err := src.Publish("out", m); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
