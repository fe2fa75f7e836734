package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"lciot/internal/audit"
	"lciot/internal/core"
	"lciot/internal/ifc"
	"lciot/internal/msg"
	"lciot/internal/sbus"
	"lciot/internal/transport"
)

// federated-relay: three domains, edge → hub → cloud, on an in-memory
// network with no added latency, joined by two links. Edge devices
// publish to hub forwarders that re-publish to cloud archives (two hops);
// a seeded share goes one hop to hub sinks; a seeded share carries
// residency eu toward a cloud declaring another jurisdiction and must be
// denied at hub egress. No CEP patterns, no rules, in-memory audit: the
// link writer and batching, wire encode/decode and relay re-publish do
// the work.

const (
	relayDevices    = 64
	relayDeviceHz   = 30.0
	relayForwarders = 8
	relayOneHop     = 0.20 // share of readings sent one hop to hub sinks
	relayResidency  = 0.10 // share carrying residency eu toward the cloud
	relayWindow     = 256
	relayClosedRate = 12000 // nominal closed-loop messages/s: sizes the phase's fixed work
)

// Relay message kinds.
const (
	relayTwoHop uint8 = iota
	relayOne
	relayEU
)

type relayOp struct {
	device uint16
	kind   uint8
	value  float32
}

type relayInputs struct {
	ops    []relayOp
	offset []int64
	open   [][]int32
	pool   [][]int32
	nOpen  int
}

func genRelay(seed int64, generators int, openDur, closedDur time.Duration) *relayInputs {
	rng := rand.New(rand.NewSource(seed))
	in := &relayInputs{open: make([][]int32, generators), pool: make([][]int32, generators)}
	op := func(dev int) relayOp {
		kind := relayTwoHop
		switch x := rng.Float64(); {
		case x < relayResidency:
			kind = relayEU
		case x < relayResidency+relayOneHop:
			kind = relayOne
		}
		return relayOp{device: uint16(dev), kind: kind, value: float32(rng.Intn(1000)) / 10}
	}
	type timed struct {
		at  int64
		idx int32
	}
	perGen := make([][]timed, generators)
	period := float64(time.Second) / relayDeviceHz
	for dev := 0; dev < relayDevices; dev++ {
		phase := rng.Float64() * period
		g := dev % generators
		for k := 0; ; k++ {
			at := int64(phase + float64(k)*period)
			if at >= int64(openDur) {
				break
			}
			idx := int32(len(in.ops))
			in.ops = append(in.ops, op(dev))
			in.offset = append(in.offset, at)
			perGen[g] = append(perGen[g], timed{at, idx})
		}
	}
	in.nOpen = len(in.ops)
	for g := range perGen {
		sort.Slice(perGen[g], func(i, j int) bool {
			a, b := perGen[g][i], perGen[g][j]
			return a.at < b.at || (a.at == b.at && a.idx < b.idx)
		})
		for _, t := range perGen[g] {
			in.open[g] = append(in.open[g], t.idx)
		}
	}
	perPool := budget(relayClosedRate, closedDur, generators)
	for g := 0; g < generators; g++ {
		for k := 0; len(in.pool[g]) < perPool; k++ {
			dev := g + (k%(relayDevices/generators))*generators
			idx := int32(len(in.ops))
			in.ops = append(in.ops, op(dev))
			in.pool[g] = append(in.pool[g], idx)
		}
	}
	return in
}

func (in *relayInputs) digest() string {
	h := sha256.New()
	var b [15]byte
	for i, op := range in.ops {
		binary.LittleEndian.PutUint16(b[0:], op.device)
		b[2] = op.kind
		binary.LittleEndian.PutUint32(b[3:], math.Float32bits(op.value))
		var off int64 = -1
		if i < in.nOpen {
			off = in.offset[i]
		}
		binary.LittleEndian.PutUint64(b[7:], uint64(off))
		h.Write(b[:])
	}
	for _, lists := range [][][]int32{in.open, in.pool} {
		for _, l := range lists {
			for _, idx := range l {
				binary.LittleEndian.PutUint32(b[0:], uint32(idx))
				h.Write(b[:4])
			}
			h.Write([]byte{0xff})
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

var telemetrySchema = msg.MustSchema("telemetry", ifc.EmptyLabel,
	msg.Field{Name: "seq", Type: msg.TInt, Required: true},
	msg.Field{Name: "v", Type: msg.TFloat, Required: true},
)

// relaySys is one built federation.
type relaySys struct {
	domains   []*core.Domain // edge, hub, cloud
	listeners []transport.Listener
	devs      []*sbus.Component
	euDevs    []*sbus.Component
}

func (s *relaySys) close() {
	for _, d := range s.domains {
		d.Close()
	}
	for _, l := range s.listeners {
		l.Close()
	}
}

// relayHandlers are the sink behaviours the run observes through.
type relayHandlers struct {
	archive, hubSink func(m *msg.Message)
	forward          func(fwd *sbus.Component, m *msg.Message)
}

func buildRelay(cfg config, h relayHandlers) (*relaySys, error) {
	s := &relaySys{}
	net := transport.NewMemNetwork()
	for _, spec := range []struct {
		name string
		jur  ifc.Tag
	}{{"edge", "eu"}, {"hub", "eu"}, {"cloud", "us"}} {
		d, err := core.NewDomain(spec.name, core.Options{Shards: cfg.nproc, Jurisdiction: []ifc.Tag{spec.jur}})
		if err != nil {
			s.close()
			return nil, err
		}
		s.domains = append(s.domains, d)
	}
	edge, hub, cloud := s.domains[0], s.domains[1], s.domains[2]
	for _, d := range []*core.Domain{hub, cloud} {
		l, err := net.Listen(d.Name())
		if err != nil {
			s.close()
			return nil, err
		}
		s.listeners = append(s.listeners, l)
		go d.Serve(l)
	}
	if _, err := edge.LinkPeer(net, "hub", 5*time.Second); err != nil {
		s.close()
		return nil, err
	}
	if _, err := hub.LinkPeer(net, "cloud", 5*time.Second); err != nil {
		s.close()
		return nil, err
	}
	by := core.PolicyEnginePrincipal
	ctx := ifc.MustContext([]ifc.Tag{"fleet"}, nil)
	euCtx := ctx
	euCtx.Jurisdiction = ifc.MustLabel("eu")
	sink := func(name string) sbus.EndpointSpec {
		return sbus.EndpointSpec{Name: name, Dir: sbus.Sink, Schema: telemetrySchema}
	}
	source := func(name string) sbus.EndpointSpec {
		return sbus.EndpointSpec{Name: name, Dir: sbus.Source, Schema: telemetrySchema}
	}
	fail := func(err error) (*relaySys, error) {
		s.close()
		return nil, err
	}
	for f := 0; f < relayForwarders; f++ {
		if _, err := cloud.Bus().Register(fmt.Sprintf("archive-%d", f), by, ctx,
			func(m *msg.Message, _ sbus.Delivery) { h.archive(m) }, sink("in")); err != nil {
			return fail(err)
		}
		if _, err := hub.Bus().Register(fmt.Sprintf("hsink-%d", f), by, ctx,
			func(m *msg.Message, _ sbus.Delivery) { h.hubSink(m) }, sink("in")); err != nil {
			return fail(err)
		}
		for _, name := range []string{fmt.Sprintf("fwd-%d", f), fmt.Sprintf("fwdeu-%d", f)} {
			var fwd *sbus.Component
			c, err := hub.Bus().Register(name, by, ctx,
				func(m *msg.Message, _ sbus.Delivery) { h.forward(fwd, m) }, sink("in"), source("out"))
			if err != nil {
				return fail(err)
			}
			fwd = c
			if err := hub.Bus().Connect(by, name+".out", fmt.Sprintf("cloud:archive-%d.in", f)); err != nil {
				return fail(err)
			}
		}
		// The eu forwarder's data becomes residency-constrained after its
		// channel to the cloud exists, so the per-message egress gate is
		// what stops it.
		if err := hub.Bus().SetComponentContext(by, fmt.Sprintf("fwdeu-%d", f), euCtx); err != nil {
			return fail(err)
		}
	}
	for k := 0; k < relayDevices; k++ {
		f := k % relayForwarders
		dev, err := edge.Bus().Register(fmt.Sprintf("dev-%d", k), by, ctx, nil, source("two"), source("one"))
		if err != nil {
			return fail(err)
		}
		eu, err := edge.Bus().Register(fmt.Sprintf("eudev-%d", k), by, euCtx, nil, source("two"))
		if err != nil {
			return fail(err)
		}
		s.devs = append(s.devs, dev)
		s.euDevs = append(s.euDevs, eu)
		for _, c := range [][2]string{
			{fmt.Sprintf("dev-%d.two", k), fmt.Sprintf("hub:fwd-%d.in", f)},
			{fmt.Sprintf("dev-%d.one", k), fmt.Sprintf("hub:hsink-%d.in", f)},
			{fmt.Sprintf("eudev-%d.two", k), fmt.Sprintf("hub:fwdeu-%d.in", f)},
		} {
			if err := edge.Bus().Connect(by, c[0], c[1]); err != nil {
				return fail(err)
			}
		}
	}
	return s, nil
}

func runRelay(cfg config) (*result, error) {
	res := newResult()
	gens := cfg.nproc
	in := genRelay(cfg.seed, gens, cfg.openDur(), cfg.closedTotal())
	n := len(in.ops)
	res.facts["input_digest"] = in.digest()
	res.facts["messages_generated"] = n
	res.facts["generators"] = gens
	res.facts["shards"] = cfg.nproc
	res.facts["links"] = 2
	res.facts["offered_rate_mps"] = float64(in.nOpen) / cfg.openDur().Seconds()
	res.facts["closed_window_per_generator"] = relayWindow

	t := newTracker(n, gens, relayWindow)
	finalDeliv := make([]int32, n)
	finalAllowed := make([]int32, n)
	denied := make([]int32, n)
	var records, deniedN, unexpectedDenied atomic.Int64
	var tr *tracer
	if cfg.traced {
		tr = newTracer(6 * n)
	}
	pubSpan := make([]int32, n)
	goroutinesBefore := runtime.NumGoroutine()

	final := func(name string) func(m *msg.Message) {
		return func(m *msg.Message) {
			idx := int32(m.Attrs["seq"].Int)
			sp := tr.begin(name, pubSpan[idx], idx)
			atomic.AddInt32(&finalDeliv[idx], 1)
			t.markDelivered(int(idx))
			tr.end(sp)
		}
	}
	h := relayHandlers{
		archive: final("sink.archive"),
		hubSink: final("sink.hub"),
		forward: func(fwd *sbus.Component, m *msg.Message) {
			idx := int32(m.Attrs["seq"].Int)
			sp := tr.begin("sink.forwarder", pubSpan[idx], idx)
			rp := tr.begin("relay.republish", sp, idx)
			_, _ = fwd.Publish("out", m)
			tr.end(rp)
			tr.end(sp)
		},
	}
	sys, setup, setupCPU, err := timedSetups(setupReps(cfg), func(int) error { return nil },
		func(int) (*relaySys, error) { return buildRelay(cfg, h) },
		func(s *relaySys, _ int) { s.close() })
	if err != nil {
		return nil, fmt.Errorf("relay set-up: %w", err)
	}
	res.e2e["setup_s"] = setup
	res.e2e["setup_cpu_s"] = setupCPU
	edge, hub, cloud := sys.domains[0], sys.domains[1], sys.domains[2]
	heapBase := liveHeapMB()

	// Evidence is the final domain's record committed to its chain (the
	// audit trail is in memory here), or the hub's denial for eu data.
	for _, d := range sys.domains {
		d.Log().AddSink(func(audit.Record) { records.Add(1) })
	}
	cloud.Log().AddSink(func(r audit.Record) {
		if r.Kind == audit.FlowAllowed && strings.HasPrefix(string(r.Dst), "cloud:archive-") {
			if idx, ok := idxOf(r.DataID); ok && int(idx) < n {
				finalAllowed[idx]++
				t.markEvidence(int(idx), nowNs())
			}
		} else if r.Kind == audit.FlowDenied {
			unexpectedDenied.Add(1)
		}
	})
	hub.Log().AddSink(func(r audit.Record) {
		switch r.Kind {
		case audit.FlowAllowed:
			if strings.HasPrefix(string(r.Dst), "hub:hsink-") {
				if idx, ok := idxOf(r.DataID); ok && int(idx) < n {
					finalAllowed[idx]++
					t.markEvidence(int(idx), nowNs())
				}
			}
		case audit.FlowDenied:
			idx, ok := idxOf(r.DataID)
			if !ok || int(idx) >= n || in.ops[idx].kind != relayEU {
				unexpectedDenied.Add(1)
				return
			}
			denied[idx]++
			deniedN.Add(1)
			t.markEvidence(int(idx), nowNs())
		}
	})
	edge.Log().AddSink(func(r audit.Record) {
		if r.Kind == audit.FlowDenied {
			unexpectedDenied.Add(1)
		}
	})

	var pubFailed, sent atomic.Int64
	fire := func(g int, idx int32, window uint8, due int64) {
		op := in.ops[idx]
		conds := int32(2)
		if op.kind == relayEU {
			conds = 1
		}
		t.arm(int(idx), window, due, conds)
		m := msg.New("telemetry").Set("seq", msg.Int(int64(idx))).Set("v", msg.Float(float64(op.value)))
		m.DataID = "r/" + strconv.Itoa(int(idx))
		src, ep := sys.devs[op.device], "two"
		switch op.kind {
		case relayOne:
			ep = "one"
		case relayEU:
			src = sys.euDevs[op.device]
		}
		sp := tr.begin("sbus.publish", 0, idx)
		pubSpan[idx] = sp
		delivered, err := src.Publish(ep, m)
		tr.end(sp)
		sent.Add(1)
		if err != nil || delivered != 1 {
			pubFailed.Add(1)
			t.abandon(int(idx))
		}
	}
	cursor := make([]int, gens)
	closedStep := func(g int, abort <-chan struct{}) bool {
		if cursor[g] >= len(in.pool[g]) {
			return false
		}
		idx := in.pool[g][cursor[g]]
		cursor[g]++
		if !t.acquire(g, abort) {
			return false
		}
		fire(g, idx, uint8(g), nowNs())
		return true
	}

	records0, denied0 := records.Load(), deniedN.Load()
	var layerRecords, residencyDenied int64
	m := measure(cfg, plan{
		t: t, tr: tr, open: in.open, offset: in.offset,
		fire: func(g int, idx int32, due int64) { fire(g, idx, noWindow, due) },
		closed: func(dur time.Duration) (float64, int, bool) {
			return closedPhase(t, gens, budget(relayClosedRate, dur, gens), dur, closedStep)
		},
		sent:  func() int { return int(sent.Load()) },
		buses: []*sbus.Bus{edge.Bus(), hub.Bus(), cloud.Bus()},
		log:   hub.Log(), domain: hub,
		snapshot: func() {
			layerRecords, residencyDenied = records.Load()-records0, deniedN.Load()-denied0
		},
		heapBase: heapBase,
	})
	for _, d := range sys.domains {
		d.Log().Flush()
	}

	var openAllowed []int32
	for g := range in.open {
		for _, idx := range in.open[g] {
			if in.ops[idx].kind != relayEU {
				openAllowed = append(openAllowed, idx)
			}
		}
	}
	putLatency(res.e2e, t.latencies(openAllowed, t.delivered), "deliver", 1e3, "us")
	putLatency(res.e2e, t.latencies(openAllowed, t.evidence), "evidence", 1e6, "ms")

	o := &res.oracles
	chains := map[string]chain{}
	for _, d := range sys.domains {
		chains[d.Name()+" log"] = d.Log()
	}
	o.check(oracleChain, verifyChains(chains))
	o.check(oracleDenied, deniedNeverDelivered(denied, finalDeliv))
	armed := func(i int) bool { return t.due[i] != 0 }
	o.check(oracleExactlyOnce, exactlyOnce(finalAllowed, finalDeliv, func(i int) bool {
		return armed(i) && in.ops[i].kind != relayEU
	}))
	undelivered := 0
	for i := range in.ops {
		if !armed(i) {
			continue
		}
		if in.ops[i].kind == relayEU {
			if denied[i] != 1 {
				o.check(oracleDenied, fmt.Errorf("residency-constrained message %d denied %d times at hub egress", i, denied[i]))
				break
			}
		} else if finalDeliv[i] == 0 {
			undelivered++
		}
	}
	res.attempted = int(sent.Load())
	res.failed = int(pubFailed.Load()) + undelivered + int(unexpectedDenied.Load())

	lg := res.layers
	putLatency(lg, spanDurations(m.spans, "relay.republish"), "relay.republish", 1e3, "us")
	lg["ifc.denied"] = metric{Value: float64(residencyDenied), Unit: "count"}
	lg["link.residency_denied"] = metric{Value: float64(residencyDenied), Unit: "count"}
	lg["cep.detections"] = metric{Value: m.tel1.count("stage_deliver_detect_ns") - m.tel0.count("stage_deliver_detect_ns"), Unit: "count"}
	lg["policy.fired"] = metric{Value: 0, Unit: "count"}
	lg["audit.records_per_msg"] = metric{Value: ratio(float64(layerRecords), float64(m.msgs)), Unit: "ratio"}
	lg["store.durable_lag_max"] = metric{Value: 0, Unit: "count"}
	lg["store.segments"] = metric{Value: 0, Unit: "count"}
	lg["core.sweep_executed"] = metric{Value: 0, Unit: "count"}
	m.finish(cfg, res, goroutinesBefore, sys.close, sys.domains...)
	return res, nil
}
