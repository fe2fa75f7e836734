package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"lciot/internal/audit"
	"lciot/internal/cep"
	"lciot/internal/core"
	"lciot/internal/ctxmodel"
	"lciot/internal/ifc"
	"lciot/internal/msg"
	"lciot/internal/sbus"
)

// ward-pipeline: the paper's Fig. 7 hospital ward at scale on one durable
// domain. Every patient device feeds a monitor sink whose handler drives
// CEP; per-patient tachycardia/calm patterns fire guarded rules that
// connect the device to the emergency team and disconnect it again, so
// policy-driven writes to the routing snapshot run beside publishes. A
// seeded share of readings goes to a research sink without clearance for
// the identified-vitals type, exercising the delivery-time deny path.

const (
	wardPatients   = 256
	wardEpisodic   = 128  // patients cycling through episodes
	wardEpisodicHz = 10.0 // reading rate of an episodic patient
	wardQuietHz    = 5.0  // reading rate of the other patients
	wardResearch   = 0.03 // share of readings sent to the research sink
	wardRules      = 1000 // armed rules, hot and cold
	wardWindow     = 256  // closed-loop messages in flight per generator
	wardClosedRate = 8000 // nominal closed-loop messages/s: sizes the phase's fixed work
	wardTachyHR    = 140.0
	wardSettleLo   = 100.0
	wardSettleHi   = 110.0
)

// A wardOp is one reading: the patient, its heart rate, and whether it is
// sent to the research sink (and so denied) instead of the monitor.
type wardOp struct {
	patient  uint16
	hr       float32
	research bool
}

// wardInputs is everything the generator produces before timing starts.
type wardInputs struct {
	ops    []wardOp
	offset []int64   // open-loop due offsets from phase start, ns
	open   [][]int32 // per generator, in due order
	pool   [][]int32 // closed-loop inputs per generator, in send order
	nOpen  int
}

// patientStream yields one patient's readings: quiet patients stay in the
// normal band; episodic ones cycle normal → 3 tachycardic → 3 settling →
// normal, with seeded run lengths.
type patientStream struct {
	rng      *rand.Rand
	episodic bool
	cycle    []float32
	pos      int
}

func (s *patientStream) next() float32 {
	normal := func() float32 { return float32(60 + s.rng.Intn(35)) }
	if !s.episodic {
		return normal()
	}
	if s.pos == len(s.cycle) {
		s.cycle = s.cycle[:0]
		for i := 1 + s.rng.Intn(4); i > 0; i-- {
			s.cycle = append(s.cycle, normal())
		}
		for i := 0; i < 3; i++ {
			s.cycle = append(s.cycle, float32(wardTachyHR+float64(s.rng.Intn(30))))
		}
		for i := 0; i < 3; i++ {
			s.cycle = append(s.cycle, float32(wardSettleLo+float64(s.rng.Intn(int(wardSettleHi-wardSettleLo)))))
		}
		for i := 1 + s.rng.Intn(4); i > 0; i-- {
			s.cycle = append(s.cycle, normal())
		}
		s.pos = 0
	}
	v := s.cycle[s.pos]
	s.pos++
	return v
}

// genWard builds the ward inputs for a seed: an open-loop schedule of
// openDur at the patients' fixed reading rates, then per-generator
// closed-loop pools continuing each patient's stream.
func genWard(seed int64, generators int, openDur, closedDur time.Duration) *wardInputs {
	rng := rand.New(rand.NewSource(seed))
	streams := make([]*patientStream, wardPatients)
	// Which patients are episodic is seeded too.
	perm := rng.Perm(wardPatients)
	for i, p := range perm {
		streams[p] = &patientStream{rng: rand.New(rand.NewSource(rng.Int63())), episodic: i < wardEpisodic}
	}
	in := &wardInputs{open: make([][]int32, generators), pool: make([][]int32, generators)}
	type timed struct {
		at  int64
		idx int32
	}
	perGen := make([][]timed, generators)
	for p := 0; p < wardPatients; p++ {
		hz := wardQuietHz
		if streams[p].episodic {
			hz = wardEpisodicHz
		}
		period := float64(time.Second) / hz
		phase := rng.Float64() * period
		g := p % generators
		for k := 0; ; k++ {
			at := int64(phase + float64(k)*period)
			if at >= int64(openDur) {
				break
			}
			idx := int32(len(in.ops))
			in.ops = append(in.ops, wardOp{patient: uint16(p), hr: streams[p].next(), research: rng.Float64() < wardResearch})
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
	// Closed-loop pools: round-robin over each generator's patients.
	perPool := budget(wardClosedRate, closedDur, generators)
	for g := 0; g < generators; g++ {
		for k := 0; len(in.pool[g]) < perPool; k++ {
			p := g + (k%((wardPatients+generators-1-g)/generators))*generators
			if p >= wardPatients {
				continue
			}
			idx := int32(len(in.ops))
			in.ops = append(in.ops, wardOp{patient: uint16(p), hr: streams[p].next(), research: rng.Float64() < wardResearch})
			in.pool[g] = append(in.pool[g], idx)
		}
	}
	return in
}

// digest hashes the generated inputs, so runs can show which stream they
// measured.
func (in *wardInputs) digest() string {
	h := sha256.New()
	var b [16]byte
	for i, op := range in.ops {
		binary.LittleEndian.PutUint16(b[0:], op.patient)
		binary.LittleEndian.PutUint32(b[2:], math.Float32bits(op.hr))
		b[6] = 0
		if op.research {
			b[6] = 1
		}
		var off int64 = -1
		if i < in.nOpen {
			off = in.offset[i]
		}
		binary.LittleEndian.PutUint64(b[7:], uint64(off))
		h.Write(b[:15])
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

// wardReference replays one patient's monitor-bound readings, in send
// order, through the tachycardia/calm threshold patterns (3 matching
// readings each) and the guarded rules. It returns the readings whose
// detection fired the connect rule, and the counts of detections and
// disconnect firings.
func wardReference(ops []wardOp, order []int32) (fires []int32, detections, disconnects int) {
	tachy, calm := 0, 0
	emergency := false
	for _, idx := range order {
		op := ops[idx]
		if op.research {
			continue
		}
		hr := float64(op.hr)
		if hr >= wardTachyHR {
			if tachy++; tachy == 3 {
				tachy = 0
				detections++
				if !emergency {
					emergency = true
					fires = append(fires, idx)
				}
			}
		}
		if hr >= wardSettleLo && hr < wardSettleHi {
			if calm++; calm == 3 {
				calm = 0
				detections++
				if emergency {
					emergency = false
					disconnects++
				}
			}
		}
	}
	return fires, detections, disconnects
}

// wardPolicy is the armed rule set: per patient a guarded emergency rule
// and its undo, and cold rules on patterns no detection names.
func wardPolicy() string {
	var b strings.Builder
	n := 0
	for p := 0; p < wardPatients; p++ {
		fmt.Fprintf(&b, "rule \"tachy-%d\" { on event \"tachy-%d\" when not ctx.emergency_%d do set emergency_%d = true; connect \"dev-%d.out\" -> \"er-team.in\"; alert \"p%d\" }\n", p, p, p, p, p, p)
		fmt.Fprintf(&b, "rule \"calm-%d\" { on event \"calm-%d\" when ctx.emergency_%d do set emergency_%d = false; disconnect \"dev-%d.out\" -> \"er-team.in\" }\n", p, p, p, p, p)
		n += 2
	}
	for ; n < wardRules; n++ {
		fmt.Fprintf(&b, "rule \"cold-%d\" { on event \"cold-%d\" when event.value > 1000 do alert \"cold\" }\n", n, n)
	}
	return b.String()
}

var (
	vitalsSchema = msg.MustSchema("vitals", ifc.EmptyLabel,
		msg.Field{Name: "seq", Type: msg.TInt, Required: true},
		msg.Field{Name: "hr", Type: msg.TFloat, Required: true},
	)
	// identifiedSchema carries a type tag the research sink has no
	// clearance for: every delivery on it is denied at delivery time.
	identifiedSchema = msg.MustSchema("vitals-id", ifc.MustLabel("identified"),
		msg.Field{Name: "seq", Type: msg.TInt, Required: true},
		msg.Field{Name: "hr", Type: msg.TFloat, Required: true},
	)
)

// wardObs holds what the sinks and the audit trail observed per message.
type wardObs struct {
	monDeliv, erDeliv, resDeliv   []int32 // sink handler entries (atomic adds)
	monAllowed, erAllowed, denied []int32 // audit records (single sink goroutine)
	connects                      []int
	unexpectedDenied, refused     int
	records, deniedN              atomic.Int64 // read mid-run by the per-layer snapshot
	alertMu                       sync.Mutex
	alerts                        [][]int64 // per patient, OnAlert times
}

// wardSys is one built ward domain.
type wardSys struct {
	d    *core.Domain
	devs []*sbus.Component
}

// buildWard is the timed set-up: domain with DataDir, policy load,
// registration, channels, patterns and context.
func buildWard(cfg config, dataDir string, onAlert func(string), handlers func(d *core.Domain, p int) sbus.Handler,
	erH, resH sbus.Handler) (*wardSys, error) {
	d, err := core.NewDomain("ward", core.Options{DataDir: dataDir, Shards: cfg.nproc, OnAlert: onAlert})
	if err != nil {
		return nil, err
	}
	if err := d.LoadPolicy(wardPolicy()); err != nil {
		d.Close()
		return nil, err
	}
	bus := d.Bus()
	by := core.PolicyEnginePrincipal
	ctx := ifc.MustContext([]ifc.Tag{"medical"}, nil)
	if _, err := bus.Register("er-team", by, ctx, erH, sbus.EndpointSpec{Name: "in", Dir: sbus.Sink, Schema: vitalsSchema}); err != nil {
		d.Close()
		return nil, err
	}
	if _, err := bus.Register("research", by, ctx, resH, sbus.EndpointSpec{Name: "in", Dir: sbus.Sink, Schema: identifiedSchema}); err != nil {
		d.Close()
		return nil, err
	}
	s := &wardSys{d: d, devs: make([]*sbus.Component, wardPatients)}
	for p := 0; p < wardPatients; p++ {
		dev, mon := fmt.Sprintf("dev-%d", p), fmt.Sprintf("mon-%d", p)
		c, err := bus.Register(dev, by, ctx, nil,
			sbus.EndpointSpec{Name: "out", Dir: sbus.Source, Schema: vitalsSchema},
			sbus.EndpointSpec{Name: "research", Dir: sbus.Source, Schema: identifiedSchema})
		if err != nil {
			d.Close()
			return nil, err
		}
		s.devs[p] = c
		if _, err := bus.Register(mon, by, ctx, handlers(d, p), sbus.EndpointSpec{Name: "in", Dir: sbus.Sink, Schema: vitalsSchema}); err != nil {
			d.Close()
			return nil, err
		}
		if err := bus.Connect(by, dev+".out", mon+".in"); err != nil {
			d.Close()
			return nil, err
		}
		if err := bus.Connect(by, dev+".research", "research.in"); err != nil {
			d.Close()
			return nil, err
		}
		d.RegisterPattern(&cep.Threshold{PatternName: fmt.Sprintf("tachy-%d", p), Sources: []string{mon},
			Match: func(e cep.Event) bool { return e.Value >= wardTachyHR }, Count: 3, Window: time.Hour})
		d.RegisterPattern(&cep.Threshold{PatternName: fmt.Sprintf("calm-%d", p), Sources: []string{mon},
			Match: func(e cep.Event) bool { return e.Value >= wardSettleLo && e.Value < wardSettleHi }, Count: 3, Window: time.Hour})
		d.Store().Set(fmt.Sprintf("emergency_%d", p), ctxmodel.Bool(false))
	}
	return s, nil
}

func runWard(cfg config) (*result, error) {
	res := newResult()
	gens := cfg.nproc
	in := genWard(cfg.seed, gens, cfg.openDur(), cfg.closedTotal())
	n := len(in.ops)
	res.facts["input_digest"] = in.digest()
	res.facts["messages_generated"] = n
	res.facts["generators"] = gens
	res.facts["shards"] = cfg.nproc
	res.facts["offered_rate_mps"] = float64(in.nOpen) / cfg.openDur().Seconds()
	res.facts["closed_window_per_generator"] = wardWindow

	t := newTracker(n, gens, wardWindow)
	obs := &wardObs{
		monDeliv: make([]int32, n), erDeliv: make([]int32, n), resDeliv: make([]int32, n),
		monAllowed: make([]int32, n), erAllowed: make([]int32, n), denied: make([]int32, n),
		connects: make([]int, wardPatients), alerts: make([][]int64, wardPatients),
	}
	var tr *tracer
	if cfg.traced {
		tr = newTracer(8 * n)
	}
	pubSpan := make([]int32, n)
	published := make([][]int32, gens)
	for g := range published {
		published[g] = make([]int32, 0, len(in.open[g])+len(in.pool[g]))
	}
	goroutinesBefore := runtime.NumGoroutine()

	onAlert := func(text string) {
		p, err := strconv.Atoi(strings.TrimPrefix(text, "p"))
		if err != nil || p < 0 || p >= wardPatients {
			return
		}
		now := nowNs()
		obs.alertMu.Lock()
		obs.alerts[p] = append(obs.alerts[p], now)
		obs.alertMu.Unlock()
	}
	monitor := func(d *core.Domain, p int) sbus.Handler {
		src := fmt.Sprintf("mon-%d", p)
		return func(m *msg.Message, _ sbus.Delivery) {
			idx := int32(m.Attrs["seq"].Int)
			sp := tr.begin("sink.monitor", pubSpan[idx], idx)
			atomic.AddInt32(&obs.monDeliv[idx], 1)
			t.markDelivered(int(idx))
			fs := tr.begin("cep.feed", sp, idx)
			d.FeedEvent(cep.Event{Type: "hr", Source: src, Time: time.Now(), Value: m.Attrs["hr"].Float, Stage: m.Stage})
			tr.end(fs)
			tr.end(sp)
		}
	}
	erH := func(m *msg.Message, _ sbus.Delivery) { atomic.AddInt32(&obs.erDeliv[m.Attrs["seq"].Int], 1) }
	resH := func(m *msg.Message, _ sbus.Delivery) { atomic.AddInt32(&obs.resDeliv[m.Attrs["seq"].Int], 1) }

	sys, setup, setupCPU, err := timedSetups(setupReps(cfg), func(int) error { return nil }, func(r int) (*wardSys, error) {
		return buildWard(cfg, fmt.Sprintf("%s/ward-%d", cfg.dir, r), onAlert, monitor, erH, resH)
	}, func(s *wardSys, r int) {
		s.d.Close()
		_ = os.RemoveAll(fmt.Sprintf("%s/ward-%d", cfg.dir, r))
	})
	if err != nil {
		return nil, fmt.Errorf("ward set-up: %w", err)
	}
	res.e2e["setup_s"] = setup
	res.e2e["setup_cpu_s"] = setupCPU
	d := sys.d
	heapBase := liveHeapMB()

	watch := startDurableWatch(d.AuditStore().WAL(), t, cfg.traced)
	monPrefix, erTeam, research := ifc.EntityID("ward:mon-"), ifc.EntityID("ward:er-team"), ifc.EntityID("ward:research")
	d.Log().AddSink(func(r audit.Record) {
		obs.records.Add(1)
		switch r.Kind {
		case audit.FlowAllowed:
			idx, ok := idxOf(r.DataID)
			if !ok || int(idx) >= n {
				return
			}
			switch {
			case r.Dst == erTeam:
				obs.erAllowed[idx]++
			case strings.HasPrefix(string(r.Dst), string(monPrefix)):
				obs.monAllowed[idx]++
				watch.push(r.Seq, idx)
			}
		case audit.FlowDenied:
			idx, ok := idxOf(r.DataID)
			if !ok || int(idx) >= n {
				obs.unexpectedDenied++
				return
			}
			obs.denied[idx]++
			obs.deniedN.Add(1)
			if r.Dst == research && in.ops[idx].research {
				watch.push(r.Seq, idx)
			} else {
				obs.unexpectedDenied++
			}
		case audit.Reconfiguration:
			if r.Dst == erTeam && r.Note == "channel established" {
				if p, err := strconv.Atoi(strings.TrimPrefix(string(r.Src), "ward:dev-")); err == nil && p < wardPatients {
					obs.connects[p]++
				}
			}
		case audit.ObligationRefused:
			obs.refused++
		}
	})

	var pubFailed, sent atomic.Int64
	fire := func(g int, idx int32, window uint8, due int64) {
		op := in.ops[idx]
		conds := int32(2) // delivered + evidence durable
		if op.research {
			conds = 1 // denial evidence durable
		}
		t.arm(int(idx), window, due, conds)
		m := msg.New("vitals").Set("seq", msg.Int(int64(idx))).Set("hr", msg.Float(float64(op.hr)))
		m.DataID = "w/" + strconv.Itoa(int(idx))
		ep := "out"
		if op.research {
			m.Type = "vitals-id"
			ep = "research"
		}
		sp := tr.begin("sbus.publish", 0, idx)
		pubSpan[idx] = sp
		_, err := sys.devs[op.patient].Publish(ep, m)
		tr.end(sp)
		t.pubEnd[idx] = nowNs()
		published[g] = append(published[g], idx)
		sent.Add(1)
		if err != nil {
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
	fired0, records0, denied0 := firedTotal(d), obs.records.Load(), obs.deniedN.Load()
	var fired, records, denied int64
	m := measure(cfg, plan{
		t: t, tr: tr, open: in.open, offset: in.offset,
		fire: func(g int, idx int32, due int64) { fire(g, idx, noWindow, due) },
		closed: func(dur time.Duration) (float64, int, bool) {
			return closedPhase(t, gens, budget(wardClosedRate, dur, gens), dur, closedStep)
		},
		sent:  func() int { return int(sent.Load()) },
		buses: []*sbus.Bus{d.Bus()},
		log:   d.Log(), store: d.AuditStore(), domain: d,
		snapshot: func() {
			fired = int64(firedTotal(d) - fired0)
			records, denied = obs.records.Load()-records0, obs.deniedN.Load()-denied0
		},
		heapBase: heapBase,
	})
	d.Log().Flush()
	watch.close()

	// End-to-end metrics from the open loop.
	var openAllowed, openIdx []int32
	for g := range in.open {
		for _, idx := range in.open[g] {
			openIdx = append(openIdx, idx)
			if !in.ops[idx].research {
				openAllowed = append(openAllowed, idx)
			}
		}
	}
	putLatency(res.e2e, t.latencies(openAllowed, t.delivered), "deliver", 1e3, "us")
	putLatency(res.e2e, t.latencies(openAllowed, t.evidence), "evidence", 1e6, "ms")

	// Reference replay: per patient, the monitor-bound readings in send
	// order give the expected rule firings.
	order := make([][]int32, wardPatients)
	for g := range published {
		for _, idx := range published[g] {
			p := in.ops[idx].patient
			order[p] = append(order[p], idx)
		}
	}
	wantFires := make([]int, wardPatients)
	gotAlerts := make([]int, wardPatients)
	var reconfig samples
	episodes, refDetections, refDisconnects := 0, 0, 0
	for p := 0; p < wardPatients; p++ {
		fires, det, disc := wardReference(in.ops, order[p])
		wantFires[p] = len(fires)
		gotAlerts[p] = len(obs.alerts[p])
		refDetections += det
		refDisconnects += disc
		episodes += len(fires)
		if len(fires) == len(obs.alerts[p]) {
			for k, idx := range fires {
				if int(idx) < in.nOpen {
					reconfig = append(reconfig, obs.alerts[p][k]-t.due[idx])
				}
			}
		}
	}
	reconfig.put(res.e2e, "reconfig_p50_ms", 0.50, 1e6, "ms")
	reconfig.put(res.e2e, "reconfig_p99_ms", 0.99, 1e6, "ms")
	res.facts["episodes"] = episodes
	res.facts["open_loop_episodes"] = len(reconfig)
	res.facts["reference_detections"] = refDetections
	res.facts["reference_disconnects"] = refDisconnects

	// Oracles.
	o := &res.oracles
	o.check(oracleChain, verifyChains(map[string]chain{"ward log": d.Log(), "ward store": d.AuditStore()}))
	o.check(oracleDenied, deniedNeverDelivered(obs.denied, obs.resDeliv))
	armed := func(i int) bool { return t.due[i] != 0 }
	o.check(oracleExactlyOnce, exactlyOnce(obs.monAllowed, obs.monDeliv, func(i int) bool { return armed(i) && !in.ops[i].research }))
	o.check(oracleExactlyOnce, exactlyOnce(obs.erAllowed, obs.erDeliv, func(int) bool { return false }))
	o.check(oracleEpisodes, countsMatch("alerts per patient", gotAlerts, wantFires))
	o.check(oracleEpisodes, countsMatch("connects per patient", obs.connects, wantFires))

	undelivered := 0
	for _, idxs := range published {
		for _, idx := range idxs {
			if !in.ops[idx].research && obs.monDeliv[idx] == 0 {
				undelivered++
			}
		}
	}
	res.attempted = int(sent.Load())
	res.failed = int(pubFailed.Load()) + undelivered + obs.unexpectedDenied + obs.refused

	// Per-layer metrics (reported from the traced run).
	lg := res.layers
	var handoff samples
	for _, idx := range openAllowed {
		p := in.ops[idx].patient
		if d.Bus().ShardOf(fmt.Sprintf("mon-%d", p)) != d.Bus().ShardOf(fmt.Sprintf("dev-%d", p)) {
			if v := t.delivered[idx].Load(); v != 0 {
				handoff = append(handoff, max(0, v-t.pubEnd[idx]))
			}
		}
	}
	handoff.put(lg, "sbus.handoff_wait_p50_us", 0.50, 1e3, "us")
	lg["ifc.denied"] = metric{Value: float64(denied), Unit: "count"}
	putLatency(lg, spanDurations(m.spans, "cep.feed"), "cep.feed", 1e3, "us")
	detections := m.tel1.count("stage_deliver_detect_ns") - m.tel0.count("stage_deliver_detect_ns")
	lg["cep.detections"] = metric{Value: detections, Unit: "count"}
	lg["policy.fired"] = metric{Value: float64(fired), Unit: "count"}
	lg["policy.fire_ratio"] = metric{Value: ratio(float64(fired), detections), Unit: "ratio"}
	lg["audit.records_per_msg"] = metric{Value: ratio(float64(records), float64(m.msgs)), Unit: "ratio"}
	lg["store.durable_lag_max"] = metric{Value: float64(watch.lagMax.Load()), Unit: "count"}
	lg["store.segments"] = metric{Value: float64(d.AuditStore().WAL().Segments()), Unit: "count"}
	lg["link.residency_denied"] = metric{Value: 0, Unit: "count"}
	lg["core.sweep_executed"] = metric{Value: 0, Unit: "count"}
	m.finish(cfg, res, goroutinesBefore, func() { d.Close() }, d)
	return res, nil
}
