package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
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

// charge-sessions: an OCPP-style charge-point operator node restarting on
// a seeded history. Set-up recovers the history (WAL recovery, chain
// verification, obligation rebuild); live sessions start, publish meter
// values at a fixed rate under a tag with retention, residency and
// purpose obligations, and stop; each stop issues the session's
// right-to-erasure, and each session's charge record is left to the
// retention sweep that a second generator goroutine runs on a fixed
// cadence. Obligations, provenance expansion, CEP and context purges and
// both audit tiers' redaction do the work.

const (
	chargeHistory      = 2000                   // H: records of past sessions in the recovered store
	chargeHistSources  = 16                     // charge points the history came from
	chargeErasures     = 110                    // open-loop sessions (and so erasures) per run
	chargeMeterEvery   = 25 * time.Millisecond  // meter value cadence
	chargeMinDur       = 500 * time.Millisecond // session length range
	chargeMaxDur       = 900 * time.Millisecond
	chargeRecordRetain = 2 * time.Second // retention of a session's charge record
	chargeCEPWindow    = 2 * time.Second // the broadcast CEP window over meter events
	chargeRecordShare  = 0.3             // share of sessions leaving a charge record to retention
	chargeSweepEvery   = 100 * time.Millisecond
	chargeWindow       = 32
	chargeClosedRate   = 6   // nominal closed-loop sessions/s: sizes the phase's fixed work
	chargeClosedMeters = 300 // a closed-loop session sends 300-599 meter values
)

const chargePolicy = `
obligation "metering" on meter { retain 60s; residency eu; purpose billing; }
obligation "billing" on cdr { retain 2s; }
obligation "archive" on meterhist { retain 720h; }
`

// Charge message kinds.
const (
	chargeStart uint8 = iota
	chargeMeter
	chargeStop
	chargeCDR
)

type chargeOp struct {
	session uint16
	kind    uint8
	value   float32
}

// A chargeSession lists its messages: start, meter values and stop, in
// order, then the charge record sent after the erasure (-1 for none).
type chargeSession struct {
	msgs []int32
	cdr  int32
}

type chargeInputs struct {
	ops      []chargeOp
	offset   []int64 // open-loop due offsets (start, meter and stop only)
	sessions []chargeSession
	open     []int32 // the one session generator's open-loop schedule
	nOpenSes int
	history  []float32 // meter values of the recovered history
}

func genCharge(seed int64, openDur, closedDur time.Duration) *chargeInputs {
	rng := rand.New(rand.NewSource(seed))
	in := &chargeInputs{}
	for i := 0; i < chargeHistory; i++ {
		in.history = append(in.history, float32(rng.Intn(2200))/100)
	}
	type timed struct {
		at  int64
		idx int32
	}
	var sched []timed
	newSession := func(start int64, scheduled bool) {
		j := uint16(len(in.sessions))
		span := chargeMinDur + time.Duration(rng.Int63n(int64(chargeMaxDur-chargeMinDur)))
		meters := int(span / chargeMeterEvery)
		if !scheduled {
			// Closed-loop sessions are long ones, so the phase's fixed work
			// is a second or so while its erasures stay few.
			meters = chargeClosedMeters + rng.Intn(chargeClosedMeters)
		}
		var s chargeSession
		add := func(kind uint8, at int64) {
			idx := int32(len(in.ops))
			in.ops = append(in.ops, chargeOp{session: j, kind: kind, value: float32(rng.Intn(2200)) / 100})
			in.offset = append(in.offset, at)
			s.msgs = append(s.msgs, idx)
			if scheduled {
				sched = append(sched, timed{at, idx})
			}
		}
		add(chargeStart, start)
		for k := 1; k <= meters; k++ {
			add(chargeMeter, start+int64(k)*int64(chargeMeterEvery))
		}
		add(chargeStop, start+int64(meters+1)*int64(chargeMeterEvery))
		s.cdr = -1
		if scheduled && rng.Float64() < chargeRecordShare {
			s.cdr = int32(len(in.ops))
			in.ops = append(in.ops, chargeOp{session: j, kind: chargeCDR, value: float32(rng.Intn(8000)) / 100})
			in.offset = append(in.offset, -1)
		}
		in.sessions = append(in.sessions, s)
	}
	// Open-loop sessions start at a fixed cadence, chargeErasures of them
	// spread over the phase, with seeded lengths; all stop inside it.
	gap := (int64(openDur) - int64(chargeMaxDur+2*chargeMeterEvery)) / chargeErasures
	for k := int64(0); k < chargeErasures; k++ {
		newSession(k*gap, true)
	}
	in.nOpenSes = len(in.sessions)
	sort.Slice(sched, func(i, j int) bool {
		return sched[i].at < sched[j].at || (sched[i].at == sched[j].at && sched[i].idx < sched[j].idx)
	})
	for _, t := range sched {
		in.open = append(in.open, t.idx)
	}
	for k := budget(chargeClosedRate, closedDur, 1); k > 0; k-- {
		newSession(-1, false)
	}
	return in
}

func (in *chargeInputs) digest() string {
	h := sha256.New()
	var b [15]byte
	for i, op := range in.ops {
		binary.LittleEndian.PutUint16(b[0:], op.session)
		b[2] = op.kind
		binary.LittleEndian.PutUint32(b[3:], math.Float32bits(op.value))
		binary.LittleEndian.PutUint64(b[7:], uint64(in.offset[i]))
		h.Write(b[:])
	}
	for _, idx := range in.open {
		binary.LittleEndian.PutUint32(b[0:], uint32(idx))
		h.Write(b[:4])
	}
	for _, v := range in.history {
		binary.LittleEndian.PutUint32(b[0:], math.Float32bits(v))
		h.Write(b[:4])
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

var meterSchema = msg.MustSchema("meter", ifc.EmptyLabel,
	msg.Field{Name: "seq", Type: msg.TInt, Required: true},
	msg.Field{Name: "kwh", Type: msg.TFloat, Required: true},
)

// writeHistory builds the data directory the operator node restarts on:
// chargeHistory records of past sessions' meter values under a tag with
// long retention. It is preparation, not part of any timed phase.
func writeHistory(dir string, values []float32) error {
	d, err := core.NewDomain("cpo", core.Options{DataDir: dir, Jurisdiction: []ifc.Tag{"eu"}})
	if err != nil {
		return err
	}
	defer d.Close()
	if err := d.LoadPolicy(chargePolicy); err != nil {
		return err
	}
	by := core.PolicyEnginePrincipal
	ctx := ifc.MustContext([]ifc.Tag{"meterhist"}, nil)
	if _, err := d.Bus().Register("hist-csms", by, ctx, nil, sbus.EndpointSpec{Name: "in", Dir: sbus.Sink, Schema: meterSchema}); err != nil {
		return err
	}
	srcs := make([]*sbus.Component, chargeHistSources)
	for k := range srcs {
		name := fmt.Sprintf("hist-cp-%d", k)
		c, err := d.Bus().Register(name, by, ctx, nil, sbus.EndpointSpec{Name: "out", Dir: sbus.Source, Schema: meterSchema})
		if err != nil {
			return err
		}
		if err := d.Bus().Connect(by, name+".out", "hist-csms.in"); err != nil {
			return err
		}
		srcs[k] = c
	}
	for i, v := range values {
		m := msg.New("meter").Set("seq", msg.Int(-1)).Set("kwh", msg.Float(float64(v)))
		m.DataID = fmt.Sprintf("h%d/%d", i%chargeHistSources, i)
		if _, err := srcs[i%chargeHistSources].Publish("out", m); err != nil {
			return err
		}
	}
	d.Log().Flush()
	return nil
}

// copyDir copies a data directory tree (regular files only).
func copyDir(src, dst string) error {
	return filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(src, path)
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(target)
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, in); err != nil {
			out.Close()
			return err
		}
		return out.Close()
	})
}

type chargeSys struct {
	d       *core.Domain
	evs     []*sbus.Component // per session: meter values
	bills   []*sbus.Component // per session: the charge record
	recover time.Duration     // the NewDomain call: WAL recovery and chain verification
}

// buildCharge is the timed set-up: restart on the history, load the
// obligations (which rebuilds deadlines from the WAL), register the
// broadcast CEP window and every session's transaction channel.
func buildCharge(cfg config, dataDir string, sessions int, handler func(d *core.Domain, j int) sbus.Handler) (*chargeSys, error) {
	start := time.Now()
	d, err := core.NewDomain("cpo", core.Options{DataDir: dataDir, Shards: cfg.nproc, Jurisdiction: []ifc.Tag{"eu"}})
	if err != nil {
		return nil, err
	}
	s := &chargeSys{d: d, recover: time.Since(start)}
	fail := func(err error) (*chargeSys, error) {
		d.Close()
		return nil, err
	}
	if err := d.LoadPolicy(chargePolicy); err != nil {
		return fail(err)
	}
	// A broadcast window over every meter event (it never fires): live CEP
	// state that erasure must purge.
	d.RegisterPattern(&cep.Threshold{PatternName: "overdraw", Types: []string{"meter"},
		Count: math.MaxInt32, Window: chargeCEPWindow})
	by := core.PolicyEnginePrincipal
	evCtx := d.ApplyObligations(ifc.MustContext([]ifc.Tag{"meter"}, nil))
	billCtx := d.ApplyObligations(ifc.MustContext([]ifc.Tag{"cdr"}, nil))
	csmsCtx := ifc.MustContext([]ifc.Tag{"meter", "cdr"}, nil)
	csmsCtx.Jurisdiction = ifc.MustLabel("eu")
	csmsCtx.Purpose = ifc.MustLabel("billing")
	for j := 0; j < sessions; j++ {
		ev, csms := fmt.Sprintf("ev-%d", j), fmt.Sprintf("csms-%d", j)
		c, err := d.Bus().Register(ev, by, evCtx, nil, sbus.EndpointSpec{Name: "out", Dir: sbus.Source, Schema: meterSchema})
		if err != nil {
			return fail(err)
		}
		if _, err := d.Bus().Register(csms, by, csmsCtx, handler(d, j), sbus.EndpointSpec{Name: "in", Dir: sbus.Sink, Schema: meterSchema}); err != nil {
			return fail(err)
		}
		if err := d.Bus().Connect(by, ev+".out", csms+".in"); err != nil {
			return fail(err)
		}
		bill, err := d.Bus().Register(fmt.Sprintf("bill-%d", j), by, billCtx, nil, sbus.EndpointSpec{Name: "out", Dir: sbus.Source, Schema: meterSchema})
		if err != nil {
			return fail(err)
		}
		if err := d.Bus().Connect(by, fmt.Sprintf("bill-%d.out", j), csms+".in"); err != nil {
			return fail(err)
		}
		s.evs = append(s.evs, c)
		s.bills = append(s.bills, bill)
	}
	return s, nil
}

// A sweep is one SweepObligations call.
type sweep struct {
	start, end int64
	executed   int
}

func runCharge(cfg config) (*result, error) {
	res := newResult()
	in := genCharge(cfg.seed, cfg.openDur(), cfg.closedTotal())
	n := len(in.ops)
	res.facts["input_digest"] = in.digest()
	res.facts["messages_generated"] = n
	res.facts["sessions_generated"] = len(in.sessions)
	res.facts["history_records"] = chargeHistory
	res.facts["generators"] = 2 // sessions, and the obligations worker
	res.facts["shards"] = cfg.nproc
	res.facts["offered_rate_mps"] = float64(len(in.open)) / cfg.openDur().Seconds()
	res.facts["offered_sessions_per_s"] = float64(in.nOpenSes) / cfg.openDur().Seconds()
	res.facts["sweep_cadence_ms"] = chargeSweepEvery.Milliseconds()

	// Preparation, untimed: the history, copied afresh before each set-up.
	hist := filepath.Join(cfg.dir, "history")
	if err := writeHistory(hist, in.history); err != nil {
		return nil, fmt.Errorf("charge history: %w", err)
	}
	dataDir := func(r int) string { return filepath.Join(cfg.dir, fmt.Sprintf("charge-%d", r)) }

	t := newTracker(n, 1, chargeWindow)
	deliv := make([]int32, n)
	allowed := make([]int32, n)
	var tr *tracer
	if cfg.traced {
		tr = newTracer(6 * n)
	}
	pubSpan := make([]int32, n)
	goroutinesBefore := runtime.NumGoroutine()

	// An erasure request goes to the obligations worker (below); every
	// request is waited for through pendingErasures. Each session's
	// erasure is requested once, so a buffer of one slot per session
	// never blocks a sink handler.
	type eraseReq struct {
		s    chargeSession
		due  int64
		open bool
	}
	eraseReqs := make(chan eraseReq, len(in.sessions))
	var pendingErasures sync.WaitGroup
	handler := func(d *core.Domain, j int) sbus.Handler {
		subject := "s" + strconv.Itoa(j)
		key := subject + "/kwh"
		open := j < in.nOpenSes
		return func(m *msg.Message, _ sbus.Delivery) {
			at := nowNs()
			idx := int32(m.Attrs["seq"].Int)
			sp := tr.begin("sink.csms", pubSpan[idx], idx)
			atomic.AddInt32(&deliv[idx], 1)
			v := m.Attrs["kwh"].Float
			fs := tr.begin("cep.feed", sp, idx)
			d.FeedEvent(cep.Event{Type: "meter", Source: subject, Time: time.Now(), Value: v, Stage: m.Stage})
			tr.end(fs)
			d.Store().Set(key, ctxmodel.Number(v))
			if open && in.ops[idx].kind == chargeStop {
				// The CSMS's reaction to a stop: the session's
				// right-to-erasure, timed from the stop's due time.
				pendingErasures.Add(1)
				eraseReqs <- eraseReq{s: in.sessions[j], due: t.due[idx], open: true}
			}
			t.markDeliveredAt(int(idx), at)
			tr.end(sp)
		}
	}
	var recoverTimes []float64
	sys, setup, setupCPU, err := timedSetups(setupReps(cfg), func(r int) error {
		return copyDir(hist, dataDir(r))
	}, func(r int) (*chargeSys, error) {
		s, err := buildCharge(cfg, dataDir(r), len(in.sessions), handler)
		if err == nil {
			recoverTimes = append(recoverTimes, s.recover.Seconds())
		}
		return s, err
	}, func(s *chargeSys, r int) {
		s.d.Close()
		_ = os.RemoveAll(dataDir(r))
	})
	if err != nil {
		return nil, fmt.Errorf("charge set-up: %w", err)
	}
	_ = os.RemoveAll(hist)
	res.e2e["setup_s"] = setup
	res.e2e["setup_cpu_s"] = setupCPU
	d := sys.d
	heapBase := liveHeapMB()

	watch := startDurableWatch(d.AuditStore().WAL(), t, cfg.traced)
	var records atomic.Int64
	var refused, unexpectedDenied int
	cdrDue := make(map[int32]int64)
	var cdrMu sync.Mutex
	csmsPrefix := "cpo:csms-"
	d.Log().AddSink(func(r audit.Record) {
		records.Add(1)
		switch r.Kind {
		case audit.FlowAllowed:
			if !strings.HasPrefix(string(r.Dst), csmsPrefix) {
				return
			}
			idx, ok := idxOf(r.DataID)
			if !ok || int(idx) >= n {
				return
			}
			allowed[idx]++
			watch.push(r.Seq, idx)
			if in.ops[idx].kind == chargeCDR {
				cdrMu.Lock()
				cdrDue[idx] = int64(r.Time.Add(chargeRecordRetain).Sub(clockBase))
				cdrMu.Unlock()
			}
		case audit.FlowDenied:
			unexpectedDenied++
		case audit.ObligationRefused:
			refused++
		}
	})

	var sent, pubFailed atomic.Int64
	dataID := func(idx int32) string {
		op := in.ops[idx]
		prefix := "s"
		if op.kind == chargeCDR {
			prefix = "c"
		}
		return prefix + strconv.Itoa(int(op.session)) + "/" + strconv.Itoa(int(idx))
	}
	publish := func(idx int32, window uint8, due int64) {
		op := in.ops[idx]
		t.arm(int(idx), window, due, 2)
		m := msg.New("meter").Set("seq", msg.Int(int64(idx))).Set("kwh", msg.Float(float64(op.value)))
		m.DataID = dataID(idx)
		sp := tr.begin("sbus.publish", 0, idx)
		pubSpan[idx] = sp
		src := sys.evs[op.session]
		if op.kind == chargeCDR {
			src = sys.bills[op.session]
		}
		_, err := src.Publish("out", m)
		tr.end(sp)
		sent.Add(1)
		if err != nil {
			pubFailed.Add(1)
			t.abandon(int(idx))
		}
	}

	// The obligations worker, the second generator goroutine: it runs the
	// retention sweep on a fixed cadence and carries out each erasure
	// request, in request order, by the public call alone. It then sends
	// the session's charge record, if it has one. Only the worker touches
	// the erasure and sweep bookkeeping until it has stopped.
	var erasures, cdrSent int
	var eraseOpen, eraseCall, scans, storeLen samples
	erased := make(map[string]bool)
	var sweeps []sweep
	erase := func(r eraseReq) {
		stop := r.s.msgs[len(r.s.msgs)-1]
		if cfg.traced && r.open {
			// The share of the erasure spent scanning both tiers, as
			// core.redactTargets does: the same scan, timed alone just
			// before the call, on the same store.
			t0 := nowNs()
			d.Log().Select(func(audit.Record) bool { return false })
			_ = d.AuditStore().Read(d.AuditStore().FirstSeq(), 0, func(audit.Record) error { return nil })
			scans = append(scans, nowNs()-t0)
			storeLen = append(storeLen, int64(d.AuditStore().Len()))
		}
		sp := tr.begin("core.erase", 0, stop)
		t0 := nowNs()
		d.EraseData("meter", dataID(r.s.msgs[0]), "erasure request")
		t1 := nowNs()
		tr.end(sp)
		erasures++
		if r.open {
			eraseOpen = append(eraseOpen, t1-r.due)
			eraseCall = append(eraseCall, t1-t0)
		}
		for _, idx := range r.s.msgs {
			erased[dataID(idx)] = true
		}
		if r.s.cdr >= 0 {
			publish(r.s.cdr, noWindow, nowNs())
			cdrSent++
		}
	}
	workerStop := make(chan struct{})
	workerDone := make(chan struct{})
	go func() {
		defer close(workerDone)
		tick := time.NewTicker(chargeSweepEvery)
		defer tick.Stop()
		for {
			select {
			case <-workerStop:
				return
			case r := <-eraseReqs:
				erase(r)
				pendingErasures.Done()
			case <-tick.C:
				sp := tr.begin("core.sweep", 0, -1)
				s := sweep{start: nowNs()}
				s.executed = d.SweepObligations()
				s.end = nowNs()
				tr.end(sp)
				sweeps = append(sweeps, s)
			}
		}
	}()

	// The closed loop runs sessions back to back, window-limited, and
	// measures the message path alone: their erasures are requested once
	// the phase's messages are complete, well inside the retention period.
	nextClosed := in.nOpenSes
	var closedRun []chargeSession
	closedStep := func(_ int, abort <-chan struct{}) bool {
		if nextClosed >= len(in.sessions) {
			return false
		}
		s := in.sessions[nextClosed]
		nextClosed++
		closedRun = append(closedRun, s)
		for _, idx := range s.msgs {
			if !t.acquire(0, abort) {
				return false
			}
			publish(idx, 0, nowNs())
		}
		return true
	}

	records0 := records.Load()
	var layerRecords, snapAt int64
	m := measure(cfg, plan{
		t: t, tr: tr, open: [][]int32{in.open}, offset: in.offset,
		fire: func(_ int, idx int32, due int64) { publish(idx, noWindow, due) },
		closed: func(dur time.Duration) (float64, int, bool) {
			mps, msgs, ok := closedPhase(t, 1, budget(chargeClosedRate, dur, 1), dur, closedStep)
			for _, s := range closedRun {
				pendingErasures.Add(1)
				eraseReqs <- eraseReq{s: s}
			}
			closedRun = closedRun[:0]
			pendingErasures.Wait()
			return mps, msgs, ok
		},
		sent:  func() int { return int(sent.Load()) },
		buses: []*sbus.Bus{d.Bus()},
		log:   d.Log(), store: d.AuditStore(), domain: d,
		// Every stop has been delivered, so every open-loop erasure has
		// been requested, once the loop's messages are complete.
		afterOpen: func() {
			t.waitAll(30 * time.Second)
			pendingErasures.Wait()
		},
		// Let every charge record's retention deadline pass, so the sweeps
		// that execute them do not run inside the closed loop (its sessions
		// leave no charge records).
		idle: func() {
			var lastDue int64
			cdrMu.Lock()
			for _, due := range cdrDue {
				lastDue = max(lastDue, due)
			}
			cdrMu.Unlock()
			sleepUntil(lastDue + int64(2*chargeSweepEvery))
		},
		snapshot: func() { layerRecords, snapAt = records.Load()-records0, nowNs() },
		heapBase: heapBase,
	})

	close(workerStop)
	<-workerDone
	final := sweep{start: nowNs()}
	final.executed = d.SweepObligations()
	final.end = nowNs()
	sweeps = append(sweeps, final)
	d.Log().Flush()
	watch.close()

	putLatency(res.e2e, t.latencies(in.open, t.delivered), "deliver", 1e3, "us")
	putLatency(res.e2e, t.latencies(in.open, t.evidence), "evidence", 1e6, "ms")
	eraseOpen.put(res.e2e, "erasure_p50_ms", 0.50, 1e6, "ms")
	eraseOpen.put(res.e2e, "erasure_p90_ms", 0.90, 1e6, "ms")

	// Retention lag: each charge record is executed by the first sweep
	// that started at or after its deadline.
	var executed int
	for _, s := range sweeps {
		executed += s.executed
	}
	var lag samples
	for _, due := range cdrDue {
		k := sort.Search(len(sweeps), func(i int) bool { return sweeps[i].start >= due })
		if k < len(sweeps) {
			lag = append(lag, sweeps[k].end-due)
		}
	}
	lag.put(res.e2e, "retention_lag_p99_ms", 0.99, 1e6, "ms")
	res.facts["charge_records"] = len(cdrDue)
	res.facts["erasures_open_loop"] = len(eraseOpen)

	o := &res.oracles
	o.check(oracleChain, verifyChains(map[string]chain{"cpo log": d.Log(), "cpo store": d.AuditStore()}))
	o.check(oracleDenied, deniedNeverDelivered(make([]int32, n), deliv))
	armed := func(i int) bool { return t.due[i] != 0 }
	o.check(oracleExactlyOnce, exactlyOnce(allowed, deliv, armed))
	o.check(oracleSweeps, sweepsMatch(executed, cdrSent))
	o.check(oracleErasure, erasureComplete("in-memory", d.Log().Select(nil), erased))
	storeRecs, err := d.AuditStore().Records(d.AuditStore().FirstSeq(), 0)
	if err != nil {
		o.check(oracleErasure, err)
	}
	o.check(oracleErasure, erasureComplete("durable", storeRecs, erased))
	cutoff := clockBase.Add(time.Duration(final.start) - chargeRecordRetain)
	o.check(oracleRetention, retentionCompliant(audit.RetentionReport(storeRecs, "cdr", cutoff)))

	undelivered := 0
	for i := range in.ops {
		if armed(i) && deliv[i] == 0 {
			undelivered++
		}
	}
	res.attempted = int(sent.Load()) + erasures
	res.failed = int(pubFailed.Load()) + undelivered + unexpectedDenied + refused

	lg := res.layers
	putLatency(lg, spanDurations(m.spans, "cep.feed"), "cep.feed", 1e3, "us")
	lg["ifc.denied"] = metric{Value: float64(unexpectedDenied), Unit: "count"}
	lg["cep.detections"] = metric{Value: m.tel1.count("stage_deliver_detect_ns") - m.tel0.count("stage_deliver_detect_ns"), Unit: "count"}
	lg["policy.fired"] = metric{Value: 0, Unit: "count"}
	lg["audit.records_per_msg"] = metric{Value: ratio(float64(layerRecords), float64(m.msgs)), Unit: "ratio"}
	lg["store.durable_lag_max"] = metric{Value: float64(watch.lagMax.Load()), Unit: "count"}
	lg["store.segments"] = metric{Value: float64(d.AuditStore().WAL().Segments()), Unit: "count"}
	lg["store.recover_s"] = metric{Value: medianFloat(recoverTimes), Unit: "s", N: len(recoverTimes)}
	lg["link.residency_denied"] = metric{Value: 0, Unit: "count"}
	// Open-loop erasures only, the same ones erasure_* reports; the scan
	// share is each erasure's own scan over its own call.
	storeLen.put(lg, "audit.history_records", 0.50, 1, "count")
	eraseCall.put(lg, "core.erase_p50_ms", 0.50, 1e6, "ms")
	eraseCall.put(lg, "core.erase_p90_ms", 0.90, 1e6, "ms")
	if cfg.traced && len(scans) > 0 {
		shares := make([]float64, len(scans))
		for i := range shares {
			shares[i] = ratio(float64(scans[i]), float64(eraseCall[i]))
		}
		lg["core.erase_scan_share"] = metric{Value: medianFloat(shares), Unit: "ratio", N: len(shares)}
	}
	var sweepDur samples
	for _, s := range sweeps {
		if s.start < snapAt {
			sweepDur = append(sweepDur, s.end-s.start)
		}
	}
	sweepDur.put(lg, "core.sweep_p50_ms", 0.50, 1e6, "ms")
	sweepDur.put(lg, "core.sweep_p99_ms", 0.99, 1e6, "ms")
	lg["core.sweep_executed"] = metric{Value: float64(executed), Unit: "count"}
	m.finish(cfg, res, goroutinesBefore, func() { d.Close() }, d)
	return res, nil
}
