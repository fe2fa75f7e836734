package main

import (
	"bytes"
	"runtime"
	"runtime/metrics"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"lciot"
	"lciot/internal/audit"
	"lciot/internal/core"
	"lciot/internal/sbus"
	"lciot/internal/store"
)

// clockBase anchors every benchmark timestamp: times are int64 ns since
// it, read from the monotonic clock.
var clockBase = time.Now()

func nowNs() int64 { return int64(time.Since(clockBase)) }

// sleepUntil sleeps until the clock reads at least t.
func sleepUntil(t int64) {
	if d := t - nowNs(); d > 0 {
		time.Sleep(time.Duration(d))
	}
}

// noWindow marks a message sent outside any closed-loop window.
const noWindow = 255

// A tracker follows every generated message from its due time to the
// moments it reached its final sink and its evidence record. A message
// is complete when all of its armed conditions (delivery, evidence) have
// been met; completing a closed-loop message frees a slot in its
// generator's window.
type tracker struct {
	due       []int64
	pubEnd    []int64
	delivered []atomic.Int64
	evidence  []atomic.Int64
	remaining []atomic.Int32
	gen       []uint8
	slots     []chan struct{}
	armed     atomic.Int64
	done      atomic.Int64
	lastDone  atomic.Int64
}

func newTracker(n, generators, window int) *tracker {
	t := &tracker{
		due:       make([]int64, n),
		pubEnd:    make([]int64, n),
		delivered: make([]atomic.Int64, n),
		evidence:  make([]atomic.Int64, n),
		remaining: make([]atomic.Int32, n),
		gen:       make([]uint8, n),
		slots:     make([]chan struct{}, generators),
	}
	for g := range t.slots {
		t.slots[g] = make(chan struct{}, window)
	}
	return t
}

// arm registers message i, due now-or-earlier at due, as awaiting conds
// conditions; g is its closed-loop generator or noWindow.
func (t *tracker) arm(i int, g uint8, due int64, conds int32) {
	t.due[i] = due
	t.gen[i] = g
	t.remaining[i].Store(conds)
	t.armed.Add(1)
}

// acquire takes a window slot for generator g, giving up when abort closes.
func (t *tracker) acquire(g int, abort <-chan struct{}) bool {
	select {
	case t.slots[g] <- struct{}{}:
		return true
	case <-abort:
		return false
	}
}

// markDelivered records the first final-sink handler entry of message i.
func (t *tracker) markDelivered(i int) { t.markDeliveredAt(i, nowNs()) }

// markDeliveredAt records that message i entered its final sink's handler
// at at, for handlers that finish their work before reporting it.
func (t *tracker) markDeliveredAt(i int, at int64) {
	if t.delivered[i].CompareAndSwap(0, at) {
		t.complete(i)
	}
}

// markEvidence records when message i's evidence record became durable
// (or committed, where the domain has no durable tier).
func (t *tracker) markEvidence(i int, at int64) {
	if t.evidence[i].CompareAndSwap(0, at) {
		t.complete(i)
	}
}

// abandon completes message i without its conditions (its send failed).
func (t *tracker) abandon(i int) {
	t.remaining[i].Store(1)
	t.complete(i)
}

func (t *tracker) complete(i int) {
	if t.remaining[i].Add(-1) != 0 {
		return
	}
	now := nowNs()
	for {
		last := t.lastDone.Load()
		if now <= last || t.lastDone.CompareAndSwap(last, now) {
			break
		}
	}
	t.done.Add(1)
	if g := t.gen[i]; g != noWindow {
		<-t.slots[g]
	}
}

// waitAll waits until every armed message completed or the timeout
// passed, reporting whether all completed.
func (t *tracker) waitAll(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for t.done.Load() < t.armed.Load() {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(time.Millisecond)
	}
	return true
}

// latencies returns, for the messages in idxs, the delay from due time
// to the timestamps in at (skipping messages without one).
func (t *tracker) latencies(idxs []int32, at []atomic.Int64) samples {
	out := make(samples, 0, len(idxs))
	for _, i := range idxs {
		if v := at[i].Load(); v != 0 {
			out = append(out, v-t.due[i])
		}
	}
	return out
}

// openLoop runs one goroutine per generator over its schedule: each
// message is sent at its due time (phase start + offset) whether or not
// earlier ones finished, so a stall delays everything queued behind it.
// fire sends message idx; lag receives how late each send started.
func openLoop(start int64, lists [][]int32, offset []int64, fire func(g int, idx int32)) samples {
	lags := make([]samples, len(lists))
	var wg sync.WaitGroup
	for g, list := range lists {
		wg.Add(1)
		go func(g int, list []int32) {
			defer wg.Done()
			lag := make(samples, 0, len(list))
			for _, idx := range list {
				due := start + offset[idx]
				sleepUntil(due)
				lag = append(lag, nowNs()-due)
				fire(g, idx)
			}
			lags[g] = lag
		}(g, list)
	}
	wg.Wait()
	var all samples
	for _, l := range lags {
		all = append(all, l...)
	}
	return all
}

// closedLoop runs one goroutine per generator, each calling step until
// it has taken budget steps, step reports its input exhausted, or the
// phase has lasted limit. step gets an abort channel that closes when the
// phase overruns limit by grace, so a generator blocked on a window that
// will never drain gives up.
func closedLoop(generators, budget int, limit, grace time.Duration, step func(g int, abort <-chan struct{}) bool) {
	abort := make(chan struct{})
	timer := time.AfterFunc(limit+grace, func() { close(abort) })
	defer timer.Stop()
	end := nowNs() + int64(limit)
	var wg sync.WaitGroup
	for g := 0; g < generators; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < budget && nowNs() < end; k++ {
				if !step(g, abort) {
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// closedPhase runs a closed-loop phase of a fixed amount of work — budget
// steps per generator, sized to take about d at the workload's nominal
// rate — and waits for its messages to complete. Fixed work keeps the
// phase's memory footprint comparable between runs; the phase is cut at
// three times d if the program is far slower. It returns completed
// messages per second, from the phase start to the last completion, the
// count behind it, and whether every message completed.
func closedPhase(t *tracker, generators, budget int, d time.Duration, step func(g int, abort <-chan struct{}) bool) (mps float64, msgs int, ok bool) {
	doneBefore := t.done.Load()
	start := nowNs()
	closedLoop(generators, budget, 3*d, 10*time.Second, step)
	ok = t.waitAll(30 * time.Second)
	msgs = int(t.done.Load() - doneBefore)
	return float64(msgs) / (float64(t.lastDone.Load()-start) / 1e9), msgs, ok
}

// budget is the closed-loop steps per generator that take d at rate
// steps per second across all generators.
func budget(rate float64, d time.Duration, generators int) int {
	return max(1, int(rate*d.Seconds())/generators)
}

// timedSetups builds the system reps times and keeps the last build. It
// reports the median wall time of the builds and, under its own name,
// their median process CPU time (user + system). prepare runs before each
// build, untimed; discard tears down every build but the last. The heap
// is collected before each build, so every build starts from a settled
// heap, as in a fresh process, and no collection owed to an earlier
// build's garbage lands in a later build's time.
func timedSetups[T any](reps int, prepare func(rep int) error, build func(rep int) (T, error), discard func(T, int)) (last T, wall, cpu metric, err error) {
	var walls, cpus []float64
	for r := 0; r < reps; r++ {
		if err := prepare(r); err != nil {
			return last, wall, cpu, err
		}
		_ = liveHeapMB()
		c0, start := processCPU(), time.Now()
		b, err := build(r)
		if err != nil {
			return last, wall, cpu, err
		}
		walls = append(walls, time.Since(start).Seconds())
		cpus = append(cpus, float64(processCPU()-c0)/1e9)
		if r < reps-1 {
			discard(b, r)
			continue
		}
		last = b
	}
	return last, metric{Value: medianFloat(walls), Unit: "s", N: reps}, metric{Value: medianFloat(cpus), Unit: "s", N: reps}, nil
}

// processCPU returns the process's user plus system CPU time, in ns.
func processCPU() int64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// setupReps is how many times a run builds its system to time set-up:
// an untraced run reports the median of 25 builds, a traced run builds
// once.
func setupReps(cfg config) int {
	if cfg.traced {
		return 1
	}
	return 25
}

// idxOf parses the message index that ends a DataID ("prefix/<idx>").
func idxOf(dataID string) (int32, bool) {
	i := strings.LastIndexByte(dataID, '/')
	if i < 0 || i == len(dataID)-1 {
		return 0, false
	}
	var n int32
	for _, c := range dataID[i+1:] {
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + int32(c-'0')
	}
	return n, true
}

// A runtimeSnap reads allocation and GC CPU counters from runtime/metrics,
// which unlike ReadMemStats does not stop the world, and the process's
// CPU time.
type runtimeSnap struct {
	allocObjs, allocBytes uint64
	gcCPU, totalCPU       float64
	// procCPU is the process's user plus system CPU time, in ns.
	procCPU int64
}

var runtimeSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func readRuntime() runtimeSnap {
	s := make([]metrics.Sample, len(runtimeSamples))
	copy(s, runtimeSamples)
	metrics.Read(s)
	return runtimeSnap{
		allocObjs: s[0].Value.Uint64(), allocBytes: s[1].Value.Uint64(),
		gcCPU: s[2].Value.Float64(), totalCPU: s[3].Value.Float64(),
		procCPU: processCPU(),
	}
}

// A window sums the runtime counters over the measured phases only, so
// the idle waits between them are not charged to the messages.
type window struct{ at, total runtimeSnap }

func (w *window) open() { w.at = readRuntime() }

func (w *window) close() {
	b := readRuntime()
	w.total.allocObjs += b.allocObjs - w.at.allocObjs
	w.total.allocBytes += b.allocBytes - w.at.allocBytes
	w.total.gcCPU += b.gcCPU - w.at.gcCPU
	w.total.totalCPU += b.totalCPU - w.at.totalCPU
	w.total.procCPU += b.procCPU - w.at.procCPU
}

// putRuntime reports allocation and GC cost per message over the
// measured windows.
func putRuntime(m map[string]metric, w runtimeSnap, msgs int) {
	m["runtime.allocs_per_msg"] = metric{Value: ratio(float64(w.allocObjs), float64(msgs)), Unit: "count"}
	m["runtime.alloc_bytes_per_msg"] = metric{Value: ratio(float64(w.allocBytes), float64(msgs)), Unit: "B"}
	m["runtime.gc_cpu_fraction"] = metric{Value: ratio(w.gcCPU, w.totalCPU), Unit: "ratio"}
}

// liveHeapMB returns HeapAlloc after a full collection, in MB.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// goroutineLeak waits up to settle for the goroutine count to fall back
// to before, then returns how many goroutines remain beyond it and how
// many of those are federation-link loops (the program offers no call
// that stops a link, so they outlive Domain.Close).
func goroutineLeak(before int, settle time.Duration) (leaked, linkLoops int) {
	deadline := time.Now().Add(settle)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	leaked = runtime.NumGoroutine() - before
	if leaked <= 0 {
		return 0, 0
	}
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	for _, g := range bytes.Split(buf, []byte("\n\n")) {
		if bytes.Contains(g, []byte("lciot/internal/sbus.(*link)")) {
			linkLoops++
		}
	}
	return leaked, linkLoops
}

// A durableWatch turns WAL durability into per-message evidence times.
// An audit sink queues (seq, message) pairs in chain order and wakes the
// watcher, which reads the WAL's NextSeq, waits in WAL.Sync for the group
// commit that covers it, and marks every queued record below it durable
// at the moment Sync returned. It takes the WAL's lock twice per group
// commit and sleeps on a channel while nothing is queued.
type durableWatch struct {
	wal    *store.WAL
	t      *tracker
	traced bool
	mu     sync.Mutex
	q      []pendingRecord
	kick   chan struct{}
	stop   chan struct{}
	done   chan struct{}
	// lagMax is the deepest NextSeq-DurableSeq gap seen before a Sync
	// (traced runs only).
	lagMax atomic.Uint64
}

type pendingRecord struct {
	seq uint64
	idx int32
}

func startDurableWatch(wal *store.WAL, t *tracker, traced bool) *durableWatch {
	w := &durableWatch{wal: wal, t: t, traced: traced,
		kick: make(chan struct{}, 1), stop: make(chan struct{}), done: make(chan struct{})}
	go w.loop()
	return w
}

func (w *durableWatch) push(seq uint64, idx int32) {
	w.mu.Lock()
	w.q = append(w.q, pendingRecord{seq, idx})
	w.mu.Unlock()
	select {
	case w.kick <- struct{}{}:
	default:
	}
}

func (w *durableWatch) loop() {
	defer close(w.done)
	var ready []pendingRecord
	for {
		select {
		case <-w.stop:
			return
		case <-w.kick:
		}
		for {
			next := w.wal.NextSeq()
			if w.traced {
				if durable := w.wal.DurableSeq(); next > durable && next-durable > w.lagMax.Load() {
					w.lagMax.Store(next - durable)
				}
			}
			_ = w.wal.Sync()
			now := nowNs()
			w.mu.Lock()
			n := 0
			for n < len(w.q) && w.q[n].seq < next {
				n++
			}
			ready = append(ready[:0], w.q[:n]...)
			w.q = append(w.q[:0], w.q[n:]...)
			left := len(w.q)
			w.mu.Unlock()
			for _, p := range ready {
				w.t.markEvidence(int(p.idx), now)
			}
			if left == 0 {
				break
			}
			if n == 0 {
				// The sink saw records the store has not appended yet.
				time.Sleep(50 * time.Microsecond)
			}
		}
	}
}

func (w *durableWatch) close() {
	close(w.stop)
	<-w.done
}

// A plan is what measure, which runs every workload's phases, needs from
// a built workload: its tracker and tracer, the open-loop schedule and
// how to send one message of it, one closed-loop phase, and the buses,
// audit tiers and domains it observes.
type plan struct {
	t    *tracker
	tr   *tracer
	open [][]int32 // per generator, in due order
	// offset holds each open-loop message's due time from the loop's start.
	offset []int64
	fire   func(g int, idx int32, due int64)
	// closed runs one closed-loop phase of about d of work and returns its
	// throughput, the messages behind it and whether they all completed.
	closed func(d time.Duration) (mps float64, msgs int, ok bool)
	// sent counts the messages sent so far.
	sent  func() int
	buses []*sbus.Bus
	// log, store and domain are what the traced run's probe samples (store
	// is nil without a durable tier).
	log    *audit.Log
	store  *store.AuditStore
	domain *core.Domain
	// afterOpen waits for the work the open loop leaves behind, inside the
	// measured window; idle runs between the loops, outside it; snapshot
	// reads the workload's own counters where the per-layer readings are
	// taken. All three are optional.
	afterOpen, idle, snapshot func()
	heapBase                  float64 // live heap before the run's own set-up, MB
}

// A measurement is what measure measured on a plan.
type measurement struct {
	lags       samples
	mps        float64
	closedMsgs int
	// msgs counts the messages sent in the measured windows, which rt covers.
	msgs       int
	rt         runtimeSnap
	tel0, tel1 telSnap
	sh0, sh1   shardTotals
	probe      *probe
	heapMB     float64
	complete   bool
	// spans holds the spans finished by the end of the traced closed loop.
	spans   []spanRecord
	dropped int64
	// untracedMPS and tracedMPS are the mean throughput of the closed
	// loops a traced run measures for trace.overhead_ratio.
	untracedMPS, tracedMPS float64
}

// measure runs the measured phases of a run. Both kinds of run start
// with the open loop (openDur) right after set-up, wait outside the
// measured window for idle, then run a closed loop (closedDur). The
// traced run traces all of that and takes its per-layer readings there,
// then measures three more closed loops — untraced, untraced, traced —
// so trace.overhead_ratio compares traced and untraced loops in ABBA
// order, which cancels the slowdown a growing system shows over the
// phases.
func measure(cfg config, p plan) *measurement {
	m := &measurement{}
	setTracing(p.tr, cfg.traced)
	m.tel0, m.sh0 = readTelemetry(), readShards(p.buses)
	sent0 := p.sent()
	stopProbe := startProbe(cfg.traced, p.log, p.store, p.domain, p.tr)
	var win window

	runtime.GC() // every open loop starts from a collected heap
	win.open()
	openStart := nowNs() + int64(20*time.Millisecond)
	m.lags = openLoop(openStart, p.open, p.offset, func(g int, idx int32) {
		p.fire(g, idx, openStart+p.offset[idx])
	})
	if p.afterOpen != nil {
		p.afterOpen()
	}
	openOK := p.t.waitAll(30 * time.Second)
	win.close()
	if p.idle != nil {
		p.idle()
	}
	win.open()
	var closedOK bool
	m.mps, m.closedMsgs, closedOK = p.closed(cfg.closedDur())
	win.close()
	m.complete = openOK && closedOK

	m.probe = stopProbe()
	m.tel1, m.sh1 = readTelemetry(), readShards(p.buses)
	if p.snapshot != nil {
		p.snapshot()
	}
	m.msgs = p.sent() - sent0
	m.rt = win.total
	m.heapMB = liveHeapMB() - p.heapBase
	if !cfg.traced {
		return m
	}
	m.spans, m.dropped = p.tr.recorded(), p.tr.dropped.Load()
	traced := m.mps
	var untraced float64
	setTracing(p.tr, false)
	for k := 0; k < 2; k++ {
		mps, _, ok := p.closed(cfg.closedDur())
		untraced += mps
		m.complete = m.complete && ok
	}
	setTracing(p.tr, true)
	stop := startProbe(true, p.log, p.store, p.domain, p.tr)
	mps, _, ok := p.closed(cfg.closedDur())
	stop()
	setTracing(p.tr, false)
	m.complete = m.complete && ok
	m.tracedMPS, m.untracedMPS = (traced+mps)/2, untraced/2
	return m
}

// setTracing arms or darkens everything a traced run adds: the program's
// telemetry and stage sampling, and the benchmark's own spans.
func setTracing(tr *tracer, on bool) {
	if on {
		lciot.EnableTelemetry()
		lciot.SetStageSampling(1)
	} else {
		lciot.DisableTelemetry()
		lciot.SetStageSampling(0)
	}
	tr.setOn(on)
}

// finish reports what every workload measures the same way, checks the
// run's validity, tears the system down with teardown and checks that it
// left no goroutines behind.
func (m *measurement) finish(cfg config, res *result, goroutinesBefore int, teardown func(), domains ...*core.Domain) {
	res.e2e["throughput_mps"] = metric{Value: m.mps, Unit: "msg/s", N: m.closedMsgs}
	res.e2e["live_heap_mb"] = metric{Value: m.heapMB, Unit: "MB"}
	res.e2e["cpu_us_per_msg"] = metric{Value: ratio(float64(m.rt.procCPU)/1e3, float64(m.msgs)), Unit: "us"}
	if !m.complete {
		res.invalid = append(res.invalid, "messages still incomplete 30s after their phase ended")
	}

	lg := res.layers
	m.lags.put(lg, "loadgen.lag_p99_us", 0.99, 1e3, "us")
	putLatency(lg, spanDurations(m.spans, "sbus.publish"), "sbus.publish", 1e3, "us")
	putShards(lg, m.sh0, m.sh1)
	putTelemetry(lg, m.tel0, m.tel1, m.msgs)
	m.probe.put(lg)
	putLinks(lg, res, domains)
	putRuntime(lg, m.rt, m.msgs)
	conflicts := 0
	for _, d := range domains {
		conflicts += len(d.Conflicts())
	}
	lg["policy.conflicts"] = metric{Value: float64(conflicts), Unit: "count"}
	if cfg.traced {
		lg["trace.overhead_ratio"] = metric{Value: ratio(m.tracedMPS, m.untracedMPS), Unit: "ratio"}
		res.facts["untraced_closed_mps"] = m.untracedMPS
		res.facts["traced_closed_mps"] = m.tracedMPS
		putSelfTimes(lg, m.spans, m.msgs)
		lg["trace.spans_dropped"] = metric{Value: float64(m.dropped), Unit: "count"}
		res.spans = m.spans
	}

	// Validity: health only now that the measured phases are over.
	checkHealth(res, domains...)
	teardown()
	setTracing(nil, false)
	putLeak(res, goroutinesBefore)
}
