package main

import (
	"sync"
	"time"

	"lciot"
	"lciot/internal/audit"
	"lciot/internal/core"
	"lciot/internal/sbus"
	"lciot/internal/store"
	"lciot/internal/telemetry"
)

// telSnap is one read of the program's exported series, keyed by name
// with every label set kept.
type telSnap map[string][]telemetry.Metric

func readTelemetry() telSnap {
	s := telSnap{}
	for _, m := range lciot.TelemetrySnapshot() {
		s[m.Name] = append(s[m.Name], m)
	}
	return s
}

// count sums a series over its label sets: observations for histograms,
// the value for counters and gauges.
func (s telSnap) count(name string) float64 {
	var n float64
	for _, m := range s[name] {
		if m.Hist != nil {
			n += float64(m.Hist.Count)
		} else {
			n += m.Value
		}
	}
	return n
}

// p50 returns the median of the busiest label set of a histogram.
func (s telSnap) p50(name string) (int64, uint64) {
	var best *telemetry.HistStats
	for _, m := range s[name] {
		if m.Hist != nil && (best == nil || m.Hist.Count > best.Count) {
			best = m.Hist
		}
	}
	if best == nil {
		return 0, 0
	}
	return best.P50, best.Count
}

// putTelemetry reports the series the program exports where no public
// call boundary separates two layers. Histograms only record while
// telemetry is enabled, which a traced run does for its traced phases.
func putTelemetry(lg map[string]metric, a, b telSnap, msgs int) {
	hits := b.count("ifc_flowcache_hits_total") - a.count("ifc_flowcache_hits_total")
	misses := b.count("ifc_flowcache_misses_total") - a.count("ifc_flowcache_misses_total")
	lg["ifc.flowcache_hit_ratio"] = metric{Value: ratio(hits, hits+misses), Unit: "ratio", N: int(hits + misses)}
	for _, e := range []struct{ series, name string }{
		{"stage_publish_deliver_ns", "stage.publish_deliver_p50_us"},
		{"stage_deliver_detect_ns", "stage.deliver_detect_p50_us"},
		{"stage_detect_decide_ns", "stage.detect_decide_p50_us"},
		{"stage_decide_audit_ns", "stage.decide_audit_p50_us"},
		{"stage_link_hop_ns", "stage.link_hop_p50_us"},
	} {
		if v, n := b.p50(e.series); n > 0 {
			lg[e.name] = metric{Value: float64(v) / 1e3, Unit: "us", N: int(n)}
		}
	}
	if v, n := b.p50("sbus_link_batch_frames"); n > 0 {
		lg["link.batch_frames_p50"] = metric{Value: float64(v), Unit: "count", N: int(n)}
	}
	tx := b.count("sbus_link_tx_bytes_total") - a.count("sbus_link_tx_bytes_total")
	rx := b.count("sbus_link_rx_bytes_total") - a.count("sbus_link_rx_bytes_total")
	lg["link.tx_bytes_per_msg"] = metric{Value: ratio(tx, float64(msgs)), Unit: "B"}
	lg["link.rx_bytes_per_msg"] = metric{Value: ratio(rx, float64(msgs)), Unit: "B"}
}

// shardTotals sums Bus.ShardStats over buses.
type shardTotals struct{ delivered, handoffs, overflow uint64 }

func readShards(buses []*sbus.Bus) shardTotals {
	var t shardTotals
	for _, b := range buses {
		for _, s := range b.ShardStats() {
			t.delivered += s.Delivered
			t.handoffs += s.HandoffsIn
			t.overflow += s.Overflow
		}
	}
	return t
}

func putShards(lg map[string]metric, a, b shardTotals) {
	del, hand := b.delivered-a.delivered, b.handoffs-a.handoffs
	lg["sbus.delivered"] = metric{Value: float64(del), Unit: "count"}
	lg["sbus.handoffs"] = metric{Value: float64(hand), Unit: "count"}
	lg["sbus.ring_overflow"] = metric{Value: float64(b.overflow - a.overflow), Unit: "count"}
	lg["sbus.cross_shard_share"] = metric{Value: ratio(float64(hand), float64(del)), Unit: "ratio"}
}

// putLinks reports link state over every domain's links: the deepest
// egress queue and the reconnect count (which must stay 0).
func putLinks(lg map[string]metric, res *result, domains []*core.Domain) {
	var high, reconnects uint64
	for _, d := range domains {
		for _, ls := range d.LinkStatus() {
			high = max(high, ls.QueueHighWater)
			reconnects += ls.Reconnects
		}
	}
	lg["link.queue_highwater"] = metric{Value: float64(high), Unit: "count"}
	lg["link.reconnects"] = metric{Value: float64(reconnects), Unit: "count"}
	if reconnects > 0 {
		res.invalid = append(res.invalid, "a federation link reconnected during the run")
	}
}

// firedTotal sums FiredCount over the domain's rules.
func firedTotal(d *core.Domain) uint64 {
	var n uint64
	eng := d.PolicyEngine()
	for _, r := range eng.RuleNames() {
		n += eng.FiredCount(r)
	}
	return n
}

// spanDurations returns the durations of every finished span named name.
func spanDurations(spans []spanRecord, name string) samples {
	var s samples
	for _, sp := range spans {
		if sp.name == name && sp.end > 0 {
			s = append(s, sp.end-sp.start)
		}
	}
	return s
}

// putSelfTimes reports each span name's self time per message.
func putSelfTimes(lg map[string]metric, spans []spanRecord, msgs int) {
	for name, ns := range selfTimes(spans) {
		lg["self."+name+"_us_per_msg"] = metric{Value: ratio(float64(ns)/1e3, float64(msgs)), Unit: "us"}
	}
}

// A probe samples the audit and store layers at a fixed cadence during a
// traced run: Log.Flush and AuditStore.Sync wall time, the audit ingest
// depth and the obligation backlog.
type probe struct {
	flush, sync          samples
	depthMax, backlogMax int
	stop                 chan struct{}
	wg                   sync.WaitGroup
	mu                   sync.Mutex
}

const (
	flushCadence = 2 * time.Millisecond
	syncCadence  = 5 * time.Millisecond
)

// startProbe starts the probe goroutines when traced and returns the
// function that stops them and hands back what they measured.
func startProbe(traced bool, log *audit.Log, st *store.AuditStore, d *core.Domain, tr *tracer) func() *probe {
	p := &probe{stop: make(chan struct{})}
	if !traced {
		return func() *probe { return p }
	}
	every := func(cadence time.Duration, fn func()) {
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			tick := time.NewTicker(cadence)
			defer tick.Stop()
			for {
				select {
				case <-p.stop:
					return
				case <-tick.C:
					fn()
				}
			}
		}()
	}
	every(flushCadence, func() {
		depth := log.IngestDepth()
		backlog := d.ObligationBacklog()
		sp := tr.begin("audit.flush", 0, -1)
		t0 := nowNs()
		log.Flush()
		dur := nowNs() - t0
		tr.end(sp)
		p.mu.Lock()
		p.flush = append(p.flush, dur)
		p.depthMax = max(p.depthMax, depth)
		p.backlogMax = max(p.backlogMax, backlog)
		p.mu.Unlock()
	})
	if st != nil {
		every(syncCadence, func() {
			sp := tr.begin("store.sync", 0, -1)
			t0 := nowNs()
			_ = st.Sync()
			dur := nowNs() - t0
			tr.end(sp)
			p.mu.Lock()
			p.sync = append(p.sync, dur)
			p.mu.Unlock()
		})
	}
	return func() *probe {
		close(p.stop)
		p.wg.Wait()
		return p
	}
}

func (p *probe) put(lg map[string]metric) {
	p.flush.put(lg, "audit.flush_p50_ms", 0.50, 1e6, "ms")
	p.flush.put(lg, "audit.flush_p99_ms", 0.99, 1e6, "ms")
	p.sync.put(lg, "store.sync_p50_ms", 0.50, 1e6, "ms")
	p.sync.put(lg, "store.sync_p99_ms", 0.99, 1e6, "ms")
	lg["audit.ingest_depth_max"] = metric{Value: float64(p.depthMax), Unit: "count"}
	lg["obligation.backlog_max"] = metric{Value: float64(p.backlogMax), Unit: "count"}
}

// checkHealth reads Domain.Health — only once the measured phase has
// ended, since a rung transition can start a diagnostic CPU profile — and
// marks the run invalid on any rung other than ok.
func checkHealth(res *result, domains ...*core.Domain) {
	for _, d := range domains {
		for _, h := range d.Health() {
			if h.State != core.HealthOK {
				res.invalid = append(res.invalid, "domain "+d.Name()+" "+h.Subsystem+" health "+h.State.String()+": "+h.Detail)
			}
		}
	}
}

// putLeak reports goroutines left after teardown. Link loops are
// counted but do not invalidate the run: the program has no call that
// stops a federation link, so they outlive Domain.Close by design of
// today's API. Any other leftover goroutine makes the run invalid.
func putLeak(res *result, before int) {
	leaked, linkLoops := goroutineLeak(before, 3*time.Second)
	res.layers["runtime.goroutines_leaked"] = metric{Value: float64(leaked), Unit: "count"}
	res.facts["goroutines_leaked_link_loops"] = linkLoops
	if leaked > linkLoops {
		res.invalid = append(res.invalid, "goroutines leaked after teardown")
	}
}
