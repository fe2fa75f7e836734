package core

import (
	"fmt"
	"strings"

	"lciot/internal/sbus"
	"lciot/internal/telemetry"
)

// This file is the graceful-degradation ladder's reporting surface: a
// per-subsystem ok / degraded / failed state model aggregated from the
// layers' own counters. The ladder's rungs are behavioural, not just
// labels — a degraded audit store buffers in memory instead of wedging
// group commit (see store.ErrDegraded); a degraded link queues egress
// behind a reconnecting session; an overloaded bus falls back to inline
// delivery. Health makes those states visible so operators (lciotd logs
// transitions) and soak harnesses can react before degraded becomes
// failed.

// HealthState is one rung of the degradation ladder.
type HealthState int

const (
	// HealthOK: the subsystem is operating normally.
	HealthOK HealthState = iota
	// HealthDegraded: the subsystem is up but operating in a reduced mode
	// (buffering, reconnecting, shedding load to fallbacks); no data has
	// been lost yet, but the margin is gone.
	HealthDegraded
	// HealthFailed: the subsystem has lost data or given up (shed audit
	// records, a link whose retry budget ran out); operator action or a
	// restart is required.
	HealthFailed
)

// String renders the state for logs and status lines.
func (s HealthState) String() string {
	switch s {
	case HealthOK:
		return "ok"
	case HealthDegraded:
		return "degraded"
	case HealthFailed:
		return "failed"
	}
	return fmt.Sprintf("HealthState(%d)", int(s))
}

// SubsystemHealth is one subsystem's position on the ladder.
type SubsystemHealth struct {
	// Subsystem names the subsystem: "audit-store", "links", "bus",
	// "obligations".
	Subsystem string
	// State is the ladder rung.
	State HealthState
	// Detail is a one-line operator-facing explanation.
	Detail string
}

// Health reports every subsystem's current state, sorted stably by
// subsystem name order below. The worst rung across subsystems is the
// domain's effective state.
//
// The report is built fresh on every call (about a microsecond; callers
// poll it once per scrape or status tick) and belongs to the caller.
// Safe concurrent with Close — the probes read atomics and their own
// locks, never the stores Close tears down.
func (d *Domain) Health() []SubsystemHealth {
	// Skew rides the health poll cadence: at most one evaluation per
	// debounce window, outside healthMu (see diag.go).
	d.checkSkewDiag()
	d.healthMu.Lock()
	defer d.healthMu.Unlock()
	report := []SubsystemHealth{
		d.auditStoreHealth(),
		d.linkHealth(),
		d.busHealth(),
		d.obligationHealth(),
	}
	worst := HealthOK
	for _, h := range report {
		if h.State > worst {
			worst = h.State
		}
	}
	// Degradation transitions always leave a trace (error spans bypass
	// sampling), so a /traces read after an incident shows when the rung
	// moved even if no sampled flow was in flight — and they trigger a
	// diagnostic capture (see diag.go), so the profile evidence from the
	// moment things worsened survives for post-hoc diagnosis.
	if d.healthInit && worst > d.healthWorst {
		for _, h := range report {
			if h.State > HealthOK {
				telemetry.RecordSpan(telemetry.TraceContext{}, d.name, "health-"+h.State.String(),
					h.Subsystem, "", h.Detail)
			}
		}
		d.maybeCaptureDiag(worst.String())
	}
	d.healthWorst, d.healthInit = worst, true
	return report
}

// auditStoreHealth maps the durable store's degradation state onto the
// ladder: degraded while buffering (evidence at risk), failed once
// records have been shed (evidence lost).
func (d *Domain) auditStoreHealth() SubsystemHealth {
	h := SubsystemHealth{Subsystem: "audit-store", State: HealthOK}
	if d.auditStore == nil {
		h.Detail = "in-memory only (no data dir)"
		return h
	}
	sh := d.auditStore.Health()
	switch {
	case sh.Shed > 0:
		h.State = HealthFailed
		h.Detail = fmt.Sprintf("persistence failed (%v); %d records buffered, %d SHED",
			sh.Cause, sh.Buffered, sh.Shed)
	case sh.Degraded:
		h.State = HealthDegraded
		h.Detail = fmt.Sprintf("persistence failed (%v); buffering in memory (%d records)",
			sh.Cause, sh.Buffered)
	default:
		h.Detail = "persisting"
	}
	return h
}

// linkHealth reports cross-bus link state: degraded while any link is
// mid-reconnect (egress queues behind the outage). Links whose retry
// budget ran out are removed from routing by the supervisor, so they
// surface through lost federation rather than a lingering entry here.
func (d *Domain) linkHealth() SubsystemHealth {
	h := SubsystemHealth{Subsystem: "links", State: HealthOK}
	st := d.bus.LinkStatus()
	if len(st) == 0 {
		h.Detail = "no links"
		return h
	}
	var reconnecting []string
	up := 0
	for _, s := range st {
		switch s.State {
		case sbus.LinkUp:
			up++
		case sbus.LinkReconnecting:
			reconnecting = append(reconnecting, s.Peer)
		}
	}
	if len(reconnecting) > 0 {
		h.State = HealthDegraded
		h.Detail = fmt.Sprintf("%d/%d up; reconnecting: %s",
			up, len(st), strings.Join(reconnecting, ", "))
		return h
	}
	h.Detail = fmt.Sprintf("%d/%d up", up, len(st))
	return h
}

// busHealth watches the shard handoff rings: overflow means deliveries
// are falling back to inline execution on publisher goroutines — the bus
// is still delivering everything, but with the relaxed ordering overload
// brings (degraded, by design).
func (d *Domain) busHealth() SubsystemHealth {
	h := SubsystemHealth{Subsystem: "bus", State: HealthOK}
	var overflow, delivered uint64
	for _, s := range d.bus.ShardStats() {
		overflow += s.Overflow
		delivered += s.Delivered
	}
	if overflow > 0 {
		h.State = HealthDegraded
		h.Detail = fmt.Sprintf("%d handoff overflows (inline fallback); %d delivered", overflow, delivered)
		return h
	}
	h.Detail = fmt.Sprintf("%d delivered across %d shards", delivered, d.bus.NumShards())
	return h
}

// obligationHealth reports the retention-deadline backlog. A large
// backlog is normal between sweeps; the subsystem only degrades once the
// domain is closed with deadlines still pending (they will not execute).
func (d *Domain) obligationHealth() SubsystemHealth {
	h := SubsystemHealth{Subsystem: "obligations", State: HealthOK}
	backlog := d.oblSched.Len()
	if d.closed.Load() && backlog > 0 {
		h.State = HealthDegraded
		h.Detail = fmt.Sprintf("closed with %d deadlines pending (resume via LoadPolicy after restart)", backlog)
		return h
	}
	h.Detail = fmt.Sprintf("%d deadlines scheduled", backlog)
	return h
}
