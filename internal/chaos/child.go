package chaos

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync/atomic"
	"time"

	"lciot/internal/core"
	"lciot/internal/fault"
	"lciot/internal/ifc"
	"lciot/internal/msg"
	"lciot/internal/sbus"
	"lciot/internal/transport"
)

// Retain is the soak's retention window: short enough that the final
// phase's drain can wait it out in real time, long enough that data is
// genuinely live between sweeps.
const Retain = time.Second

// chaosPolicy puts every telemetry-tagged flow under a retention
// obligation, so the soak's final retention report has teeth: each
// persisted reading must be tombstoned once Retain elapses.
const chaosPolicy = `
obligation "chaos-retention" on telemetry {
  retain 1s;
  erase on "subject-erasure";
}
`

// cutoffFile is where the child records the instant its final retention
// sweep began. Every data record predates it (the pump stopped a full
// drain earlier); the sweep's own bookkeeping records postdate it — so it
// is exactly the cutoff the parent's retention report should use.
const cutoffFile = "retention-cutoff"

func chaosSchema() *msg.Schema {
	return msg.MustSchema("telemetry", ifc.EmptyLabel,
		msg.Field{Name: "device", Type: msg.TString, Required: true},
		msg.Field{Name: "value", Type: msg.TFloat, Required: true},
	)
}

// RunChild runs one phase of the soak inside the current (sacrificial)
// process: it boots the two-node federated pair from the persistent
// directories under dir — recovering whatever the previous phase's
// SIGKILL left behind — pumps telemetry across both buses, and applies
// the phase's scheduled events. Kill phases then simply wait to die; the
// final phase executes the graceful drain (disarm, heal, retention sweep,
// offload, close) under a watchdog that dumps all goroutines and exits
// non-zero if shutdown deadlocks.
func RunChild(dir string, sched Schedule, phase int, logf func(string, ...any)) error {
	if phase < 0 || phase >= len(sched.Phases) {
		return fmt.Errorf("chaos: phase %d out of range (schedule has %d)", phase, len(sched.Phases))
	}
	ph := sched.Phases[phase]
	start := time.Now()

	net := transport.NewMemNetwork()
	alpha, err := core.NewDomain("alpha", core.Options{DataDir: filepath.Join(dir, "alpha"), DiagCapture: true})
	if err != nil {
		return fmt.Errorf("chaos: boot alpha: %w", err)
	}
	beta, err := core.NewDomain("beta", core.Options{DataDir: filepath.Join(dir, "beta"), DiagCapture: true})
	if err != nil {
		return fmt.Errorf("chaos: boot beta: %w", err)
	}
	// Policy before components (lciotd's rule): loading also reschedules
	// retention deadlines from the recovered WALs, which is how deadlines
	// orphaned by the previous phase's SIGKILL resume.
	for _, d := range []*core.Domain{alpha, beta} {
		if err := d.LoadPolicy(chaosPolicy); err != nil {
			return fmt.Errorf("chaos: policy on %s: %w", d.Name(), err)
		}
	}
	logf("phase %d: alpha recovered %d records (next seq %d); beta recovered %d (next seq %d)",
		phase, alpha.AuditStore().Len(), alpha.AuditStore().NextSeq(),
		beta.AuditStore().Len(), beta.AuditStore().NextSeq())

	ctx := ifc.MustContext([]ifc.Tag{"telemetry"}, nil)
	schema := chaosSchema()
	if _, err := alpha.Bus().Register("collector", "alpha", ctx, nil,
		sbus.EndpointSpec{Name: "in", Dir: sbus.Sink, Schema: schema}); err != nil {
		return err
	}
	listener, err := net.Listen("alpha")
	if err != nil {
		return err
	}
	defer listener.Close()
	go alpha.Serve(listener)

	src, err := beta.Bus().Register("sensor", "beta", ctx, nil,
		sbus.EndpointSpec{Name: "out", Dir: sbus.Source, Schema: schema})
	if err != nil {
		return err
	}
	if _, err := beta.Bus().Register("sink", "beta", ctx, nil,
		sbus.EndpointSpec{Name: "in", Dir: sbus.Sink, Schema: schema}); err != nil {
		return err
	}
	if err := beta.Bus().Connect(core.PolicyEnginePrincipal, "sensor.out", "sink.in"); err != nil {
		return err
	}
	if _, err := beta.LinkPeer(net, "alpha", 10*time.Second); err != nil {
		return err
	}
	// The cross-bus channel may race the link's ingress re-validation;
	// retry briefly like lciotd does.
	deadline := time.Now().Add(5 * time.Second)
	for {
		err := beta.Bus().Connect(core.PolicyEnginePrincipal, "sensor.out", "alpha:collector.in")
		if err == nil {
			break
		}
		if !time.Now().Before(deadline) {
			return fmt.Errorf("chaos: cross-bus channel: %w", err)
		}
		time.Sleep(50 * time.Millisecond)
	}

	// Pump: a steady telemetry stream with phase-unique DataIDs, fanning
	// to the local sink and across the link. Publish errors are expected
	// under injected faults; they are counted, not fatal.
	stopPump := make(chan struct{})
	pumpDone := make(chan struct{})
	var published, pubErrs atomic.Uint64
	go func() {
		defer close(pumpDone)
		t := time.NewTicker(2 * time.Millisecond)
		defer t.Stop()
		for i := 0; ; i++ {
			select {
			case <-stopPump:
				return
			case <-t.C:
			}
			m := msg.New("telemetry").
				Set("device", msg.Str("chaos-sensor")).
				Set("value", msg.Float(float64(i%100)))
			m.DataID = "chaos/p" + strconv.Itoa(phase) + "/" + strconv.Itoa(i)
			if _, err := src.Publish("out", m); err != nil {
				pubErrs.Add(1)
			} else {
				published.Add(1)
			}
		}
	}()
	// Tick loop: real-clock domains, so ticking drives CEP timers and the
	// retention sweep on both nodes throughout the phase.
	stopTick := make(chan struct{})
	tickDone := make(chan struct{})
	go func() {
		defer close(tickDone)
		t := time.NewTicker(50 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-stopTick:
				return
			case <-t.C:
				alpha.Tick()
				beta.Tick()
				// Health polls make degradation transitions observable —
				// and, because both domains arm diagnostic capture, each
				// transition leaves a snapshot under <DataDir>/diag that
				// the smoke harness asserts on. A report costs about a
				// microsecond, so polling every tick is cheap.
				alpha.Health()
				beta.Health()
			}
		}
	}()

	for _, ev := range ph.Events {
		if d := time.Until(start.Add(ev.At)); d > 0 {
			time.Sleep(d)
		}
		switch ev.Kind {
		case EventFault:
			if err := fault.Set(ev.Spec); err != nil {
				return fmt.Errorf("chaos: bad scheduled fault %q: %w", ev.Spec, err)
			}
			logf("phase %d +%s: armed %s", phase, ev.At, ev.Spec)
		case EventPartition:
			net.SetDown("alpha", true)
			logf("phase %d +%s: partition", phase, ev.At)
		case EventHeal:
			net.SetDown("alpha", false)
			logf("phase %d +%s: heal", phase, ev.At)
		}
	}

	if ph.Kill {
		// Keep running under fire until the parent delivers SIGKILL; the
		// generous grace period only expires if the parent itself died.
		time.Sleep(time.Until(start.Add(ph.Dur + 60*time.Second)))
		return fmt.Errorf("chaos: phase %d expected SIGKILL but outlived the schedule", phase)
	}

	// Final phase: the graceful drain. A deadlock anywhere below is a
	// finding — the watchdog turns it into a goroutine dump and a non-zero
	// exit instead of a hung harness.
	if d := time.Until(start.Add(ph.Dur)); d > 0 {
		time.Sleep(d)
	}
	watchdog := time.AfterFunc(45*time.Second, func() {
		buf := make([]byte, 1<<20)
		n := runtime.Stack(buf, true)
		fmt.Fprintf(os.Stderr, "chaos: graceful drain deadlocked; goroutines:\n%s\n", buf[:n])
		os.Exit(3)
	})
	defer watchdog.Stop()

	fault.DisarmAll()
	net.SetDown("alpha", false)
	close(stopPump)
	<-pumpDone
	logf("phase %d: drain begins (published %d, publish errors %d)",
		phase, published.Load(), pubErrs.Load())

	// Let in-flight deliveries land and every outstanding retention
	// deadline come due, then sweep both nodes dry.
	time.Sleep(2*Retain + 500*time.Millisecond)
	close(stopTick)
	<-tickDone
	cutoff := time.Now()
	for i := 0; i < 50 && (alpha.ObligationBacklog() > 0 || beta.ObligationBacklog() > 0); i++ {
		alpha.SweepObligations()
		beta.SweepObligations()
		time.Sleep(100 * time.Millisecond)
	}
	if a, b := alpha.ObligationBacklog(), beta.ObligationBacklog(); a > 0 || b > 0 {
		logf("phase %d: WARNING: backlog not drained (alpha %d, beta %d)", phase, a, b)
	}
	for _, d := range []*core.Domain{alpha, beta} {
		for _, h := range d.Health() {
			if h.State != core.HealthOK {
				logf("phase %d: %s health: %s %s: %s", phase, d.Name(), h.Subsystem, h.State, h.Detail)
			}
		}
		if _, err := d.OffloadAudit(); err != nil {
			return fmt.Errorf("chaos: offload %s: %w", d.Name(), err)
		}
		if err := d.Close(); err != nil {
			return fmt.Errorf("chaos: close %s: %w", d.Name(), err)
		}
	}
	if err := os.WriteFile(filepath.Join(dir, cutoffFile),
		[]byte(strconv.FormatInt(cutoff.UnixNano(), 10)), 0o644); err != nil {
		return err
	}
	logf("phase %d: drain complete", phase)
	return nil
}

// readCutoff loads the retention cutoff the final child recorded.
func readCutoff(dir string) (time.Time, error) {
	raw, err := os.ReadFile(filepath.Join(dir, cutoffFile))
	if err != nil {
		return time.Time{}, err
	}
	ns, err := strconv.ParseInt(string(raw), 10, 64)
	if err != nil {
		return time.Time{}, fmt.Errorf("chaos: bad cutoff file: %w", err)
	}
	return time.Unix(0, ns), nil
}
