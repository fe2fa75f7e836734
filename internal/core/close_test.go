package core

import (
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"lciot/internal/attest"
	"lciot/internal/msg"
	"lciot/internal/sbus"
	"lciot/internal/transport"
)

// TestCloseIdempotentAgainstConcurrentSweeps is the shutdown race test:
// Tick and SweepObligations hammer a durable domain from several
// goroutines while Close runs — repeatedly and concurrently — part way
// through. The contract: no panic, no sweep touching a closed store,
// every Close call returning the first call's result, and post-Close
// ticks/sweeps degrading to no-ops. Run under -race this also proves the
// sweepMu barrier actually orders sweeps against the store teardown.
func TestCloseIdempotentAgainstConcurrentSweeps(t *testing.T) {
	for iter := 0; iter < 5; iter++ {
		clock := newTestClock()
		d, src := obligationDomain(t, t.TempDir(), clock)
		publishTelemetry(t, src, "pump-7", 50)
		clock.Advance(2 * time.Hour) // every deadline is now due

		var wg sync.WaitGroup
		start := make(chan struct{})
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				for i := 0; i < 50; i++ {
					d.Tick()
					d.SweepObligations()
				}
			}()
		}
		errs := make([]error, 3)
		for g := range errs {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				<-start
				time.Sleep(time.Duration(g) * 100 * time.Microsecond)
				errs[g] = d.Close()
			}(g)
		}
		close(start)
		wg.Wait()

		for g := 1; g < len(errs); g++ {
			if errs[g] != errs[0] {
				t.Fatalf("iter %d: Close results diverge: %v vs %v", iter, errs[0], errs[g])
			}
		}
		if errs[0] != nil {
			t.Fatalf("iter %d: Close: %v", iter, errs[0])
		}
		// After Close, both entry points are inert.
		d.Tick()
		if n := d.SweepObligations(); n != 0 {
			t.Fatalf("iter %d: sweep on closed domain executed %d deadlines", iter, n)
		}
		if err := d.Close(); err != nil {
			t.Fatalf("iter %d: repeat Close: %v", iter, err)
		}
	}
}

// TestCloseJoinsLinkLoops: once both domains of a federation are closed,
// none of their links' writer or supervisor loops is still running. Close
// shuts every link down and waits for the loops; nothing polls here.
func TestCloseJoinsLinkLoops(t *testing.T) {
	clock := newTestClock()
	net := transport.NewMemNetwork()
	hospital := newDomain(t, clock)
	home, err := NewDomain("home", Options{Clock: clock.Now})
	if err != nil {
		t.Fatal(err)
	}
	listener, err := net.Listen("hospital-addr")
	if err != nil {
		t.Fatal(err)
	}
	go hospital.Serve(listener)
	t.Cleanup(func() { listener.Close() })
	home.EnrollPeer(hospital.TPM().DeviceID(), hospital.TPM().EndorsementKey())
	if _, err := home.Federate(net, "hospital-addr", hospital.TPM(), attest.Policy{}); err != nil {
		t.Fatal(err)
	}
	if _, err := home.Bus().Register("ann-device", "hospital", annCtx(), nil,
		sbus.EndpointSpec{Name: "out", Dir: sbus.Source, Schema: vitalsSchema()}); err != nil {
		t.Fatal(err)
	}
	rec := &recorder{}
	if _, err := hospital.Bus().Register("ann-analyser", "hospital", annCtx(), rec.handler(),
		sbus.EndpointSpec{Name: "in", Dir: sbus.Sink, Schema: vitalsSchema()}); err != nil {
		t.Fatal(err)
	}
	if err := home.Bus().Connect(PolicyEnginePrincipal, "ann-device.out", "hospital:ann-analyser.in"); err != nil {
		t.Fatal(err)
	}
	dev, _ := home.Bus().Component("ann-device")
	const sent = 20
	for i := 0; i < sent; i++ {
		m := msg.New("vitals").Set("patient", msg.Str("ann")).Set("heart-rate", msg.Float(70))
		if _, err := dev.Publish("out", m); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for rec.count() < sent && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if rec.count() != sent {
		t.Fatalf("delivered %d of %d messages across the link", rec.count(), sent)
	}

	home.Close()
	hospital.Close()
	if loops := runningLinkLoops(); len(loops) > 0 {
		t.Fatalf("link loops still running after Close:\n%s", strings.Join(loops, "\n"))
	}
}

// runningLinkLoops returns the frames of every goroutine currently inside
// a link's writer or supervisor loop ("created by" lines do not count).
func runningLinkLoops() []string {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	var out []string
	for _, line := range strings.Split(string(buf), "\n") {
		if strings.HasPrefix(line, "created by") {
			continue
		}
		if strings.Contains(line, "(*link).writeLoop") || strings.Contains(line, "(*link).supervise") {
			out = append(out, line)
		}
	}
	return out
}
