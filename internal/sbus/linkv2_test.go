package sbus

import (
	"errors"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"lciot/internal/audit"
	"lciot/internal/ifc"
	"lciot/internal/transport"
)

// fastLinkConfig keeps reconnect machinery snappy for tests.
func fastLinkConfig() LinkConfig {
	return LinkConfig{
		QueueLen:    256,
		SendTimeout: 250 * time.Millisecond,
		RetryBudget: 50,
		BackoffBase: time.Millisecond,
		BackoffMax:  5 * time.Millisecond,
	}
}

// fedPair builds home←→cloud over an in-memory network with a cross-bus
// channel ann-device.out → cloud-bus:ann-analyser.in established.
func fedPair(t *testing.T, cfg LinkConfig) (net *transport.MemNetwork, home, cloud *Bus, rec *sinkRecorder) {
	t.Helper()
	net = transport.NewMemNetwork()
	home = NewBus("home-bus", openACL(), nil, nil)
	home.SetLinkConfig(cfg)
	cloud = NewBus("cloud-bus", openACL(), nil, nil)
	cloud.SetLinkConfig(cfg)

	listener, err := net.Listen("cloud-addr")
	if err != nil {
		t.Fatal(err)
	}
	go cloud.Serve(listener)
	t.Cleanup(func() { listener.Close() })

	if _, err := home.Register("ann-device", "hospital", annCtx(), nil,
		EndpointSpec{Name: "out", Dir: Source, Schema: vitalsSchema()}); err != nil {
		t.Fatal(err)
	}
	rec = &sinkRecorder{}
	if _, err := cloud.Register("ann-analyser", "hospital", annCtx(), rec.handler(),
		EndpointSpec{Name: "in", Dir: Sink, Schema: vitalsSchema()}); err != nil {
		t.Fatal(err)
	}
	if _, err := home.LinkTo(net, "cloud-addr"); err != nil {
		t.Fatal(err)
	}
	if err := home.Connect("hospital", "ann-device.out", "cloud-bus:ann-analyser.in"); err != nil {
		t.Fatal(err)
	}
	return net, home, cloud, rec
}

// TestPartitionHealResume is the headline v2 behaviour: a partition kills
// the connection, messages published during the outage queue on the
// bounded egress buffer, and once the network heals the link reconnects,
// replays the connect handshake (the acceptor's fresh ingress table is
// rebuilt) and delivers the buffered traffic.
func TestPartitionHealResume(t *testing.T) {
	net, home, cloud, rec := fedPair(t, fastLinkConfig())
	annDev, _ := home.Component("ann-device")

	if _, err := annDev.Publish("out", vitalsMessage("ann", 72)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return rec.count() == 1 }, "pre-partition delivery")

	net.SetDown("cloud-addr", true)
	// Force the failure to be noticed immediately rather than on the next
	// keepalive-less write.
	link := home.linkTo("cloud-bus")
	link.mu.Lock()
	conn := link.conn
	link.mu.Unlock()
	conn.Close()
	waitFor(t, func() bool {
		st := home.LinkStatus()
		return len(st) == 1 && st[0].State == LinkReconnecting
	}, "reconnecting state")

	// Publish during the outage: the frames buffer on the send queue.
	for i := 0; i < 5; i++ {
		if _, err := annDev.Publish("out", vitalsMessage("ann", float64(80+i))); err != nil {
			t.Fatal(err)
		}
	}
	if st := home.LinkStatus(); st[0].QueueDepth == 0 {
		t.Fatal("outage traffic did not queue")
	}

	net.SetDown("cloud-addr", false)
	waitFor(t, func() bool { return rec.count() == 6 }, "buffered traffic after heal")

	st := home.LinkStatus()
	if st[0].State != LinkUp || st[0].Reconnects < 1 || !st[0].Dialer {
		t.Fatalf("post-heal status = %+v", st[0])
	}
	// The acceptor re-validated ingress on resume: a second accept record.
	accepts := cloud.Log().Select(func(r audit.Record) bool {
		return r.Note == "cross-bus ingress accepted"
	})
	if len(accepts) < 2 {
		t.Fatalf("ingress accepts = %d, want >= 2 (original + resume)", len(accepts))
	}
	// And the dialer audited the resume.
	resumed := home.Log().Select(func(r audit.Record) bool {
		return r.Kind == audit.Reconfiguration && containsAll(r.Note, "link resumed", "channels replayed")
	})
	if len(resumed) == 0 {
		t.Fatal("no resume audit record")
	}
}

// TestResumeRefusedTearsChannelDown: if the sink's context changed during
// the outage so the flow is now illegal, the resume handshake is refused
// and the stale egress channel is torn down instead of silently dropping
// every message.
func TestResumeRefusedTearsChannelDown(t *testing.T) {
	net, home, cloud, rec := fedPair(t, fastLinkConfig())
	annDev, _ := home.Component("ann-device")
	if _, err := annDev.Publish("out", vitalsMessage("ann", 72)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return rec.count() == 1 }, "pre-partition delivery")

	net.SetDown("cloud-addr", true)
	link := home.linkTo("cloud-bus")
	link.mu.Lock()
	conn := link.conn
	link.mu.Unlock()
	conn.Close()

	// While partitioned, the analyser declassifies: Ann's data must no
	// longer flow to it.
	analyser, _ := cloud.Component("ann-analyser")
	if err := analyser.Entity().GrantPrivileges(ifc.Privileges{
		RemoveSecrecy:   ifc.MustLabel("ann", "medical"),
		RemoveIntegrity: ifc.MustLabel("hosp-dev", "consent"),
	}); err != nil {
		t.Fatal(err)
	}
	if err := analyser.SetContext(ifc.SecurityContext{}); err != nil {
		t.Fatal(err)
	}

	net.SetDown("cloud-addr", false)
	waitFor(t, func() bool { return len(home.Channels()) == 0 }, "stale channel teardown")
	torn := home.Log().Select(func(r audit.Record) bool {
		return containsAll(r.Note, "resume refused")
	})
	if len(torn) != 1 {
		t.Fatalf("teardown audit records = %d, want 1", len(torn))
	}
}

// TestRetryBudgetExhaustedReportsLinkDown: when the peer never comes back,
// the link retries its whole budget, then is removed; egress reports
// ErrLinkDown from that point on.
func TestRetryBudgetExhaustedReportsLinkDown(t *testing.T) {
	cfg := fastLinkConfig()
	cfg.RetryBudget = 3
	net, home, _, _ := fedPair(t, cfg)
	annDev, _ := home.Component("ann-device")

	net.SetDown("cloud-addr", true)
	link := home.linkTo("cloud-bus")
	link.mu.Lock()
	conn := link.conn
	link.mu.Unlock()
	conn.Close()

	waitFor(t, func() bool { return len(home.Links()) == 0 }, "link removal")
	exhausted := home.Log().Select(func(r audit.Record) bool {
		return containsAll(r.Note, "link closed", "retry budget exhausted")
	})
	if len(exhausted) != 1 {
		t.Fatalf("budget-exhausted audit records = %d, want 1", len(exhausted))
	}
	if n, err := annDev.Publish("out", vitalsMessage("ann", 72)); err != nil || n != 0 {
		t.Fatalf("publish after budget exhaustion = %d, %v", n, err)
	}
	if _, err := home.linkFor("cloud-bus"); !errors.Is(err, ErrLinkDown) {
		t.Fatalf("linkFor = %v, want ErrLinkDown", err)
	}
}

// TestBackpressureBoundsEgress: with the peer partitioned and the queue
// full, enqueueing fails with ErrBackpressure after SendTimeout instead of
// blocking forever or growing without bound.
func TestBackpressureBoundsEgress(t *testing.T) {
	cfg := fastLinkConfig()
	cfg.QueueLen = 4
	cfg.SendTimeout = 30 * time.Millisecond
	// MaxBatch 1 bounds what the writer can absorb beyond the queue to a
	// single in-flight frame, making the observable bound deterministic;
	// a large budget keeps the link in reconnecting (not closed) state
	// for the duration of the test.
	cfg.MaxBatch = 1
	cfg.RetryBudget = 100000
	net, home, _, _ := fedPair(t, cfg)

	net.SetDown("cloud-addr", true)
	link := home.linkTo("cloud-bus")
	link.mu.Lock()
	conn := link.conn
	link.mu.Unlock()
	conn.Close()
	waitFor(t, func() bool {
		st := home.LinkStatus()
		return len(st) == 1 && st[0].State == LinkReconnecting
	}, "reconnecting state")

	// Fill the queue (the writer may hold one batch in flight, so allow a
	// few extra) and require a bounded-time backpressure failure.
	var sawBackpressure bool
	start := time.Now()
	for i := 0; i < cfg.QueueLen+3; i++ {
		if err := link.enqueue([]byte("frame-" + strconv.Itoa(i))); err != nil {
			if !errors.Is(err, ErrBackpressure) {
				t.Fatalf("enqueue error = %v, want ErrBackpressure", err)
			}
			sawBackpressure = true
			break
		}
	}
	if !sawBackpressure {
		t.Fatal("queue accepted more frames than its bound")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("backpressure took %v, want bounded by SendTimeout", elapsed)
	}
}

// TestLinkReplaceFailsPending is the regression test for the addLink bug:
// replacing a live link to the same peer used to strand the old link's
// pending request channels until their 10s timeout. They must fail
// immediately with ErrLinkDown.
func TestLinkReplaceFailsPending(t *testing.T) {
	net, home, _, _ := fedPair(t, fastLinkConfig())
	link := home.linkTo("cloud-bus")

	// A request the peer will never answer: "result" frames with unknown
	// IDs are dispatched into the void.
	errCh := make(chan error, 1)
	go func() {
		_, err := link.request(LinkFrame{Kind: "result", OK: true})
		errCh <- err
	}()
	waitFor(t, func() bool {
		link.mu.Lock()
		defer link.mu.Unlock()
		return len(link.pending) == 1
	}, "pending registration")

	// The peer redials: a replacement link for the same peer is installed.
	if _, err := home.LinkTo(net, "cloud-addr"); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errCh:
		if !errors.Is(err, ErrLinkDown) {
			t.Fatalf("stranded request error = %v, want ErrLinkDown", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("pending request still stranded after link replacement")
	}
}

// TestConnectDuringOutageCompletesAfterResume: a Connect issued while the
// link is reconnecting queues its handshake and completes once the session
// resumes (pipelining through the outage).
func TestConnectDuringOutageCompletesAfterResume(t *testing.T) {
	net, home, cloud, _ := fedPair(t, fastLinkConfig())

	if _, err := home.Register("ann-monitor", "hospital", annCtx(), nil,
		EndpointSpec{Name: "out", Dir: Source, Schema: vitalsSchema()}); err != nil {
		t.Fatal(err)
	}
	rec2 := &sinkRecorder{}
	if _, err := cloud.Register("ann-archive", "hospital", annCtx(), rec2.handler(),
		EndpointSpec{Name: "in", Dir: Sink, Schema: vitalsSchema()}); err != nil {
		t.Fatal(err)
	}

	net.SetDown("cloud-addr", true)
	link := home.linkTo("cloud-bus")
	link.mu.Lock()
	conn := link.conn
	link.mu.Unlock()
	conn.Close()
	waitFor(t, func() bool {
		st := home.LinkStatus()
		return len(st) == 1 && st[0].State == LinkReconnecting
	}, "reconnecting state")

	var connected atomic.Bool
	go func() {
		if err := home.Connect("hospital", "ann-monitor.out", "cloud-bus:ann-archive.in"); err == nil {
			connected.Store(true)
		}
	}()
	time.Sleep(20 * time.Millisecond) // let the connect frame queue
	net.SetDown("cloud-addr", false)
	waitFor(t, connected.Load, "connect completion after resume")

	mon, _ := home.Component("ann-monitor")
	if _, err := mon.Publish("out", vitalsMessage("ann", 64)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return rec2.count() == 1 }, "delivery on channel connected mid-outage")
}

// TestEgressBatchingCoalesces: a burst of messages published while the
// writer is busy crosses the wire in fewer transport frames than messages.
func TestEgressBatchingCoalesces(t *testing.T) {
	net, home, _, rec := fedPair(t, fastLinkConfig())
	net.SetLatency(2 * time.Millisecond) // hold the writer per round trip
	defer net.SetLatency(0)

	annDev, _ := home.Component("ann-device")
	const burst = 50
	for i := 0; i < burst; i++ {
		if _, err := annDev.Publish("out", vitalsMessage("ann", float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, func() bool { return rec.count() == burst }, "burst delivery")
	// With 2ms per transport frame, 50 unbatched frames would need 100ms+.
	// This is inherently timing-ish, so only assert the queue drained and
	// everything arrived; the batching win shows up in B12.
	if st := home.LinkStatus(); st[0].QueueDepth != 0 {
		t.Fatalf("queue not drained: %+v", st[0])
	}
}

// TestHandshakeRejectsOtherVersion: a peer whose hello batch is stamped
// with another protocol version (here v4, whose trailer stops after the
// trace bytes) is refused at the handshake: its conn is closed with no
// reply, no link is added, and the bus audits the rejection.
func TestHandshakeRejectsOtherVersion(t *testing.T) {
	net := transport.NewMemNetwork()
	bus := NewBus("cloud-bus", openACL(), nil, nil)
	listener, err := net.Listen("cloud-addr")
	if err != nil {
		t.Fatal(err)
	}
	go bus.Serve(listener)
	t.Cleanup(func() { listener.Close() })

	conn, err := net.Dial("cloud-addr")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	hello, err := encodeSingle(&LinkFrame{Kind: "hello", Bus: "old-bus"})
	if err != nil {
		t.Fatal(err)
	}
	hello[1] = 4
	hello = hello[:len(hello)-egressTrailerLen]
	if err := conn.Send(hello); err != nil {
		t.Fatal(err)
	}
	if reply, err := conn.Recv(); err == nil {
		t.Fatalf("v4 hello answered with %d bytes, want the conn closed", len(reply))
	}
	rejected := func() []audit.Record {
		return bus.Log().Select(func(r audit.Record) bool {
			return strings.HasPrefix(r.Note, "link handshake rejected")
		})
	}
	waitFor(t, func() bool { return len(rejected()) == 1 }, "handshake rejection audit")
	if got := rejected()[0].Note; !strings.Contains(got, "v4") {
		t.Fatalf("rejection audit %q does not name the peer's version", got)
	}
	if links := bus.Links(); len(links) != 0 {
		t.Fatalf("links after a rejected handshake = %v, want none", links)
	}
}
