package sbus

import (
	"bytes"
	"errors"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"lciot/internal/audit"
	"lciot/internal/fault"
	"lciot/internal/ifc"
	"lciot/internal/msg"
	"lciot/internal/transport"
)

// Tests of the link data path's memory ownership: what a decoded frame
// borrows from its batch, what the delivered message owns, and when an
// egress frame buffer may be reused.

// ingressLink returns a link on cloud-bus (with ann-analyser registered)
// whose peer home-bus has established home-bus:ann-device.out →
// ann-analyser.in. No connection is attached: the test drives the read
// path by hand.
func ingressLink(t *testing.T) (*Bus, *link, *sinkRecorder) {
	t.Helper()
	cloud := NewBus("cloud-bus", openACL(), nil, nil)
	rec := &sinkRecorder{}
	if _, err := cloud.Register("ann-analyser", "hospital", annCtx(), rec.handler(),
		EndpointSpec{Name: "in", Dir: Sink, Schema: vitalsSchema()}); err != nil {
		t.Fatal(err)
	}
	l := cloud.newLink("home-bus", nil, "test")
	ctx := annCtx()
	if err := l.acceptIngress(&LinkFrame{
		Kind: "connect", Src: "home-bus:ann-device.out", Dst: "ann-analyser.in",
		SrcSecrecy: ctx.Secrecy, SrcIntegrity: ctx.Integrity,
		Schema: "vitals", Agent: "hospital",
	}); err != nil {
		t.Fatal(err)
	}
	return cloud, l, rec
}

// annFrame is the message frame header home-bus sends for Ann's device.
func annFrame() LinkFrame {
	ctx := annCtx()
	return LinkFrame{
		Kind: "message", Src: "home-bus:ann-device.out", Dst: "ann-analyser.in",
		SrcSecrecy: ctx.Secrecy, SrcIntegrity: ctx.Integrity,
		Schema: "vitals", Agent: "hospital",
	}
}

// annBatch encodes a one-frame batch carrying m on Ann's channel.
func annBatch(t *testing.T, m *msg.Message) []byte {
	t.Helper()
	f := annFrame()
	raw, err := appendMessageFrame(AppendBatchHeader(nil, 1), &f, m)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

func TestMessageFrameEncodeAllocs(t *testing.T) {
	f := annFrame()
	m := vitalsMessage("ann", 72)
	buf := make([]byte, 0, 512)
	allocs := testing.AllocsPerRun(200, func() {
		var err error
		if buf, err = appendMessageFrame(buf[:0], &f, m); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("encoding a message frame into a recycled buffer: %v allocs, want 0", allocs)
	}
}

func TestDecodeBatchEstablishedAllocs(t *testing.T) {
	_, l, _ := ingressLink(t)
	raw := annBatch(t, vitalsMessage("ann", 72))
	var frames []LinkFrame
	allocs := testing.AllocsPerRun(200, func() {
		var err error
		if frames, err = decodeBatch(raw, frames, l.ingress); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("decoding a message frame on an established channel: %v allocs, want 0", allocs)
	}
	// The resolved strings are the channel's; the labels are the interned
	// ones; the payload is the batch's.
	f := frames[0]
	if f.Src != "home-bus:ann-device.out" || f.Dst != "ann-analyser.in" || f.Agent != "hospital" ||
		f.Schema != "vitals" || !f.SrcSecrecy.Equal(annCtx().Secrecy) || !f.SrcIntegrity.Equal(annCtx().Integrity) {
		t.Fatalf("decoded frame = %+v", f)
	}
	if len(f.Payload) == 0 || &f.Payload[0] != &raw[len(raw)-len(f.Payload)-traceTrailerLen-egressTrailerLen] {
		t.Fatal("payload does not alias the batch")
	}
}

// TestIngressOutlivesBatch: the delivered message and its audit record own
// their memory, so overwriting the batch after dispatch changes neither.
func TestIngressOutlivesBatch(t *testing.T) {
	cloud, l, rec := ingressLink(t)
	raw := annBatch(t, vitalsMessage("ann", 72))
	if _, err := l.receive(nil, raw, nil); err != nil {
		t.Fatal(err)
	}
	for i := range raw {
		raw[i] = 0xFF
	}
	m, d := rec.last()
	if m == nil {
		t.Fatal("nothing delivered")
	}
	if m.Type != "vitals" || m.DataID != "reading-ann" || !m.Attrs["patient"].Equal(msg.Str("ann")) ||
		!m.Attrs["heart-rate"].Equal(msg.Float(72)) || len(m.Attrs) != 2 {
		t.Fatalf("delivered message = %+v", m)
	}
	if d.From != "home-bus:ann-device.out" {
		t.Fatalf("delivery from %q", d.From)
	}
	cloud.Log().Flush()
	got := cloud.Log().Select(func(r audit.Record) bool { return r.Kind == audit.FlowAllowed })
	if len(got) != 1 {
		t.Fatalf("%d delivery records, want 1", len(got))
	}
	r := got[0]
	if r.Src != "home-bus:ann-device.out" || r.Dst != "cloud-bus:ann-analyser" || r.Agent != "hospital" ||
		r.DataID != "reading-ann" || r.Note != "delivered" || !r.SrcCtx.Secrecy.Equal(annCtx().Secrecy) {
		t.Fatalf("delivery record = %+v", r)
	}
}

// recordingNet is a network whose dialed connections record every frame
// they send.
type recordingNet struct {
	transport.Network
	mu   sync.Mutex
	sent [][]byte
}

func (n *recordingNet) Dial(addr string) (transport.Conn, error) {
	c, err := n.Network.Dial(addr)
	if err != nil {
		return nil, err
	}
	return &recordingConn{Conn: c, net: n}, nil
}

func (n *recordingNet) sends() [][]byte {
	n.mu.Lock()
	defer n.mu.Unlock()
	return append([][]byte(nil), n.sent...)
}

type recordingConn struct {
	transport.Conn
	net *recordingNet
}

func (c *recordingConn) Send(frame []byte) error {
	c.net.mu.Lock()
	c.net.sent = append(c.net.sent, bytes.Clone(frame))
	c.net.mu.Unlock()
	return c.Conn.Send(frame)
}

// TestRetransmitKeepsFrameBuffers: a batch whose send fails (the
// sbus.link.send failpoint) is retransmitted with exactly the bytes it was
// first encoded with, although messages published during the outage take
// their buffers from the same free list.
func TestRetransmitKeepsFrameBuffers(t *testing.T) {
	mem := transport.NewMemNetwork()
	net := &recordingNet{Network: mem}
	cfg := fastLinkConfig()
	cfg.BackoffBase, cfg.BackoffMax = 20*time.Millisecond, 20*time.Millisecond
	home := NewBus("home-bus", openACL(), nil, nil)
	home.SetLinkConfig(cfg)
	cloud := NewBus("cloud-bus", openACL(), nil, nil)
	listener, err := mem.Listen("cloud-addr")
	if err != nil {
		t.Fatal(err)
	}
	go cloud.Serve(listener)
	t.Cleanup(func() { home.Close(); cloud.Close(); listener.Close() })
	dev, err := home.Register("ann-device", "hospital", annCtx(), nil,
		EndpointSpec{Name: "out", Dir: Source, Schema: vitalsSchema()})
	if err != nil {
		t.Fatal(err)
	}
	rec := &sinkRecorder{}
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
	// Warm the free list with buffers the writer handed back.
	const warm = 8
	for i := 0; i < warm; i++ {
		if _, err := dev.Publish("out", vitalsMessage("ann", float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, func() bool { return rec.count() == warm }, "warm-up deliveries")

	point := fault.Lookup("sbus.link.send")
	fires := point.Fires()
	fault.Arm("sbus.link.send", fault.Once(fault.Action{Err: errors.New("connection reset")}))
	t.Cleanup(func() { fault.Disarm("sbus.link.send") })
	first := vitalsMessage("ann", 100)
	if _, err := dev.Publish("out", first); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return point.Fires() == fires+1 }, "injected send failure")
	// While the failed batch waits for the redial, publish more: each
	// encodes into a buffer from the free list.
	mem.SetDown("cloud-addr", true)
	const during = 16
	for i := 0; i < during; i++ {
		if _, err := dev.Publish("out", vitalsMessage("ann", float64(200+i))); err != nil {
			t.Fatal(err)
		}
	}
	mem.SetDown("cloud-addr", false)
	waitFor(t, func() bool { return rec.count() == warm+1+during }, "retransmitted and queued deliveries")

	rec.mu.Lock()
	for i, m := range rec.messages[warm:] {
		want := 100.0
		if i > 0 {
			want = float64(200 + i - 1)
		}
		if hr := m.Attrs["heart-rate"].Float; hr != want {
			rec.mu.Unlock()
			t.Fatalf("delivery %d after the failure carries heart-rate %v, want %v", i, hr, want)
		}
	}
	rec.mu.Unlock()
	// The retransmitted frame is byte for byte the frame first encoded.
	f := LinkFrame{
		Kind: "message", Src: "home-bus:ann-device.out", Dst: "ann-analyser.in",
		SrcSecrecy: annCtx().Secrecy, SrcIntegrity: annCtx().Integrity,
		Schema: "vitals", Agent: "hospital",
	}
	want, err := appendMessageFrame(nil, &f, first)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, batch := range net.sends() {
		if bytes.Contains(batch, want) {
			found = true
		}
	}
	if !found {
		t.Fatal("no batch on the wire carries the retained frame's original bytes")
	}
}

// TestErasedDataLeavesNoFreeListCopy: a frame buffer the writer hands back
// after a send is cleared before it joins the link's free list, so no
// payload or DataID byte of a sent frame stays readable there.
func TestErasedDataLeavesNoFreeListCopy(t *testing.T) {
	home, cloud, rec := linkedBuses(t)
	t.Cleanup(func() { home.Close(); cloud.Close() })
	if err := home.Connect("hospital", "ann-device.out", "cloud-bus:ann-analyser.in"); err != nil {
		t.Fatal(err)
	}
	dev, _ := home.Component("ann-device")
	const burst = 32
	for i := 0; i < burst; i++ {
		m := vitalsMessage("ann", float64(i))
		m.DataID = "session/erase-me"
		if _, err := dev.Publish("out", m); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, func() bool { return rec.count() == burst }, "deliveries")
	l := home.linkTo("cloud-bus")
	waitFor(t, func() bool { return len(l.free) > 0 }, "a recycled frame buffer")
	for checked := 0; ; checked++ {
		select {
		case buf := <-l.free:
			for i, c := range buf[:cap(buf)] {
				if c != 0 {
					t.Fatalf("free-list buffer %d keeps frame bytes from offset %d: %q", checked, i, buf[i:cap(buf)])
				}
			}
		default:
			return
		}
	}
}

// runningLinkGoroutines returns the stack frames of goroutines inside a
// handshake or a connect-reply waiter ("created by" lines do not count).
func runningLinkGoroutines() []string {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	var out []string
	for _, line := range strings.Split(string(buf), "\n") {
		if strings.HasPrefix(line, "created by") {
			continue
		}
		if strings.Contains(line, "(*Bus).ServeLink") || strings.Contains(line, "(*link).replayEgress") {
			out = append(out, line)
		}
	}
	return out
}

// fakePeer accepts link connections on addr as bus "fake-bus": it answers
// the hello, answers connects only when answer is set, and otherwise reads
// and ignores everything until the connection closes.
func fakePeer(t *testing.T, net *transport.MemNetwork, addr string, answer bool) {
	t.Helper()
	ln, err := net.Listen(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				if _, err := conn.Recv(); err != nil {
					return
				}
				hello, _ := encodeSingle(&LinkFrame{Kind: "hello", Bus: "fake-bus"})
				if conn.Send(hello) != nil {
					return
				}
				for {
					raw, err := conn.Recv()
					if err != nil {
						return
					}
					frames, err := DecodeBatch(raw)
					if err != nil || !answer {
						continue
					}
					for _, f := range frames {
						if f.Kind == "connect" {
							reply, _ := encodeSingle(&LinkFrame{Kind: "result", ID: f.ID, OK: true})
							_ = conn.Send(reply)
						}
					}
				}
			}()
		}
	}()
}

// TestCloseJoinsHandshakesAndReplyWaiters: a peer that connects and never
// says hello, and a replayed connect the peer never answers, leave no
// goroutine behind once Close returns.
func TestCloseJoinsHandshakesAndReplyWaiters(t *testing.T) {
	net := transport.NewMemNetwork()
	home := NewBus("home-bus", openACL(), nil, nil)
	listener, err := net.Listen("home-addr")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { listener.Close() })
	go home.Serve(listener)
	silent, err := net.Dial("home-addr")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { silent.Close() })

	if _, err := home.Register("ann-device", "hospital", annCtx(), nil,
		EndpointSpec{Name: "out", Dir: Source, Schema: vitalsSchema()}); err != nil {
		t.Fatal(err)
	}
	fakePeer(t, net, "answering", true)
	fakePeer(t, net, "mute", false)
	if _, err := home.LinkTo(net, "answering"); err != nil {
		t.Fatal(err)
	}
	if err := home.Connect("hospital", "ann-device.out", "fake-bus:sink.in"); err != nil {
		t.Fatal(err)
	}
	// Relinking to fake-bus replays the channel's connect, which the mute
	// peer never answers.
	if _, err := home.LinkTo(net, "mute"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool {
		running := strings.Join(runningLinkGoroutines(), "\n")
		return strings.Contains(running, "ServeLink") && strings.Contains(running, "replayEgress")
	}, "a pending handshake and a pending reply waiter")

	home.Close()
	if left := runningLinkGoroutines(); len(left) > 0 {
		t.Fatalf("goroutines still running after Close:\n%s", strings.Join(left, "\n"))
	}
}

// TestCrossBusIngressChecks: every per-message ingress check still denies,
// and audits, on the borrowed-batch decode path.
func TestCrossBusIngressChecks(t *testing.T) {
	denied := func(cloud *Bus, note string) int {
		cloud.Log().Flush()
		return len(cloud.Log().Select(func(r audit.Record) bool {
			return r.Kind == audit.FlowDenied && strings.HasPrefix(r.Note, note)
		}))
	}
	for _, tc := range []struct {
		name  string
		setup func(t *testing.T, cloud *Bus)
		note  string
	}{
		{"quarantine", func(t *testing.T, cloud *Bus) {
			if err := cloud.Quarantine("hospital", "ann-analyser", true); err != nil {
				t.Fatal(err)
			}
		}, "ingress denied: destination quarantined"},
		{"admission", func(t *testing.T, cloud *Bus) {
			cloud.SetAdmissionPolicy(func(ifc.SecurityContext) error { return errors.New("unknown tag") })
		}, "ingress refused by admission policy"},
		{"ifc", func(t *testing.T, cloud *Bus) {
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
		}, "ingress denied by IFC"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cloud, l, rec := ingressLink(t)
			tc.setup(t, cloud)
			if _, err := l.receive(nil, annBatch(t, vitalsMessage("ann", 72)), nil); err != nil {
				t.Fatal(err)
			}
			if rec.count() != 0 {
				t.Fatal("message delivered")
			}
			if n := denied(cloud, tc.note); n != 1 {
				t.Fatalf("%d denials noted %q, want 1", n, tc.note)
			}
		})
	}
	t.Run("type-clearance", func(t *testing.T) {
		cloud := NewBus("cloud-bus", openACL(), nil, nil)
		secret := msg.MustSchema("vitals", ifc.MustLabel("T"),
			msg.Field{Name: "patient", Type: msg.TString},
			msg.Field{Name: "heart-rate", Type: msg.TFloat})
		rec := &sinkRecorder{}
		if _, err := cloud.Register("ann-analyser", "hospital", annCtx(), rec.handler(),
			EndpointSpec{Name: "in", Dir: Sink, Schema: secret}); err != nil {
			t.Fatal(err)
		}
		l := cloud.newLink("home-bus", nil, "test")
		f := annFrame()
		f.Kind = "connect"
		if err := l.acceptIngress(&f); err != nil {
			t.Fatal(err)
		}
		if _, err := l.receive(nil, annBatch(t, vitalsMessage("ann", 72)), nil); err != nil {
			t.Fatal(err)
		}
		if rec.count() != 0 {
			t.Fatal("message delivered")
		}
		if n := denied(cloud, "ingress denied: type tags exceed clearance"); n != 1 {
			t.Fatalf("%d type-clearance denials, want 1", n)
		}
	})
}
