// The E-series: each of E1–E11 reproduces one figure of the paper as a
// scenario with an observable outcome (see DESIGN.md, "Experiments").
// TestFigures runs them all:
//
//	go test -run TestFigures -v .
package lciot_test

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"lciot/internal/ac"
	"lciot/internal/audit"
	"lciot/internal/cep"
	"lciot/internal/core"
	"lciot/internal/ctxmodel"
	"lciot/internal/device"
	"lciot/internal/ifc"
	"lciot/internal/msg"
	"lciot/internal/sbus"
	"lciot/internal/transport"
)

// An experiment reproduces one figure of the paper.
type experiment struct {
	id    string
	title string
	run   func() (observation string, err error)
}

var experiments = []experiment{
	{"E1", "Fig 1: policy->enforce->audit loop", runE1},
	{"E2", "Fig 2: five-hop component chain", runE2},
	{"E3", "Fig 3: declass/endorse flow matrix", runE3},
	{"E4", "Fig 4: illegal flow prevented", runE4},
	{"E5", "Fig 5: sanitiser endorsement", runE5},
	{"E6", "Fig 6: statistics declassification", runE6},
	{"E7", "Fig 7: full home-monitoring system", runE7},
	{"E8", "Fig 8: third-party reconfiguration", runE8},
	{"E9", "Fig 9: cross-machine enforcement", runE9},
	{"E10", "Fig 10: message-layer tags", runE10},
	{"E11", "Fig 11: audit graph queries", runE11},
}

var vitalsSchema = msg.MustSchema("vitals", ifc.EmptyLabel,
	msg.Field{Name: "patient", Type: msg.TString, Required: true},
	msg.Field{Name: "heart-rate", Type: msg.TFloat, Required: true},
)

func annCtx() ifc.SecurityContext {
	return ifc.MustContext([]ifc.Tag{"medical", "ann"}, []ifc.Tag{"hosp-dev", "consent"})
}

func zebCtx() ifc.SecurityContext {
	return ifc.MustContext([]ifc.Tag{"medical", "zeb"}, []ifc.Tag{"zeb-dev", "consent"})
}

func openACL(principals ...ifc.PrincipalID) *ac.ACL {
	var a ac.ACL
	a.DefineRole(ac.Role{Name: "any", Grants: []ac.Permission{{Action: "*", Resource: "**"}}})
	for _, p := range principals {
		_ = a.Assign(ac.Assignment{Principal: p, Role: "any", Args: map[string]string{}})
	}
	return &a
}

func vitalsMsg(patient string, hr float64) *msg.Message {
	m := msg.New("vitals").Set("patient", msg.Str(patient)).Set("heart-rate", msg.Float(hr))
	m.DataID = "reading/" + patient
	return m
}

// runE1 exercises the Fig. 1 loop: policy drives a connection, enforcement
// blocks an illegal one, audit proves both.
func runE1() (string, error) {
	d, err := core.NewDomain("e1", core.Options{})
	if err != nil {
		return "", err
	}
	if _, err := d.Bus().Register("sensor", "h", annCtx(), nil,
		sbus.EndpointSpec{Name: "out", Dir: sbus.Source, Schema: vitalsSchema}); err != nil {
		return "", err
	}
	delivered := 0
	if _, err := d.Bus().Register("analyser", "h", annCtx(),
		func(*msg.Message, sbus.Delivery) { delivered++ },
		sbus.EndpointSpec{Name: "in", Dir: sbus.Sink, Schema: vitalsSchema}); err != nil {
		return "", err
	}
	if _, err := d.Bus().Register("advertiser", "h", ifc.SecurityContext{},
		nil, sbus.EndpointSpec{Name: "in", Dir: sbus.Sink, Schema: vitalsSchema}); err != nil {
		return "", err
	}
	if err := d.LoadPolicy(`rule "p" { on context go when ctx.go do connect "sensor.out" -> "analyser.in" }`); err != nil {
		return "", err
	}
	d.Store().Set("go", ctxmodel.Bool(true))
	if err := d.Bus().Connect(core.PolicyEnginePrincipal, "sensor.out", "advertiser.in"); !errors.Is(err, ifc.ErrFlowDenied) {
		return "", fmt.Errorf("advertiser connect = %v, want denial", err)
	}
	sensor, _ := d.Bus().Component("sensor")
	if _, err := sensor.Publish("out", vitalsMsg("ann", 72)); err != nil {
		return "", err
	}
	rep := audit.Report(d.Log())
	if delivered != 1 || !rep.ChainIntact || rep.ByKind["flow-denied"] != 1 {
		return "", fmt.Errorf("loop incomplete: delivered=%d report=%v", delivered, rep.ByKind)
	}
	return fmt.Sprintf("policy connected channel; 1 delivery, 1 audited denial, chain intact over %d records", rep.Total), nil
}

// runE2 reproduces the Fig. 2 chain with policy persisting end to end.
func runE2() (string, error) {
	bus := sbus.NewBus("e2", openACL("h"), nil, nil)
	names := []string{"home", "gateway", "app", "db", "analyser"}
	counts := make([]int, len(names))
	for i, n := range names {
		i := i
		var specs []sbus.EndpointSpec
		if i > 0 {
			specs = append(specs, sbus.EndpointSpec{Name: "in", Dir: sbus.Sink, Schema: vitalsSchema})
		}
		if i < len(names)-1 {
			specs = append(specs, sbus.EndpointSpec{Name: "out", Dir: sbus.Source, Schema: vitalsSchema})
		}
		if _, err := bus.Register(n, "h", annCtx(),
			func(*msg.Message, sbus.Delivery) { counts[i]++ }, specs...); err != nil {
			return "", err
		}
	}
	for i := 0; i+1 < len(names); i++ {
		if err := bus.Connect("h", names[i]+".out", names[i+1]+".in"); err != nil {
			return "", err
		}
	}
	m := vitalsMsg("ann", 70)
	for i := 0; i+1 < len(names); i++ {
		comp, _ := bus.Component(names[i])
		if _, err := comp.Publish("out", m); err != nil {
			return "", err
		}
	}
	for i := 1; i < len(names); i++ {
		if counts[i] != 1 {
			return "", fmt.Errorf("hop %s received %d", names[i], counts[i])
		}
	}
	// Public exporter cannot be appended.
	if _, err := bus.Register("exporter", "h", ifc.SecurityContext{}, nil,
		sbus.EndpointSpec{Name: "in", Dir: sbus.Sink, Schema: vitalsSchema}); err != nil {
		return "", err
	}
	if err := bus.Connect("h", "analyser.out", "exporter.in"); err == nil {
		return "", errors.New("chain leaked to public exporter")
	}
	return "4 hops delivered under one policy regime; public 5th hop refused", nil
}

// runE3 checks the Fig. 3 flow matrix.
func runE3() (string, error) {
	s1 := ifc.MustContext([]ifc.Tag{"s1"}, nil)
	s1s2 := ifc.MustContext([]ifc.Tag{"s1", "s2"}, nil)
	s3 := ifc.MustContext([]ifc.Tag{"s3"}, nil)
	i1 := ifc.MustContext(nil, []ifc.Tag{"i1"})
	type flow struct {
		src, dst ifc.SecurityContext
		want     bool
	}
	flows := []flow{
		{s1, s1s2, true}, {s1, s3, false}, {s1s2, s1, false}, {s1, i1, false},
	}
	for _, f := range flows {
		if got := f.src.CanFlowTo(f.dst); got != f.want {
			return "", fmt.Errorf("flow %v -> %v = %v, want %v", f.src, f.dst, got, f.want)
		}
	}
	return "allowed: {s1}->{s1,s2}; prevented: cross-domain, reverse, integrity-demanding", nil
}

// runE4 reproduces Fig. 4 with the exact missing tags.
func runE4() (string, error) {
	d := ifc.CheckFlow(zebCtx(), annCtx())
	if d.Allowed {
		return "", errors.New("Zeb->Ann allowed")
	}
	if d.MissingSecrecy.String() != "{zeb}" || d.MissingIntegrity.String() != "{hosp-dev}" {
		return "", fmt.Errorf("missing = %v / %v", d.MissingSecrecy, d.MissingIntegrity)
	}
	if !annCtx().CanFlowTo(annCtx()) {
		return "", errors.New("Ann->Ann denied")
	}
	return "denied with destination S lacking {zeb}, source I lacking {hosp-dev} — exactly Fig 4's annotation", nil
}

// runE5 reproduces the Fig. 5 sanitiser.
func runE5() (string, error) {
	gate := &ifc.Gate{
		Name:   "device-input-sanitiser",
		Input:  zebCtx(),
		Output: ifc.MustContext([]ifc.Tag{"medical", "zeb"}, []ifc.Tag{"hosp-dev", "consent"}),
		Transform: func(b []byte) ([]byte, error) {
			return append([]byte("hosp-format:"), b...), nil
		},
	}
	if gate.Kind() != ifc.GateEndorser {
		return "", fmt.Errorf("gate kind = %v", gate.Kind())
	}
	op := ifc.NewEntity("sanitiser", gate.Input)
	if err := op.GrantPrivileges(gate.RequiredPrivileges()); err != nil {
		return "", err
	}
	out, err := gate.Pipe(op, zebCtx(), gate.Output, []byte("raw"))
	if err != nil {
		return "", err
	}
	if !strings.HasPrefix(string(out), "hosp-format:") {
		return "", errors.New("transform not applied")
	}
	return "endorser bridged zeb-dev -> hosp-dev with mandatory format conversion", nil
}

// runE6 reproduces the Fig. 6 declassifier.
func runE6() (string, error) {
	merged := ifc.MergeContexts(annCtx(), zebCtx())
	statsCtx := ifc.MustContext([]ifc.Tag{"medical", "stats"}, []ifc.Tag{"anon"})
	gate := &ifc.Gate{
		Name:      "statistics-generator",
		Input:     merged,
		Output:    statsCtx,
		Transform: func([]byte) ([]byte, error) { return []byte("aggregate"), nil },
	}
	if err := ifc.EnforceFlow(annCtx(), statsCtx); err == nil {
		return "", errors.New("raw data reached management")
	}
	op := ifc.NewEntity("stats", gate.Input)
	if err := op.GrantPrivileges(gate.RequiredPrivileges()); err != nil {
		return "", err
	}
	out, err := gate.Pipe(op, annCtx(), statsCtx, []byte("ann-raw"))
	if err != nil {
		return "", err
	}
	if string(out) != "aggregate" {
		return "", errors.New("anonymisation skipped")
	}
	return "raw->manager denied; anonymised aggregate flows to S={medical,stats} I={anon}", nil
}

// runE7 reproduces the full Fig. 7 system (condensed from the example).
func runE7() (string, error) {
	now := time.Unix(1700000000, 0)
	clock := func() time.Time { return now }
	d, err := core.NewDomain("e7", core.Options{Clock: clock})
	if err != nil {
		return "", err
	}
	if _, err := d.Bus().Register("ann-analyser", "h", annCtx(), nil,
		sbus.EndpointSpec{Name: "alerts", Dir: sbus.Source, Schema: vitalsSchema}); err != nil {
		return "", err
	}
	if _, err := d.Bus().Register("emergency-team", "h", annCtx(), nil,
		sbus.EndpointSpec{Name: "in", Dir: sbus.Sink, Schema: vitalsSchema}); err != nil {
		return "", err
	}
	actuator := device.NewActuator("ann-sensor", map[string][2]float64{"sample-interval": {1, 3600}})
	d.Devices().RegisterActuator(actuator)
	d.RegisterPattern(&cep.Threshold{
		PatternName: "tachycardia",
		Match:       func(e cep.Event) bool { return e.Value > 120 },
		Count:       3, Window: 10 * time.Minute,
	})
	d.Store().Set("emergency", ctxmodel.Bool(false))
	if err := d.LoadPolicy(`
rule "emergency" priority 10 {
    on event "tachycardia"
    when not ctx.emergency
    do set emergency = true; alert "emergency"; breakglass 30m;
       connect "ann-analyser.alerts" -> "emergency-team.in";
       actuate "ann-sensor" "sample-interval" 1
}`); err != nil {
		return "", err
	}
	sensor := device.NewVitalsSensor("ann-sensor", 70, 42, now, 10*time.Second)
	sensor.ScheduleEpisode(20, 40, 170)
	for i := 0; i < 45; i++ {
		r := sensor.Next()
		d.FeedEvent(cep.Event{Type: "heart-rate", Source: r.DeviceID, Time: r.At, Value: r.Value})
	}
	if len(d.Alerts()) != 1 {
		return "", fmt.Errorf("alerts = %v", d.Alerts())
	}
	if v, _ := actuator.State("sample-interval"); v != 1 {
		return "", errors.New("sensor not actuated")
	}
	if _, active := d.PolicyEngine().OverrideActive(); !active {
		return "", errors.New("break-glass not open")
	}
	now = now.Add(31 * time.Minute)
	d.Tick()
	if len(d.Bus().Channels()) != 0 {
		return "", errors.New("emergency channel not reverted")
	}
	return "emergency detected once; team plugged in under break-glass; sensor re-actuated; reverted after 30m", nil
}

// runE8 reproduces Fig. 8 third-party reconfiguration.
func runE8() (string, error) {
	bus := sbus.NewBus("e8", openACL("policy-engine"), nil, nil)
	if _, err := bus.Register("a", "h", annCtx(), nil,
		sbus.EndpointSpec{Name: "out", Dir: sbus.Source, Schema: vitalsSchema}); err != nil {
		return "", err
	}
	got := 0
	if _, err := bus.Register("b", "h", annCtx(),
		func(*msg.Message, sbus.Delivery) { got++ },
		sbus.EndpointSpec{Name: "in", Dir: sbus.Sink, Schema: vitalsSchema}); err != nil {
		return "", err
	}
	if err := bus.Apply(sbus.ControlOp{Op: "connect", By: "policy-engine", Src: "a.out", Dst: "b.in"}); err != nil {
		return "", err
	}
	if err := bus.Apply(sbus.ControlOp{Op: "connect", By: "mallory", Src: "a.out", Dst: "b.in"}); !errors.Is(err, ac.ErrDenied) {
		return "", fmt.Errorf("mallory = %v", err)
	}
	a, _ := bus.Component("a")
	if _, err := a.Publish("out", vitalsMsg("ann", 70)); err != nil {
		return "", err
	}
	if got != 1 {
		return "", errors.New("resulting interaction missing")
	}
	return "control message by trusted engine created A->B; untrusted issuer refused by AC", nil
}

// runE9 reproduces Fig. 9 cross-machine enforcement.
func runE9() (string, error) {
	net := transport.NewMemNetwork()
	home := sbus.NewBus("home", openACL("h"), nil, nil)
	cloud := sbus.NewBus("cloud", openACL("h"), nil, nil)
	l, err := net.Listen("cloud")
	if err != nil {
		return "", err
	}
	defer l.Close()
	go cloud.Serve(l)
	if _, err := home.LinkTo(net, "cloud"); err != nil {
		return "", err
	}
	if _, err := home.Register("dev", "h", annCtx(), nil,
		sbus.EndpointSpec{Name: "out", Dir: sbus.Source, Schema: vitalsSchema}); err != nil {
		return "", err
	}
	got := make(chan struct{}, 16)
	if _, err := cloud.Register("analyser", "h", annCtx(),
		func(*msg.Message, sbus.Delivery) { got <- struct{}{} },
		sbus.EndpointSpec{Name: "in", Dir: sbus.Sink, Schema: vitalsSchema}); err != nil {
		return "", err
	}
	if err := home.Connect("h", "dev.out", "cloud:analyser.in"); err != nil {
		return "", err
	}
	dev, _ := home.Component("dev")
	if _, err := dev.Publish("out", vitalsMsg("ann", 70)); err != nil {
		return "", err
	}
	select {
	case <-got:
	case <-time.After(5 * time.Second):
		return "", errors.New("no cross-bus delivery")
	}
	egress := home.Log().Select(func(r audit.Record) bool { return r.Kind == audit.FlowAllowed })
	ingress := cloud.Log().Select(func(r audit.Record) bool { return r.Kind == audit.FlowAllowed })
	if len(egress) == 0 || len(ingress) == 0 {
		return "", errors.New("one side did not audit")
	}
	return "message crossed substrates; both sides enforced and audited independently", nil
}

// runE10 reproduces Fig. 10 message-layer tags with quenching.
func runE10() (string, error) {
	person := msg.MustSchema("person", ifc.MustLabel("A", "B"),
		msg.Field{Name: "name", Type: msg.TString, Secrecy: ifc.MustLabel("C")},
		msg.Field{Name: "country", Type: msg.TString},
	)
	bus := sbus.NewBus("e10", openACL("h"), nil, nil)
	if _, err := bus.Register("app", "h", ifc.SecurityContext{}, nil,
		sbus.EndpointSpec{Name: "out", Dir: sbus.Source, Schema: person}); err != nil {
		return "", err
	}
	var quenched []string
	partial, err := bus.Register("partial", "h", ifc.SecurityContext{},
		func(_ *msg.Message, d sbus.Delivery) { quenched = d.Quenched },
		sbus.EndpointSpec{Name: "in", Dir: sbus.Sink, Schema: person})
	if err != nil {
		return "", err
	}
	partial.SetClearance(ifc.MustLabel("A", "B"))
	none, err := bus.Register("none", "h", ifc.SecurityContext{},
		func(*msg.Message, sbus.Delivery) {},
		sbus.EndpointSpec{Name: "in", Dir: sbus.Sink, Schema: person})
	if err != nil {
		return "", err
	}
	none.SetClearance(ifc.MustLabel("A"))
	for _, dst := range []string{"partial.in", "none.in"} {
		if err := bus.Connect("h", "app.out", dst); err != nil {
			return "", err
		}
	}
	app, _ := bus.Component("app")
	m := msg.New("person").Set("name", msg.Str("ann")).Set("country", msg.Str("uk"))
	n, err := app.Publish("out", m)
	if err != nil {
		return "", err
	}
	if n != 1 || len(quenched) != 1 || quenched[0] != "name" {
		return "", fmt.Errorf("n=%d quenched=%v", n, quenched)
	}
	return "type tags {A,B} blocked the uncleared sink; attribute tag C quenched 'name' for the partial sink", nil
}

// runE11 reproduces the Fig. 11 audit-graph queries.
func runE11() (string, error) {
	g := &audit.Graph{}
	for _, n := range []audit.Node{
		{ID: "F1", Kind: audit.NodeData}, {ID: "F2", Kind: audit.NodeData},
		{ID: "F3", Kind: audit.NodeData}, {ID: "F4", Kind: audit.NodeData},
		{ID: "P1", Kind: audit.NodeProcess}, {ID: "P2", Kind: audit.NodeProcess},
		{ID: "A1", Kind: audit.NodeAgent}, {ID: "A2", Kind: audit.NodeAgent},
	} {
		g.AddNode(n)
	}
	edges := []audit.Edge{
		{Src: "P1", Dst: "F1", Kind: audit.EdgeUsed},
		{Src: "P1", Dst: "F2", Kind: audit.EdgeUsed},
		{Src: "F3", Dst: "P1", Kind: audit.EdgeGeneratedBy},
		{Src: "P2", Dst: "F3", Kind: audit.EdgeUsed},
		{Src: "F4", Dst: "P2", Kind: audit.EdgeGeneratedBy},
		{Src: "P2", Dst: "P1", Kind: audit.EdgeInformedBy},
		{Src: "P1", Dst: "A1", Kind: audit.EdgeControlledBy},
		{Src: "P2", Dst: "A2", Kind: audit.EdgeControlledBy},
	}
	for _, e := range edges {
		if err := g.AddEdge(e); err != nil {
			return "", err
		}
	}
	anc, err := g.Ancestry("F4")
	if err != nil {
		return "", err
	}
	agents, err := g.Agents("F4")
	if err != nil {
		return "", err
	}
	if len(anc) != 7 || len(agents) != 2 {
		return "", fmt.Errorf("ancestry=%d agents=%d", len(anc), len(agents))
	}
	return fmt.Sprintf("F4's ancestry reaches %d nodes incl. sources F1,F2; responsible agents: %s",
		len(anc), strings.Join(agents, ",")), nil
}

// TestFigures runs every figure reproduction as a subtest named by its
// experiment ID and logs what it observed.
func TestFigures(t *testing.T) {
	for _, exp := range experiments {
		t.Run(exp.id, func(t *testing.T) {
			obs, err := exp.run()
			if err != nil {
				t.Fatalf("%s: %v", exp.title, err)
			}
			t.Logf("%s: %s", exp.title, obs)
		})
	}
}
