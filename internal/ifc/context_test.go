package ifc

import (
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

// Generate implements quick.Generator for SecurityContext.
func (SecurityContext) Generate(r *rand.Rand, _ int) reflect.Value {
	return reflect.ValueOf(SecurityContext{Secrecy: genLabel(r), Integrity: genLabel(r)})
}

func TestCanFlowToBasic(t *testing.T) {
	public := SecurityContext{}
	medical := MustContext([]Tag{"medical"}, nil)
	medicalAnn := MustContext([]Tag{"medical", "ann"}, nil)
	endorsed := MustContext(nil, []Tag{"hosp-dev"})

	tests := []struct {
		name     string
		src, dst SecurityContext
		want     bool
	}{
		{"public-to-public", public, public, true},
		{"public-to-secret", public, medical, true},
		{"secret-to-public", medical, public, false},
		{"secret-to-more-secret", medical, medicalAnn, true},
		{"more-secret-to-less", medicalAnn, medical, false},
		{"same-domain", medicalAnn, medicalAnn, true},
		{"integrity-demanded-not-held", public, endorsed, false},
		{"integrity-held-to-undemanding", endorsed, public, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.src.CanFlowTo(tt.dst); got != tt.want {
				t.Fatalf("CanFlowTo(%v -> %v) = %v, want %v", tt.src, tt.dst, got, tt.want)
			}
		})
	}
}

// TestFig3FlowMatrix reproduces experiment E3: the allowed and prevented
// flows in Fig. 3 of the paper. Data labelled S={s1} may flow to S={s1,s2}
// but not to S={s3} nor to the endorser's I={i1} domain; once in {s1,s2}
// it stays there.
func TestFig3FlowMatrix(t *testing.T) {
	s1 := MustContext([]Tag{"s1"}, nil)
	s1s2 := MustContext([]Tag{"s1", "s2"}, nil)
	s3 := MustContext([]Tag{"s3"}, nil)
	i1 := MustContext(nil, []Tag{"i1"})

	allowed := [][2]SecurityContext{
		{s1, s1s2}, // into the more constrained domain
	}
	prevented := [][2]SecurityContext{
		{s1, s3},   // disjoint secrecy domain
		{s1s2, s1}, // cannot flow back out (confinement)
		{s1, i1},   // destination demands integrity i1 the source lacks
		{s3, s1s2}, // s3 not covered downstream
	}
	for _, f := range allowed {
		if !f[0].CanFlowTo(f[1]) {
			t.Errorf("Fig3: flow %v -> %v should be allowed", f[0], f[1])
		}
	}
	for _, f := range prevented {
		if f[0].CanFlowTo(f[1]) {
			t.Errorf("Fig3: flow %v -> %v should be prevented", f[0], f[1])
		}
	}
}

// TestFig4HomeMonitoringFlows reproduces the label arithmetic of Fig. 4:
// Ann's sensors may feed Ann's analyser; Zeb's sensors fail both the
// secrecy and the integrity half of the rule.
func TestFig4HomeMonitoringFlows(t *testing.T) {
	annDevice := MustContext([]Tag{"medical", "ann"}, []Tag{"hosp-dev", "consent"})
	annAnalyser := MustContext([]Tag{"medical", "ann"}, []Tag{"hosp-dev", "consent"})
	zebDevice := MustContext([]Tag{"medical", "zeb"}, []Tag{"zeb-dev", "consent"})

	if !annDevice.CanFlowTo(annAnalyser) {
		t.Fatal("Ann's data must flow to Ann's analyser")
	}

	d := CheckFlow(zebDevice, annAnalyser)
	if d.Allowed {
		t.Fatal("Zeb's data must not flow to Ann's analyser")
	}
	if want := MustLabel("zeb"); !d.MissingSecrecy.Equal(want) {
		t.Errorf("missing secrecy = %v, want %v (destination S has no zeb)", d.MissingSecrecy, want)
	}
	if want := MustLabel("hosp-dev"); !d.MissingIntegrity.Equal(want) {
		t.Errorf("missing integrity = %v, want %v (source I has no hosp-dev)", d.MissingIntegrity, want)
	}
}

func TestEnforceFlowError(t *testing.T) {
	src := MustContext([]Tag{"medical", "zeb"}, []Tag{"zeb-dev"})
	dst := MustContext([]Tag{"medical", "ann"}, []Tag{"hosp-dev"})
	err := EnforceFlow(src, dst)
	if err == nil {
		t.Fatal("expected denial")
	}
	if !errors.Is(err, ErrFlowDenied) {
		t.Fatal("error must match ErrFlowDenied")
	}
	var fe *FlowError
	if !errors.As(err, &fe) {
		t.Fatal("error must be a *FlowError")
	}
	msg := err.Error()
	for _, frag := range []string{"flow denied", "zeb", "hosp-dev"} {
		if !strings.Contains(msg, frag) {
			t.Errorf("error message %q missing %q", msg, frag)
		}
	}
	if err := EnforceFlow(dst, dst); err != nil {
		t.Fatalf("same-domain flow denied: %v", err)
	}
}

func TestMergeContexts(t *testing.T) {
	ann := MustContext([]Tag{"medical", "ann"}, []Tag{"hosp-dev", "consent"})
	zeb := MustContext([]Tag{"medical", "zeb"}, []Tag{"hosp-dev", "consent"})
	bob := MustContext([]Tag{"medical", "bob"}, []Tag{"consent"})

	merged := MergeContexts(ann, zeb, bob)
	wantS := MustLabel("ann", "bob", "medical", "zeb")
	wantI := MustLabel("consent")
	if !merged.Secrecy.Equal(wantS) {
		t.Errorf("merged secrecy = %v, want %v", merged.Secrecy, wantS)
	}
	if !merged.Integrity.Equal(wantI) {
		t.Errorf("merged integrity = %v, want %v", merged.Integrity, wantI)
	}
	// Every input must be able to flow into the merge.
	for _, c := range []SecurityContext{ann, zeb, bob} {
		if !c.CanFlowTo(merged) {
			t.Errorf("%v cannot flow into merged context %v", c, merged)
		}
	}
	if got := MergeContexts(); !got.Equal(SecurityContext{}) {
		t.Errorf("MergeContexts() = %v, want zero", got)
	}
}

func TestCheckFlowAllowedAllocatesNothing(t *testing.T) {
	a := MustContext([]Tag{"medical"}, []Tag{"consent"})
	b := MustContext([]Tag{"medical", "ann"}, nil)
	allocs := testing.AllocsPerRun(100, func() {
		if d := CheckFlow(a, b); !d.Allowed {
			t.Fatal("flow should be allowed")
		}
	})
	if allocs != 0 {
		t.Errorf("CheckFlow allocated %.1f times per allowed check, want 0", allocs)
	}
}

// TestCheckFlowResidencyDenyCachedAllocatesNothing: a flow that carries
// secrecy tags and residency/purpose facets, denied because the sink's
// jurisdiction is outside the source's, is decided by the same cached flow
// rule as a plain check, and a repeated (cached) denial allocates nothing.
func TestCheckFlowResidencyDenyCachedAllocatesNothing(t *testing.T) {
	tags := make([]Tag, 10)
	for i := range tags {
		tags[i] = Tag("t" + string(rune('0'+i)))
	}
	src := SecurityContext{Secrecy: MustLabel(tags...)}.
		WithJurisdiction(MustLabel("eu", "uk")).WithPurpose(MustLabel("research", "treatment"))
	dst := SecurityContext{Secrecy: MustLabel(tags...).With("x")}.
		WithJurisdiction(MustLabel("us")).WithPurpose(MustLabel("research"))
	if d := CheckFlow(src, dst); d.Allowed {
		t.Fatal("flow to a jurisdiction outside the source's should be denied")
	}
	allocs := testing.AllocsPerRun(100, func() {
		if d := CheckFlow(src, dst); d.Allowed {
			t.Fatal("flow should be denied")
		}
	})
	if allocs != 0 {
		t.Errorf("CheckFlow allocated %.1f times per cached residency denial, want 0", allocs)
	}
}

// Property: the flow relation is a preorder (reflexive and transitive).
// Confinement depends on transitivity: if A cannot reach C directly, it must
// not be able to reach it through B either.
func TestFlowPropertyPreorder(t *testing.T) {
	if err := quick.Check(func(a SecurityContext) bool { return a.CanFlowTo(a) }, nil); err != nil {
		t.Error("flow not reflexive:", err)
	}
	if err := quick.Check(func(a, b, c SecurityContext) bool {
		if a.CanFlowTo(b) && b.CanFlowTo(c) {
			return a.CanFlowTo(c)
		}
		return true
	}, nil); err != nil {
		t.Error("flow not transitive:", err)
	}
}

// Property: adding a secrecy tag to the source only ever removes flows;
// adding an integrity requirement to the destination likewise.
func TestFlowPropertyMonotonicity(t *testing.T) {
	if err := quick.Check(func(a, b SecurityContext) bool {
		restricted := a
		restricted.Secrecy = a.Secrecy.With("extra-secret")
		if restricted.CanFlowTo(b) && !a.CanFlowTo(b) {
			return false // restriction added a flow: impossible
		}
		return true
	}, nil); err != nil {
		t.Error("secrecy restriction not monotone:", err)
	}
	if err := quick.Check(func(a, b SecurityContext) bool {
		demanding := b
		demanding.Integrity = b.Integrity.With("extra-integrity")
		if a.CanFlowTo(demanding) && !a.CanFlowTo(b) {
			return false
		}
		return true
	}, nil); err != nil {
		t.Error("integrity demand not monotone:", err)
	}
}

// Property: CheckFlow's explanation is exact — the flow is allowed iff both
// missing sets are empty, and removing the reported missing tags from the
// source secrecy (or adding to destination) repairs that half of the rule.
func TestFlowPropertyDecisionExact(t *testing.T) {
	if err := quick.Check(func(a, b SecurityContext) bool {
		d := CheckFlow(a, b)
		if d.Allowed != (d.MissingSecrecy.IsEmpty() && d.MissingIntegrity.IsEmpty()) {
			return false
		}
		if d.Allowed {
			return a.CanFlowTo(b)
		}
		// Repair: grant the destination the missing secrecy clearance and
		// the source the missing integrity guarantees.
		repairedDst := b
		repairedDst.Secrecy = b.Secrecy.Union(d.MissingSecrecy)
		repairedSrc := a
		repairedSrc.Integrity = a.Integrity.Union(d.MissingIntegrity)
		fixed := SecurityContext{Secrecy: repairedSrc.Secrecy, Integrity: repairedSrc.Integrity}
		return fixed.CanFlowTo(repairedDst)
	}, nil); err != nil {
		t.Error("flow decision not exact:", err)
	}
}

// Property: MergeContexts is the least upper bound for the inputs — every
// input flows into it, and it flows into any other context all inputs flow
// into.
func TestMergePropertyLeastUpperBound(t *testing.T) {
	if err := quick.Check(func(a, b, other SecurityContext) bool {
		m := MergeContexts(a, b)
		if !a.CanFlowTo(m) || !b.CanFlowTo(m) {
			return false
		}
		if a.CanFlowTo(other) && b.CanFlowTo(other) {
			return m.CanFlowTo(other)
		}
		return true
	}, nil); err != nil {
		t.Error("merge not a least upper bound:", err)
	}
}

func TestContextString(t *testing.T) {
	c := MustContext([]Tag{"medical", "ann"}, []Tag{"hosp-dev"})
	want := "S={ann,medical} I={hosp-dev}"
	if got := c.String(); got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
	if got, want := (SecurityContext{}).String(), "S=∅ I=∅"; got != want {
		t.Fatalf("zero String() = %q, want %q", got, want)
	}
}

func TestCreationContextInheritsLabels(t *testing.T) {
	parent := MustContext([]Tag{"medical"}, []Tag{"consent"})
	child := CreationContext(parent)
	if !child.Equal(parent) {
		t.Fatalf("creation context %v, want %v", child, parent)
	}
}
