package ifc

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func TestNewLabelSortsAndDeduplicates(t *testing.T) {
	l := MustLabel("medical", "ann", "medical", "zeb", "ann")
	want := []Tag{"ann", "medical", "zeb"}
	if got := l.Tags(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Tags() = %v, want %v", got, want)
	}
	if l.Len() != 3 {
		t.Fatalf("Len() = %d, want 3", l.Len())
	}
}

func TestNewLabelRejectsInvalidTags(t *testing.T) {
	tests := []struct {
		name string
		tag  Tag
	}{
		{"empty", ""},
		{"space", "has space"},
		{"comma", "a,b"},
		{"brace-open", "{x"},
		{"brace-close", "x}"},
		{"control", "a\tb"},
		{"newline", "a\nb"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := NewLabel(tt.tag); err == nil {
				t.Fatalf("NewLabel(%q) succeeded, want error", tt.tag)
			}
		})
	}
}

func TestLabelZeroValue(t *testing.T) {
	var l Label
	if !l.IsEmpty() {
		t.Fatal("zero label should be empty")
	}
	if !l.Subset(MustLabel("a")) {
		t.Fatal("empty label must be a subset of everything")
	}
	if got := l.String(); got != "∅" {
		t.Fatalf("String() = %q, want ∅", got)
	}
	if l.Has("a") {
		t.Fatal("empty label should not contain tags")
	}
}

func TestLabelSubset(t *testing.T) {
	tests := []struct {
		name string
		a, b Label
		want bool
	}{
		{"empty-in-empty", EmptyLabel, EmptyLabel, true},
		{"empty-in-nonempty", EmptyLabel, MustLabel("a"), true},
		{"nonempty-in-empty", MustLabel("a"), EmptyLabel, false},
		{"equal", MustLabel("a", "b"), MustLabel("a", "b"), true},
		{"proper", MustLabel("a"), MustLabel("a", "b"), true},
		{"superset", MustLabel("a", "b"), MustLabel("a"), false},
		{"disjoint", MustLabel("a"), MustLabel("b"), false},
		{"interleaved", MustLabel("a", "c"), MustLabel("a", "b", "c", "d"), true},
		{"missing-middle", MustLabel("a", "c"), MustLabel("a", "b", "d"), false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.a.Subset(tt.b); got != tt.want {
				t.Fatalf("%v.Subset(%v) = %v, want %v", tt.a, tt.b, got, tt.want)
			}
		})
	}
}

func TestLabelSetOperations(t *testing.T) {
	a := MustLabel("medical", "ann")
	b := MustLabel("medical", "stats")

	if got, want := a.Union(b), MustLabel("ann", "medical", "stats"); !got.Equal(want) {
		t.Errorf("Union = %v, want %v", got, want)
	}
	if got, want := a.Intersect(b), MustLabel("medical"); !got.Equal(want) {
		t.Errorf("Intersect = %v, want %v", got, want)
	}
	if got, want := a.Diff(b), MustLabel("ann"); !got.Equal(want) {
		t.Errorf("Diff = %v, want %v", got, want)
	}
	if got, want := a.With("consent"), MustLabel("ann", "consent", "medical"); !got.Equal(want) {
		t.Errorf("With = %v, want %v", got, want)
	}
	if got, want := a.Without("ann"), MustLabel("medical"); !got.Equal(want) {
		t.Errorf("Without = %v, want %v", got, want)
	}
}

func TestLabelImmutability(t *testing.T) {
	in := []Tag{"b", "a"}
	l, err := NewLabel(in...)
	if err != nil {
		t.Fatal(err)
	}
	in[0] = "mutated"
	if !l.Equal(MustLabel("a", "b")) {
		t.Fatal("label shares storage with caller slice")
	}
	got := l.Tags()
	got[0] = "mutated"
	if !l.Equal(MustLabel("a", "b")) {
		t.Fatal("Tags() exposes internal storage")
	}
}

func TestParseLabelRoundTrip(t *testing.T) {
	tests := []Label{
		EmptyLabel,
		MustLabel("a"),
		MustLabel("medical", "ann", "consent"),
		MustLabel("eu/personal-data", "hospital.example/hosp-dev"),
	}
	for _, l := range tests {
		got, err := ParseLabel(l.String())
		if err != nil {
			t.Fatalf("ParseLabel(%q): %v", l.String(), err)
		}
		if !got.Equal(l) {
			t.Fatalf("round trip of %v produced %v", l, got)
		}
	}
}

func TestParseLabelErrors(t *testing.T) {
	for _, s := range []string{"medical", "{a", "a}", "{a b}"} {
		if _, err := ParseLabel(s); err == nil {
			t.Errorf("ParseLabel(%q) succeeded, want error", s)
		}
	}
}

func TestParseLabelEmptyForms(t *testing.T) {
	for _, s := range []string{"{}", "∅", " {} "} {
		l, err := ParseLabel(s)
		if err != nil {
			t.Fatalf("ParseLabel(%q): %v", s, err)
		}
		if !l.IsEmpty() {
			t.Fatalf("ParseLabel(%q) = %v, want empty", s, l)
		}
	}
}

func TestLabelTextMarshalling(t *testing.T) {
	l := MustLabel("ann", "medical")
	text, err := l.MarshalText()
	if err != nil {
		t.Fatal(err)
	}
	var back Label
	if err := back.UnmarshalText(text); err != nil {
		t.Fatal(err)
	}
	if !back.Equal(l) {
		t.Fatalf("round trip produced %v, want %v", back, l)
	}
}

// genLabel produces a random label drawn from a small tag universe so that
// set relations are exercised (disjoint universes make subset trivially
// false almost always).
func genLabel(r *rand.Rand) Label {
	universe := []Tag{"a", "b", "c", "d", "e", "f", "g", "h"}
	n := r.Intn(len(universe) + 1)
	tags := make([]Tag, 0, n)
	for i := 0; i < n; i++ {
		tags = append(tags, universe[r.Intn(len(universe))])
	}
	return newLabelUnchecked(tags)
}

// Generate implements quick.Generator.
func (Label) Generate(r *rand.Rand, _ int) reflect.Value {
	return reflect.ValueOf(genLabel(r))
}

func TestLabelPropertySubsetPartialOrder(t *testing.T) {
	// Reflexive.
	if err := quick.Check(func(a Label) bool { return a.Subset(a) }, nil); err != nil {
		t.Error("subset not reflexive:", err)
	}
	// Antisymmetric.
	if err := quick.Check(func(a, b Label) bool {
		if a.Subset(b) && b.Subset(a) {
			return a.Equal(b)
		}
		return true
	}, nil); err != nil {
		t.Error("subset not antisymmetric:", err)
	}
	// Transitive.
	if err := quick.Check(func(a, b, c Label) bool {
		if a.Subset(b) && b.Subset(c) {
			return a.Subset(c)
		}
		return true
	}, nil); err != nil {
		t.Error("subset not transitive:", err)
	}
}

func TestLabelPropertyLatticeLaws(t *testing.T) {
	// Union is the least upper bound: both operands flow into it.
	if err := quick.Check(func(a, b Label) bool {
		u := a.Union(b)
		return a.Subset(u) && b.Subset(u)
	}, nil); err != nil {
		t.Error("union not an upper bound:", err)
	}
	// Intersection is the greatest lower bound.
	if err := quick.Check(func(a, b Label) bool {
		i := a.Intersect(b)
		return i.Subset(a) && i.Subset(b)
	}, nil); err != nil {
		t.Error("intersection not a lower bound:", err)
	}
	// Commutativity.
	if err := quick.Check(func(a, b Label) bool {
		return a.Union(b).Equal(b.Union(a)) && a.Intersect(b).Equal(b.Intersect(a))
	}, nil); err != nil {
		t.Error("set operations not commutative:", err)
	}
	// Absorption: a ∪ (a ∩ b) = a.
	if err := quick.Check(func(a, b Label) bool {
		return a.Union(a.Intersect(b)).Equal(a)
	}, nil); err != nil {
		t.Error("absorption law violated:", err)
	}
	// Diff then union restores a superset relationship: (a \ b) ∪ (a ∩ b) = a.
	if err := quick.Check(func(a, b Label) bool {
		return a.Diff(b).Union(a.Intersect(b)).Equal(a)
	}, nil); err != nil {
		t.Error("diff/intersect do not partition:", err)
	}
}

func TestLabelPropertyStringParseRoundTrip(t *testing.T) {
	if err := quick.Check(func(a Label) bool {
		parsed, err := ParseLabel(a.String())
		return err == nil && parsed.Equal(a)
	}, nil); err != nil {
		t.Error("string/parse round trip failed:", err)
	}
}

func TestLabelTagsSorted(t *testing.T) {
	if err := quick.Check(func(a Label) bool {
		tags := a.Tags()
		return sort.SliceIsSorted(tags, func(i, j int) bool { return tags[i] < tags[j] })
	}, nil); err != nil {
		t.Error("Tags() not sorted:", err)
	}
}

func TestParseLabelInternedAllocs(t *testing.T) {
	want := MustLabel("medical", "ann")
	s := want.String()
	b := []byte(s)
	var got Label
	if allocs := testing.AllocsPerRun(200, func() { got, _ = ParseLabel(s) }); allocs != 0 {
		t.Fatalf("ParseLabel of an interned canonical form: %v allocs, want 0", allocs)
	}
	if !got.Equal(want) {
		t.Fatalf("ParseLabel(%q) = %v", s, got)
	}
	if allocs := testing.AllocsPerRun(200, func() { got, _ = ParseLabelBytes(b) }); allocs != 0 {
		t.Fatalf("ParseLabelBytes of an interned canonical form: %v allocs, want 0", allocs)
	}
	if !got.Equal(want) {
		t.Fatalf("ParseLabelBytes(%q) = %v", b, got)
	}
}

func TestParseLabelNonCanonicalSpellings(t *testing.T) {
	ab := MustLabel("a", "b")
	for _, tt := range []struct {
		in   string
		want Label
	}{
		{"{b,a}", ab},
		{"{a,b,a}", ab},
		{" {a, b} ", ab},
		{" {a} ", MustLabel("a")},
		{"∅", EmptyLabel},
		{"{}", EmptyLabel},
		{" ∅ ", EmptyLabel},
	} {
		got, err := ParseLabel(tt.in)
		if err != nil || !got.Equal(tt.want) {
			t.Fatalf("ParseLabel(%q) = %v, %v; want %v", tt.in, got, err, tt.want)
		}
		got, err = ParseLabelBytes([]byte(tt.in))
		if err != nil || !got.Equal(tt.want) {
			t.Fatalf("ParseLabelBytes(%q) = %v, %v; want %v", tt.in, got, err, tt.want)
		}
	}
}

func TestParseLabelRejectsInvalidTags(t *testing.T) {
	// Never interned anywhere.
	for _, in := range []string{"{never seen}", "{ok,x\ty}", "{a", "a}"} {
		if _, err := ParseLabel(in); err == nil {
			t.Fatalf("ParseLabel(%q) accepted", in)
		}
		if _, err := ParseLabelBytes([]byte(in)); err == nil {
			t.Fatalf("ParseLabelBytes(%q) accepted", in)
		}
	}
	// With does not validate, so an invalid tag can reach the intern
	// table; parsing its canonical form must still reject it.
	bad := EmptyLabel.With("has space")
	if _, err := ParseLabel(bad.String()); err == nil {
		t.Fatalf("ParseLabel(%q) accepted an interned invalid label", bad.String())
	}
	if _, err := ParseLabelBytes([]byte(bad.String())); err == nil {
		t.Fatalf("ParseLabelBytes(%q) accepted an interned invalid label", bad.String())
	}
}
