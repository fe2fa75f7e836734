package msg

import (
	"reflect"
	"testing"

	"lciot/internal/ifc"
)

// twoFieldSchema and twoFieldMessage are the shape the schema-guided
// allocation bound is stated for: two fixed-size attributes and a DataID.
func twoFieldSchema() *Schema {
	return MustSchema("reading", ifc.EmptyLabel,
		Field{Name: "seq", Type: TInt, Required: true},
		Field{Name: "value", Type: TFloat, Required: true},
	)
}

func twoFieldMessage() *Message {
	m := New("reading").Set("seq", Int(42)).Set("value", Float(98.6))
	m.DataID = "reading-42"
	return m
}

func TestSchemaDecodeAllocs(t *testing.T) {
	s := twoFieldSchema()
	data, err := EncodeBinary(twoFieldMessage())
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := s.DecodeBinary(data); err != nil {
			t.Fatal(err)
		}
	})
	// The Message, its map and the DataID.
	if allocs > 4 {
		t.Fatalf("schema-guided decode of a two-field payload: %v allocs, want <= 4", allocs)
	}
}

func TestAppendBinaryAllocs(t *testing.T) {
	m := sampleMessage()
	buf := make([]byte, 0, 256)
	allocs := testing.AllocsPerRun(200, func() {
		var err error
		if buf, err = AppendBinary(buf[:0], m); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("AppendBinary into a buffer with room: %v allocs, want 0", allocs)
	}
}

// TestSchemaDecodeMatchesPlain: whether or not the payload matches the
// schema, the schema-guided decoder yields the plain decoder's message.
func TestSchemaDecodeMatchesPlain(t *testing.T) {
	s := vitalsSchema()
	other := New("person").Set("name", Str("ann")).Set("patient", Str("zeb"))
	mixed := sampleMessage().Set("extra", Int(7))
	for _, m := range []*Message{sampleMessage(), other, mixed, New("vitals")} {
		data, err := EncodeBinary(m)
		if err != nil {
			t.Fatal(err)
		}
		plain, err := DecodeBinary(data)
		if err != nil {
			t.Fatal(err)
		}
		guided, err := s.DecodeBinary(data)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(plain, guided) {
			t.Fatalf("guided decode %+v, plain %+v", guided, plain)
		}
		assertEqualMessages(t, m, guided)
	}
}

// TestDecodeDoesNotAliasInput: overwriting the encoded bytes after a decode
// leaves the decoded message unchanged.
func TestDecodeDoesNotAliasInput(t *testing.T) {
	for _, s := range []*Schema{nil, vitalsSchema()} {
		data, err := EncodeBinary(sampleMessage())
		if err != nil {
			t.Fatal(err)
		}
		m, err := s.DecodeBinary(data)
		if err != nil {
			t.Fatal(err)
		}
		for i := range data {
			data[i] = 'x'
		}
		assertEqualMessages(t, sampleMessage(), m)
	}
}

func TestQuenchInPlace(t *testing.T) {
	s := personSchema()
	m := New("person").Set("name", Str("ann")).Set("country", Str("uk")).Set("age", Int(33))
	if q := s.QuenchInPlace(m, ifc.MustLabel("A", "B", "C")); len(q) != 0 || len(m.Attrs) != 3 {
		t.Fatalf("full clearance quenched %v", q)
	}
	if q := s.QuenchInPlace(m, ifc.MustLabel("A", "B")); !reflect.DeepEqual(q, []string{"name"}) {
		t.Fatalf("quenched = %v, want [name]", q)
	}
	if _, ok := m.Get("name"); ok {
		t.Fatal("sensitive attribute survived quenching")
	}
	if v, ok := m.Get("country"); !ok || v.Str != "uk" {
		t.Fatal("insensitive attribute lost")
	}
}
