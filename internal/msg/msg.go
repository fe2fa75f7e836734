// Package msg implements the strongly-typed messages of the SBUS/CamFlow
// messaging substrate (Section 8.2.2): a message consists of named, typed
// attributes, and "certain message types, or attributes thereof, can be
// more sensitive than others" — so schemas attach message-layer IFC tags
// both to the whole type and to individual attributes. Enforcement may then
// quench individual attribute values rather than whole messages.
package msg

import (
	"errors"
	"fmt"
	"sort"

	"lciot/internal/ifc"
	"lciot/internal/telemetry"
)

// FieldType enumerates attribute types.
type FieldType int

// Field types.
const (
	TString FieldType = iota + 1
	TFloat
	TInt
	TBool
	TBytes
)

// String implements fmt.Stringer.
func (t FieldType) String() string {
	switch t {
	case TString:
		return "string"
	case TFloat:
		return "float"
	case TInt:
		return "int"
	case TBool:
		return "bool"
	case TBytes:
		return "bytes"
	default:
		return fmt.Sprintf("FieldType(%d)", int(t))
	}
}

// A Field describes one attribute of a message type.
type Field struct {
	Name string
	Type FieldType
	// Required fields must be present in every message of the type.
	Required bool
	// Secrecy holds message-layer secrecy tags specific to this attribute
	// (Fig. 10's tag C): a receiver lacking them gets the message with this
	// attribute quenched.
	Secrecy ifc.Label
}

// A Schema is a named message type: its attribute list plus message-layer
// tags for the type as a whole.
type Schema struct {
	Name string
	// Secrecy holds message-layer secrecy tags for the whole type.
	Secrecy ifc.Label
	Fields  []Field

	index map[string]int
}

// Errors reported by schema operations.
var (
	ErrUnknownField = errors.New("msg: unknown field")
	ErrWrongType    = errors.New("msg: wrong field type")
	ErrMissing      = errors.New("msg: missing required field")
	ErrNoSchema     = errors.New("msg: unknown schema")
)

// NewSchema builds a schema, validating field uniqueness.
func NewSchema(name string, secrecy ifc.Label, fields ...Field) (*Schema, error) {
	if name == "" {
		return nil, errors.New("msg: schema needs a name")
	}
	s := &Schema{Name: name, Secrecy: secrecy, Fields: fields, index: make(map[string]int, len(fields))}
	for i, f := range fields {
		if f.Name == "" {
			return nil, fmt.Errorf("msg: schema %q: field %d has no name", name, i)
		}
		if _, dup := s.index[f.Name]; dup {
			return nil, fmt.Errorf("msg: schema %q: duplicate field %q", name, f.Name)
		}
		s.index[f.Name] = i
	}
	return s, nil
}

// MustSchema is NewSchema for static declarations.
func MustSchema(name string, secrecy ifc.Label, fields ...Field) *Schema {
	s, err := NewSchema(name, secrecy, fields...)
	if err != nil {
		panic(err)
	}
	return s
}

// lookup returns the index of the field named by b; a nil schema declares
// nothing. Indexing the map with string(b) does not copy b.
func (s *Schema) lookup(b []byte) (int, bool) {
	if s == nil {
		return 0, false
	}
	i, ok := s.index[string(b)]
	return i, ok
}

// Field returns the named field definition.
func (s *Schema) Field(name string) (Field, bool) {
	i, ok := s.index[name]
	if !ok {
		return Field{}, false
	}
	return s.Fields[i], true
}

// A Value is one attribute value; exactly one member is meaningful,
// selected by Type.
type Value struct {
	Type  FieldType
	Str   string
	Float float64
	Int   int64
	Bool  bool
	Bytes []byte
}

// Equal compares two values.
func (v Value) Equal(o Value) bool {
	if v.Type != o.Type {
		return false
	}
	switch v.Type {
	case TString:
		return v.Str == o.Str
	case TFloat:
		return v.Float == o.Float
	case TInt:
		return v.Int == o.Int
	case TBool:
		return v.Bool == o.Bool
	case TBytes:
		return string(v.Bytes) == string(o.Bytes)
	default:
		return false
	}
}

// String implements fmt.Stringer.
func (v Value) String() string {
	switch v.Type {
	case TString:
		return fmt.Sprintf("%q", v.Str)
	case TFloat:
		return fmt.Sprintf("%g", v.Float)
	case TInt:
		return fmt.Sprintf("%d", v.Int)
	case TBool:
		return fmt.Sprintf("%t", v.Bool)
	case TBytes:
		return fmt.Sprintf("bytes[%d]", len(v.Bytes))
	default:
		return fmt.Sprintf("Value(type=%d)", int(v.Type))
	}
}

// Str builds a string value.
func Str(s string) Value { return Value{Type: TString, Str: s} }

// Float builds a float value.
func Float(f float64) Value { return Value{Type: TFloat, Float: f} }

// Int builds an int value.
func Int(i int64) Value { return Value{Type: TInt, Int: i} }

// Bool builds a bool value.
func Bool(b bool) Value { return Value{Type: TBool, Bool: b} }

// Bytes builds a bytes value (the slice is not copied; callers own it).
func Bytes(b []byte) Value { return Value{Type: TBytes, Bytes: b} }

// A Message is an instance of a schema.
type Message struct {
	Type string
	// Attrs maps field name to value.
	Attrs map[string]Value
	// DataID optionally identifies the datum for provenance tracking.
	DataID string
	// Trace is the flow-tracing context stamped at publish (zero when the
	// flow is unsampled). It is message metadata, not payload: the wire
	// codecs in this file do not carry it — the link protocol moves it in
	// its own frame trailer (sbus/wire.go), outside the payload.
	Trace telemetry.TraceContext
	// Stage is the per-message stage clock armed at publish when stage
	// attribution is sampled (nil otherwise — the common case). Like
	// Trace it is metadata, not payload: clones share the same clock by
	// pointer so edge marks telescope across quench copies and relay
	// republishes, and the link protocol carries only the egress
	// timestamp (in the frame trailer), not the clock itself.
	Stage *telemetry.StageClock
}

// New builds an empty message of the given type.
func New(schemaName string) *Message {
	return &Message{Type: schemaName, Attrs: make(map[string]Value)}
}

// Set assigns an attribute and returns the message for chaining.
func (m *Message) Set(field string, v Value) *Message {
	m.Attrs[field] = v
	return m
}

// Get returns an attribute value.
func (m *Message) Get(field string) (Value, bool) {
	v, ok := m.Attrs[field]
	return v, ok
}

// FieldNames returns the message's populated attribute names, sorted.
func (m *Message) FieldNames() []string {
	return sortedFieldNames(make([]string, 0, len(m.Attrs)), m)
}

// Clone returns a deep copy; quenching mutates copies, never originals.
func (m *Message) Clone() *Message {
	cp := &Message{Type: m.Type, DataID: m.DataID, Trace: m.Trace, Stage: m.Stage, Attrs: make(map[string]Value, len(m.Attrs))}
	for k, v := range m.Attrs {
		if v.Type == TBytes {
			b := make([]byte, len(v.Bytes))
			copy(b, v.Bytes)
			v.Bytes = b
		}
		cp.Attrs[k] = v
	}
	return cp
}

// Validate checks the message against its schema: all attributes known and
// correctly typed, all required attributes present.
func (s *Schema) Validate(m *Message) error {
	if m.Type != s.Name {
		return fmt.Errorf("%w: message type %q, schema %q", ErrNoSchema, m.Type, s.Name)
	}
	for name, v := range m.Attrs {
		f, ok := s.Field(name)
		if !ok {
			return fmt.Errorf("%w: %q in message of type %q", ErrUnknownField, name, m.Type)
		}
		if f.Type != v.Type {
			return fmt.Errorf("%w: field %q is %s, got %s", ErrWrongType, name, f.Type, v.Type)
		}
	}
	for _, f := range s.Fields {
		if !f.Required {
			continue
		}
		if _, ok := m.Attrs[f.Name]; !ok {
			return fmt.Errorf("%w: %q in message of type %q", ErrMissing, f.Name, m.Type)
		}
	}
	return nil
}

// Quench returns a copy of the message with every attribute removed whose
// message-layer secrecy tags are not covered by the receiver's clearance
// (Section 8.2.2: "messages/attribute values are not transferred if the
// tags of each party do not accord"). It reports which attributes were
// quenched. Required fields are quenched like any other: the receiver then
// fails validation, which is exactly the intent — it must not see the
// message at all.
func (s *Schema) Quench(m *Message, clearance ifc.Label) (*Message, []string) {
	out := m.Clone()
	return out, s.QuenchInPlace(out, clearance)
}

// QuenchInPlace is Quench on a message the caller owns outright (one just
// decoded, say): the attributes are removed from m itself, and the sorted
// names of the quenched attributes are returned.
func (s *Schema) QuenchInPlace(m *Message, clearance ifc.Label) []string {
	var quenched []string
	for name := range m.Attrs {
		f, ok := s.Field(name)
		if !ok {
			continue // Validate catches this separately
		}
		if !f.Secrecy.Subset(clearance) {
			delete(m.Attrs, name)
			quenched = append(quenched, name)
		}
	}
	sort.Strings(quenched)
	return quenched
}

// A Registry holds schemas by name. The zero value is unusable; use
// NewRegistry. Registries are immutable after construction, so they are
// safe for concurrent use.
type Registry struct {
	schemas map[string]*Schema
}

// NewRegistry builds a registry over the given schemas.
func NewRegistry(schemas ...*Schema) (*Registry, error) {
	r := &Registry{schemas: make(map[string]*Schema, len(schemas))}
	for _, s := range schemas {
		if _, dup := r.schemas[s.Name]; dup {
			return nil, fmt.Errorf("msg: duplicate schema %q", s.Name)
		}
		r.schemas[s.Name] = s
	}
	return r, nil
}

// Schema returns a schema by name.
func (r *Registry) Schema(name string) (*Schema, error) {
	s, ok := r.schemas[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoSchema, name)
	}
	return s, nil
}

// Validate looks the message's schema up and validates against it.
func (r *Registry) Validate(m *Message) error {
	s, err := r.Schema(m.Type)
	if err != nil {
		return err
	}
	return s.Validate(m)
}
