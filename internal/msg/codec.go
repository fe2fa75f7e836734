package msg

import (
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"slices"
	"strconv"
	"sync"
	"unicode/utf8"
)

// This file provides the two wire encodings: JSON for interoperability and
// debugging, and a compact binary TLV encoding for the data path (benchmark
// B3 compares them). Both encoders build their output in pooled scratch
// buffers — the returned slice is an exact-size copy, so steady-state
// encoding costs one allocation per message regardless of growth history.

// ErrCodec is the sentinel for malformed wire data.
var ErrCodec = errors.New("msg: malformed encoding")

// encScratch is the per-encode working set: the byte buffer the message is
// assembled in and the sorted field-name slice. Pooling both keeps encode
// allocations flat at one (the returned copy) per call.
type encScratch struct {
	buf   []byte
	names []string
}

var encPool = sync.Pool{New: func() any { return new(encScratch) }}

// maxPooledScratch and maxPooledNames bound retained scratch capacity so
// one huge message cannot pin a large buffer (or its attribute-name
// strings) in the pool forever.
const (
	maxPooledScratch = 1 << 16
	maxPooledNames   = 1 << 10
)

func putScratch(s *encScratch) {
	if cap(s.buf) > maxPooledScratch {
		s.buf = nil
	}
	if cap(s.names) > maxPooledNames {
		s.names = nil
	} else {
		// Drop the string headers so pooled scratch does not keep the last
		// message's attribute names reachable.
		clear(s.names[:cap(s.names)])
	}
	encPool.Put(s)
}

// sortedFieldNames fills dst with the message's attribute names, sorted.
func sortedFieldNames(dst []string, m *Message) []string {
	dst = dst[:0]
	for k := range m.Attrs {
		dst = append(dst, k)
	}
	slices.Sort(dst)
	return dst
}

// jsonMessage is the JSON wire schema.
type jsonMessage struct {
	Type   string               `json:"type"`
	DataID string               `json:"data_id,omitempty"`
	Attrs  map[string]jsonValue `json:"attrs"`
}

type jsonValue struct {
	T string  `json:"t"`
	S string  `json:"s,omitempty"`
	F float64 `json:"f,omitempty"`
	I int64   `json:"i,omitempty"`
	B bool    `json:"b,omitempty"`
	D string  `json:"d,omitempty"` // base64 bytes
}

// EncodeJSON renders the message as JSON on the same wire schema
// encoding/json produced for jsonMessage (attributes sorted by name, zero
// value members omitted), built by hand in a pooled buffer to avoid the
// intermediate map and reflection allocations of json.Marshal.
func (m *Message) appendJSON(buf []byte, names []string) ([]byte, []string, error) {
	buf = append(buf, `{"type":`...)
	buf = appendJSONString(buf, m.Type)
	if m.DataID != "" {
		buf = append(buf, `,"data_id":`...)
		buf = appendJSONString(buf, m.DataID)
	}
	buf = append(buf, `,"attrs":{`...)
	names = sortedFieldNames(names, m)
	for i, name := range names {
		v := m.Attrs[name]
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = appendJSONString(buf, name)
		switch v.Type {
		case TString:
			buf = append(buf, `:{"t":"s"`...)
			if v.Str != "" {
				buf = append(buf, `,"s":`...)
				buf = appendJSONString(buf, v.Str)
			}
		case TFloat:
			buf = append(buf, `:{"t":"f"`...)
			if v.Float != 0 {
				if math.IsNaN(v.Float) || math.IsInf(v.Float, 0) {
					return nil, names, fmt.Errorf("msg: field %q: unsupported float value %v", name, v.Float)
				}
				buf = append(buf, `,"f":`...)
				buf = appendJSONFloat(buf, v.Float)
			}
		case TInt:
			buf = append(buf, `:{"t":"i"`...)
			if v.Int != 0 {
				buf = append(buf, `,"i":`...)
				buf = strconv.AppendInt(buf, v.Int, 10)
			}
		case TBool:
			buf = append(buf, `:{"t":"b"`...)
			if v.Bool {
				buf = append(buf, `,"b":true`...)
			}
		case TBytes:
			buf = append(buf, `:{"t":"d"`...)
			if len(v.Bytes) > 0 {
				buf = append(buf, `,"d":"`...)
				buf = appendBase64(buf, v.Bytes)
				buf = append(buf, '"')
			}
		default:
			return nil, names, fmt.Errorf("msg: field %q has invalid type %d", name, v.Type)
		}
		buf = append(buf, '}')
	}
	buf = append(buf, "}}"...)
	return buf, names, nil
}

// EncodeJSON renders the message as JSON.
func EncodeJSON(m *Message) ([]byte, error) {
	s := encPool.Get().(*encScratch)
	buf, names, err := m.appendJSON(s.buf[:0], s.names)
	s.buf, s.names = buf, names
	if err != nil {
		putScratch(s)
		return nil, err
	}
	out := make([]byte, len(buf))
	copy(out, buf)
	putScratch(s)
	return out, nil
}

// appendJSONString appends s as a JSON string literal with the escaping
// json.Unmarshal round-trips: quote, backslash and control characters are
// escaped, invalid UTF-8 is replaced by U+FFFD (as encoding/json does).
func appendJSONString(buf []byte, s string) []byte {
	buf = append(buf, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' {
				i++
				continue
			}
			buf = append(buf, s[start:i]...)
			switch c {
			case '"':
				buf = append(buf, '\\', '"')
			case '\\':
				buf = append(buf, '\\', '\\')
			case '\n':
				buf = append(buf, '\\', 'n')
			case '\r':
				buf = append(buf, '\\', 'r')
			case '\t':
				buf = append(buf, '\\', 't')
			default:
				buf = append(buf, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 {
			buf = append(buf, s[start:i]...)
			buf = append(buf, "�"...)
			i++
			start = i
			continue
		}
		i += size
	}
	buf = append(buf, s[start:]...)
	return append(buf, '"')
}

const hexDigits = "0123456789abcdef"

// appendJSONFloat appends a finite float in the shortest round-trippable
// decimal form; "e" exponents are valid JSON numbers.
func appendJSONFloat(buf []byte, f float64) []byte {
	return strconv.AppendFloat(buf, f, 'g', -1, 64)
}

// appendBase64 appends the standard base64 encoding of b without an
// intermediate string.
func appendBase64(buf []byte, b []byte) []byte {
	n := base64.StdEncoding.EncodedLen(len(b))
	off := len(buf)
	for cap(buf) < off+n {
		buf = append(buf[:cap(buf)], 0)
	}
	buf = buf[:off+n]
	base64.StdEncoding.Encode(buf[off:], b)
	return buf
}

// DecodeJSON parses a JSON-encoded message.
func DecodeJSON(data []byte) (*Message, error) {
	var in jsonMessage
	if err := json.Unmarshal(data, &in); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCodec, err)
	}
	m := &Message{Type: in.Type, DataID: in.DataID, Attrs: make(map[string]Value, len(in.Attrs))}
	for k, jv := range in.Attrs {
		switch jv.T {
		case "s":
			m.Attrs[k] = Str(jv.S)
		case "f":
			m.Attrs[k] = Float(jv.F)
		case "i":
			m.Attrs[k] = Int(jv.I)
		case "b":
			m.Attrs[k] = Bool(jv.B)
		case "d":
			b, err := base64.StdEncoding.DecodeString(jv.D)
			if err != nil {
				return nil, fmt.Errorf("%w: field %q: %v", ErrCodec, k, err)
			}
			m.Attrs[k] = Bytes(b)
		default:
			return nil, fmt.Errorf("%w: field %q has unknown type tag %q", ErrCodec, k, jv.T)
		}
	}
	return m, nil
}

// Binary layout:
//
//	u16 len(type) | type | u16 len(dataID) | dataID | u16 nattrs |
//	repeated: u16 len(name) | name | u8 fieldType | value
//
// where value is: u32 len + bytes (string/bytes), 8-byte IEEE754 (float),
// 8-byte two's complement (int), 1 byte (bool). Field order is sorted by
// name so the encoding is canonical.

// AppendBinary appends the compact binary form of m to dst and returns the
// extended slice. Field names are sorted in a stack array (a heap slice
// only past stackNames attributes), so a caller owning a reusable buffer
// encodes with zero allocations; EncodeBinary wraps this with a pooled
// scratch.
func AppendBinary(dst []byte, m *Message) ([]byte, error) {
	var names [stackNames]string
	buf, _, err := appendBinary(dst, names[:0], m)
	return buf, err
}

// stackNames is how many attribute names AppendBinary sorts without a heap
// slice.
const stackNames = 16

func appendBinary(buf []byte, names []string, m *Message) ([]byte, []string, error) {
	names = sortedFieldNames(names, m)
	buf = appendString16(buf, m.Type)
	buf = appendString16(buf, m.DataID)
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(names)))
	for _, name := range names {
		v := m.Attrs[name]
		buf = appendString16(buf, name)
		buf = append(buf, byte(v.Type))
		switch v.Type {
		case TString:
			buf = binary.BigEndian.AppendUint32(buf, uint32(len(v.Str)))
			buf = append(buf, v.Str...)
		case TFloat:
			buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(v.Float))
		case TInt:
			buf = binary.BigEndian.AppendUint64(buf, uint64(v.Int))
		case TBool:
			if v.Bool {
				buf = append(buf, 1)
			} else {
				buf = append(buf, 0)
			}
		case TBytes:
			buf = binary.BigEndian.AppendUint32(buf, uint32(len(v.Bytes)))
			buf = append(buf, v.Bytes...)
		default:
			return nil, names, fmt.Errorf("msg: field %q has invalid type %d", name, v.Type)
		}
	}
	return buf, names, nil
}

// EncodeBinary renders the message in the compact binary form.
func EncodeBinary(m *Message) ([]byte, error) {
	s := encPool.Get().(*encScratch)
	buf, names, err := appendBinary(s.buf[:0], s.names, m)
	s.buf, s.names = buf, names
	if err != nil {
		putScratch(s)
		return nil, err
	}
	out := make([]byte, len(buf))
	copy(out, buf)
	putScratch(s)
	return out, nil
}

// DecodeBinary parses the compact binary form.
func DecodeBinary(data []byte) (*Message, error) {
	return decodeBinary(data, nil)
}

// DecodeBinary parses the compact binary form of a message expected to be
// of this schema. The type name and every attribute name the schema
// declares are taken from the schema's own strings rather than copied out
// of data, so a conforming message costs only what it must own: the
// Message, its map, the DataID and string or bytes values. A payload that
// does not match the schema decodes to the same message DecodeBinary
// returns; validating it is the caller's business.
func (s *Schema) DecodeBinary(data []byte) (*Message, error) {
	return decodeBinary(data, s)
}

// minAttrLen is the encoded size of the smallest attribute: an empty name,
// the type byte and a one-byte bool.
const minAttrLen = 2 + 1 + 1

// decodeBinary is the one binary decoder; s, when non-nil, supplies the
// strings for names it declares. The returned message never aliases data.
func decodeBinary(data []byte, s *Schema) (*Message, error) {
	d := &decoder{buf: data}
	typ, err := d.bytes16()
	if err != nil {
		return nil, err
	}
	dataID, err := d.string16()
	if err != nil {
		return nil, err
	}
	n, err := d.uint16()
	if err != nil {
		return nil, err
	}
	// n comes from the sender: size the map by what the rest of the
	// payload can hold (an attribute takes at least minAttrLen bytes), not
	// by the declared count alone.
	hint := int(n)
	if most := (len(d.buf) - d.off) / minAttrLen; hint > most {
		hint = most
	}
	m := &Message{Attrs: make(map[string]Value, hint), DataID: dataID}
	if s != nil && string(typ) == s.Name {
		m.Type = s.Name
	} else {
		m.Type = string(typ)
	}
	for i := 0; i < int(n); i++ {
		nb, err := d.bytes16()
		if err != nil {
			return nil, err
		}
		var name string
		if j, ok := s.lookup(nb); ok {
			name = s.Fields[j].Name
		} else {
			name = string(nb)
		}
		ft, err := d.byte()
		if err != nil {
			return nil, err
		}
		switch FieldType(ft) {
		case TString:
			b, err := d.bytes32()
			if err != nil {
				return nil, err
			}
			m.Attrs[name] = Str(string(b))
		case TFloat:
			u, err := d.uint64()
			if err != nil {
				return nil, err
			}
			m.Attrs[name] = Float(math.Float64frombits(u))
		case TInt:
			u, err := d.uint64()
			if err != nil {
				return nil, err
			}
			m.Attrs[name] = Int(int64(u))
		case TBool:
			b, err := d.byte()
			if err != nil {
				return nil, err
			}
			m.Attrs[name] = Bool(b != 0)
		case TBytes:
			b, err := d.bytes32()
			if err != nil {
				return nil, err
			}
			owned := make([]byte, len(b))
			copy(owned, b)
			m.Attrs[name] = Bytes(owned)
		default:
			return nil, fmt.Errorf("%w: field %q has type byte %d", ErrCodec, name, ft)
		}
	}
	if len(d.buf[d.off:]) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrCodec, len(d.buf[d.off:]))
	}
	return m, nil
}

func appendString16(buf []byte, s string) []byte {
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(s)))
	return append(buf, s...)
}

// decoder is a bounds-checked cursor.
type decoder struct {
	buf []byte
	off int
}

func (d *decoder) need(n int) error {
	if d.off+n > len(d.buf) {
		return fmt.Errorf("%w: truncated at offset %d", ErrCodec, d.off)
	}
	return nil
}

func (d *decoder) byte() (byte, error) {
	if err := d.need(1); err != nil {
		return 0, err
	}
	b := d.buf[d.off]
	d.off++
	return b, nil
}

func (d *decoder) uint16() (uint16, error) {
	if err := d.need(2); err != nil {
		return 0, err
	}
	v := binary.BigEndian.Uint16(d.buf[d.off:])
	d.off += 2
	return v, nil
}

func (d *decoder) uint64() (uint64, error) {
	if err := d.need(8); err != nil {
		return 0, err
	}
	v := binary.BigEndian.Uint64(d.buf[d.off:])
	d.off += 8
	return v, nil
}

// bytes16 returns the next u16-length-prefixed field, aliasing the buffer.
func (d *decoder) bytes16() ([]byte, error) {
	n, err := d.uint16()
	if err != nil {
		return nil, err
	}
	if err := d.need(int(n)); err != nil {
		return nil, err
	}
	b := d.buf[d.off : d.off+int(n)]
	d.off += int(n)
	return b, nil
}

func (d *decoder) string16() (string, error) {
	b, err := d.bytes16()
	return string(b), err
}

func (d *decoder) bytes32() ([]byte, error) {
	if err := d.need(4); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(d.buf[d.off:])
	d.off += 4
	if err := d.need(int(n)); err != nil {
		return nil, err
	}
	b := d.buf[d.off : d.off+int(n)]
	d.off += int(n)
	return b, nil
}
