package sbus

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"lciot/internal/ifc"
	"lciot/internal/msg"
	"lciot/internal/telemetry"
)

// This file is the link protocol: the binary wire form of cross-bus
// frames. One transport frame carries a batch of link frames, so the
// per-peer writer goroutine (link.go) can coalesce a burst of messages into
// a single syscall/packet. Layout (all integers big-endian):
//
//	batch   := u8 magic 'L' | u8 version (5) | u16 count | count × frame
//	frame   := u8 kind | u64 id | u8 flags |
//	           str16 bus | str16 src | str16 dst |
//	           str16 srcSecrecy | str16 srcIntegrity |   (canonical label form)
//	           str16 srcJurisdiction | str16 srcPurpose |
//	           str16 schema | str16 agent | str16 err |
//	           bytes32 payload | trailer
//	trailer := u64 traceHi | u64 traceLo | u8 hop | u64 egressNs
//	str16   := u16 len | bytes      bytes32 := u32 len | bytes
//
// Every frame carries the obligation facets (jurisdiction and purpose) of
// the source context; on hello frames the jurisdiction field carries the
// *bus's* declared jurisdiction, which the peer's egress path uses to
// enforce residency before data leaves a region.
//
// Labels travel as their canonical String form (a pointer read on interned
// labels) and are resolved on decode by a lookup in the label intern table,
// re-parsed only when this process has never seen them.
//
// The fixed 25-byte trailer carries the flow-tracing context (16-byte trace
// ID plus a hop count; all zero when the flow is unsampled) and the
// sender's egress wall-clock (UnixNano; 0 when the message carries no
// stage clock). Ingress observes now−egress into the per-peer
// stage_link_hop_ns histogram and resumes the stage clock on the decoded
// message.
//
// There is one protocol version. The first batch on a connection must
// contain exactly one hello frame, and a batch stamped with any other
// version is refused with ErrProtocol before anything else is parsed; a
// legacy JSON peer ('{' = 0x7B) is detected explicitly and refused the same
// way rather than with a decode failure. A new field bumps linkVersion.

const (
	// linkMagic is the first byte of every batch ('L' for link).
	linkMagic = 0x4C
	// linkVersion is the one link protocol version this bus speaks.
	linkVersion = 5
	// batchHeaderLen is magic + version + count.
	batchHeaderLen = 4
	// traceTrailerLen is the trace part of the frame trailer: 16-byte
	// trace ID + 1 hop byte.
	traceTrailerLen = 17
	// egressTrailerLen is the stage-attribution part of the trailer after
	// the trace bytes: the sender's egress UnixNano.
	egressTrailerLen = 8
	// minFrameLen is the encoded size of a frame whose strings and payload
	// are all empty: kind, id, flags, ten u16 lengths, the u32 payload
	// length and the trailer. DecodeBatch bounds the declared frame count
	// by it before allocating.
	minFrameLen = 1 + 8 + 1 + 10*2 + 4 + traceTrailerLen + egressTrailerLen
)

// Frame kinds. The wire carries the byte; LinkFrame carries the string
// (what tests and switch statements read).
const (
	kindHello      = 1
	kindConnect    = 2
	kindResult     = 3
	kindMessage    = 4
	kindDisconnect = 5
)

// frame flag bits.
const flagOK = 1 << 0

// Errors reported by the wire codec.
var (
	// ErrWire is the sentinel for malformed wire data.
	ErrWire = errors.New("sbus: malformed link frame")
	// ErrProtocol is returned when a peer speaks another link protocol
	// version (including legacy JSON).
	ErrProtocol = errors.New("sbus: link protocol mismatch")
)

// A LinkFrame is one unit of the cross-bus wire protocol.
type LinkFrame struct {
	Kind string // hello, connect, result, message, disconnect
	ID   uint64
	Bus  string

	Src string // fully qualified "bus:comp.ep"
	Dst string // receiver-local "comp.ep"

	SrcSecrecy   ifc.Label
	SrcIntegrity ifc.Label
	// SrcJurisdiction and SrcPurpose are the obligation facets of the
	// source context; on hello frames SrcJurisdiction is the sending bus's
	// declared jurisdiction.
	SrcJurisdiction ifc.Label
	SrcPurpose      ifc.Label

	Schema string
	// Payload is the message in msg.AppendBinary form. A decoded frame's
	// Payload aliases the received batch: it is valid only while the batch
	// is, and is never written.
	Payload []byte

	OK  bool
	Err string

	Agent ifc.PrincipalID

	// Trace is the flow-tracing context carried in the frame trailer (zero
	// when unsampled).
	Trace telemetry.TraceContext

	// EgressNs is the sender's egress wall-clock (UnixNano) carried in the
	// frame trailer; 0 when the message carries no stage clock.
	EgressNs uint64
}

// kindByte maps the frame kind string to its wire byte.
func kindByte(kind string) (byte, error) {
	switch kind {
	case "hello":
		return kindHello, nil
	case "connect":
		return kindConnect, nil
	case "result":
		return kindResult, nil
	case "message":
		return kindMessage, nil
	case "disconnect":
		return kindDisconnect, nil
	}
	return 0, fmt.Errorf("%w: unknown kind %q", ErrWire, kind)
}

// kindString is the inverse of kindByte.
func kindString(k byte) (string, error) {
	switch k {
	case kindHello:
		return "hello", nil
	case kindConnect:
		return "connect", nil
	case kindResult:
		return "result", nil
	case kindMessage:
		return "message", nil
	case kindDisconnect:
		return "disconnect", nil
	}
	return "", fmt.Errorf("%w: unknown kind byte %d", ErrWire, k)
}

// AppendBatchHeader appends a batch header for count frames.
func AppendBatchHeader(dst []byte, count int) []byte {
	dst = append(dst, linkMagic, linkVersion)
	return binary.BigEndian.AppendUint16(dst, uint16(count))
}

// appendTrailer appends the fixed frame trailer: the trace context, then
// the egress timestamp.
func appendTrailer(dst []byte, tc telemetry.TraceContext, egressNs uint64) []byte {
	dst = binary.BigEndian.AppendUint64(dst, tc.ID.Hi)
	dst = binary.BigEndian.AppendUint64(dst, tc.ID.Lo)
	dst = append(dst, tc.Hop)
	return binary.BigEndian.AppendUint64(dst, egressNs)
}

// appendFramePrefix appends every frame field up to (but excluding) the
// payload.
func appendFramePrefix(dst []byte, f *LinkFrame) ([]byte, error) {
	k, err := kindByte(f.Kind)
	if err != nil {
		return dst, err
	}
	dst = append(dst, k)
	dst = binary.BigEndian.AppendUint64(dst, f.ID)
	var flags byte
	if f.OK {
		flags |= flagOK
	}
	dst = append(dst, flags)
	for _, s := range [...]string{
		f.Bus, f.Src, f.Dst,
		f.SrcSecrecy.String(), f.SrcIntegrity.String(),
		f.SrcJurisdiction.String(), f.SrcPurpose.String(),
		f.Schema, string(f.Agent), f.Err,
	} {
		if len(s) > 0xFFFF {
			return dst, fmt.Errorf("%w: field of %d bytes exceeds 64 KiB", ErrWire, len(s))
		}
		dst = binary.BigEndian.AppendUint16(dst, uint16(len(s)))
		dst = append(dst, s...)
	}
	return dst, nil
}

// AppendLinkFrame appends the binary form of f to dst and returns the
// extended slice. Encoding into a caller-owned buffer keeps the steady
// state allocation-free; the writer goroutine reuses one batch buffer for
// its whole life.
func AppendLinkFrame(dst []byte, f *LinkFrame) ([]byte, error) {
	dst, err := appendFramePrefix(dst, f)
	if err != nil {
		return dst, err
	}
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(f.Payload)))
	dst = append(dst, f.Payload...)
	return appendTrailer(dst, f.Trace, f.EgressNs), nil
}

// appendMessageFrame is AppendLinkFrame with the payload encoded straight
// from the message: the frame fields and msg.AppendBinary land in one
// buffer in one pass, with the payload length backfilled — no intermediate
// payload slice on the per-message egress path. The trailer takes the
// trace context from the message itself and the egress timestamp from
// f.EgressNs.
func appendMessageFrame(dst []byte, f *LinkFrame, m *msg.Message) ([]byte, error) {
	dst, err := appendFramePrefix(dst, f)
	if err != nil {
		return dst, err
	}
	lenAt := len(dst)
	dst = append(dst, 0, 0, 0, 0)
	dst, err = msg.AppendBinary(dst, m)
	if err != nil {
		return dst, err
	}
	binary.BigEndian.PutUint32(dst[lenAt:], uint32(len(dst)-lenAt-4))
	return appendTrailer(dst, m.Trace, f.EgressNs), nil
}

// wireDecoder is a bounds-checked cursor over one received batch. Every
// field is read as a slice of the batch; what the frame keeps is resolved
// without copying where this side already owns an equal value:
//
//   - labels through ifc.ParseLabelBytes, a lookup in the label intern
//     table (ParseLabel runs only for a label this process never saw);
//   - the payload is not copied at all: LinkFrame.Payload aliases the
//     batch, and msg.DecodeBinary copies out whatever a message keeps;
//   - the strings of a message frame on a channel in the ingress table
//     come from that channel's entry. The table grows only through
//     acceptIngress, never from message bytes; any other frame, and a
//     message for an unestablished channel (the denial path), gets
//     strings copied out of the batch.
type wireDecoder struct {
	buf []byte
	off int
	in  ingressTable // nil: copy every string out
}

func (d *wireDecoder) need(n int) error {
	if d.off+n > len(d.buf) {
		return fmt.Errorf("%w: truncated at offset %d", ErrWire, d.off)
	}
	return nil
}

func (d *wireDecoder) byte() (byte, error) {
	if err := d.need(1); err != nil {
		return 0, err
	}
	b := d.buf[d.off]
	d.off++
	return b, nil
}

func (d *wireDecoder) uint64() (uint64, error) {
	if err := d.need(8); err != nil {
		return 0, err
	}
	v := binary.BigEndian.Uint64(d.buf[d.off:])
	d.off += 8
	return v, nil
}

// bytes16 returns the next str16 field as a slice of the batch.
func (d *wireDecoder) bytes16() ([]byte, error) {
	if err := d.need(2); err != nil {
		return nil, err
	}
	n := int(binary.BigEndian.Uint16(d.buf[d.off:]))
	d.off += 2
	if err := d.need(n); err != nil {
		return nil, err
	}
	b := d.buf[d.off : d.off+n : d.off+n]
	d.off += n
	return b, nil
}

// label reads one canonical-form label field.
func (d *wireDecoder) label(what string) (ifc.Label, error) {
	b, err := d.bytes16()
	if err != nil {
		return ifc.EmptyLabel, err
	}
	l, err := ifc.ParseLabelBytes(b)
	if err != nil {
		return l, fmt.Errorf("%w: %s: %v", ErrWire, what, err)
	}
	return l, nil
}

// owned returns have when b spells it, and a copy of b otherwise.
func owned(b []byte, have string) string {
	if string(b) == have {
		return have
	}
	return string(b)
}

// decodeFrame parses one frame at the cursor into f.
func (d *wireDecoder) decodeFrame(f *LinkFrame) error {
	k, err := d.byte()
	if err != nil {
		return err
	}
	if f.Kind, err = kindString(k); err != nil {
		return err
	}
	if f.ID, err = d.uint64(); err != nil {
		return err
	}
	flags, err := d.byte()
	if err != nil {
		return err
	}
	f.OK = flags&flagOK != 0
	var bus, src, dst []byte
	for _, p := range [...]*[]byte{&bus, &src, &dst} {
		if *p, err = d.bytes16(); err != nil {
			return err
		}
	}
	if f.SrcSecrecy, err = d.label("src secrecy"); err != nil {
		return err
	}
	if f.SrcIntegrity, err = d.label("src integrity"); err != nil {
		return err
	}
	if f.SrcJurisdiction, err = d.label("src jurisdiction"); err != nil {
		return err
	}
	if f.SrcPurpose, err = d.label("src purpose"); err != nil {
		return err
	}
	var schema, agent, errText []byte
	for _, p := range [...]*[]byte{&schema, &agent, &errText} {
		if *p, err = d.bytes16(); err != nil {
			return err
		}
	}
	var ch *ingressChan
	if k == kindMessage {
		ch = d.in.lookup(src, dst)
	}
	if ch != nil {
		f.Src, f.Dst = ch.src, ch.dst
		f.Schema = owned(schema, ch.schema)
		f.Agent = ifc.PrincipalID(owned(agent, string(ch.agent)))
	} else {
		f.Src, f.Dst = string(src), string(dst)
		f.Schema, f.Agent = string(schema), ifc.PrincipalID(agent)
	}
	f.Bus, f.Err = string(bus), string(errText)
	if err := d.need(4); err != nil {
		return err
	}
	n := int(binary.BigEndian.Uint32(d.buf[d.off:]))
	d.off += 4
	if err := d.need(n); err != nil {
		return err
	}
	f.Payload = nil
	if n > 0 {
		f.Payload = d.buf[d.off : d.off+n : d.off+n]
	}
	d.off += n
	if err := d.need(traceTrailerLen + egressTrailerLen); err != nil {
		return err
	}
	f.Trace.ID.Hi = binary.BigEndian.Uint64(d.buf[d.off:])
	f.Trace.ID.Lo = binary.BigEndian.Uint64(d.buf[d.off+8:])
	f.Trace.Hop = d.buf[d.off+16]
	f.EgressNs = binary.BigEndian.Uint64(d.buf[d.off+traceTrailerLen:])
	d.off += traceTrailerLen + egressTrailerLen
	return nil
}

// DecodeBatch parses one received transport frame into its link frames.
// A batch of another protocol version — including a legacy JSON peer — is
// reported as ErrProtocol with an actionable message; anything else
// malformed is ErrWire. Each frame's Payload aliases data; every other
// field is owned by the frame.
func DecodeBatch(data []byte) ([]LinkFrame, error) {
	return decodeBatch(data, nil, nil)
}

// decodeBatch is DecodeBatch reusing frames' backing array and resolving
// message strings through the ingress table in (nil for none).
func decodeBatch(data []byte, frames []LinkFrame, in ingressTable) ([]LinkFrame, error) {
	if len(data) == 0 {
		return nil, fmt.Errorf("%w: empty frame", ErrWire)
	}
	if data[0] != linkMagic {
		if data[0] == '{' {
			return nil, fmt.Errorf("%w: peer speaks legacy JSON link protocol v1; this bus speaks v%d",
				ErrProtocol, linkVersion)
		}
		return nil, fmt.Errorf("%w: bad magic byte 0x%02x", ErrWire, data[0])
	}
	if len(data) < batchHeaderLen {
		return nil, fmt.Errorf("%w: short batch header", ErrWire)
	}
	if v := data[1]; v != linkVersion {
		return nil, fmt.Errorf("%w: peer speaks link protocol v%d, this bus speaks v%d",
			ErrProtocol, v, linkVersion)
	}
	// The count comes from the peer, possibly before it has authenticated:
	// bound it by what the batch can actually hold before allocating.
	count := int(binary.BigEndian.Uint16(data[2:]))
	if count > (len(data)-batchHeaderLen)/minFrameLen {
		return nil, fmt.Errorf("%w: %d frames declared in a %d-byte batch", ErrWire, count, len(data))
	}
	d := wireDecoder{buf: data, off: batchHeaderLen, in: in}
	frames = slices.Grow(frames[:0], count)[:count]
	for i := range frames {
		if err := d.decodeFrame(&frames[i]); err != nil {
			return nil, err
		}
	}
	if d.off != len(data) {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrWire, len(data)-d.off)
	}
	return frames, nil
}

// encodeSingle packs one frame as a one-element batch (handshake and
// connect replies; the data path batches through the writer goroutine).
func encodeSingle(f *LinkFrame) ([]byte, error) {
	buf := AppendBatchHeader(nil, 1)
	return AppendLinkFrame(buf, f)
}
