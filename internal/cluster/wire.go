package cluster

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"vihot/internal/envelope"
	"vihot/internal/serve"
	"vihot/internal/wifi"
)

// The cluster wire format: every coordinator↔node exchange is one
// envelope frame (magic "ViHC", the same magic/version/length/CRC-32
// frame layout journals and profiles use) whose payload is:
//
//	offset  size  field
//	0       1     message kind
//	1       8     stream time, IEEE-754 bits big-endian
//	9       1+F   from-node name (u8 length prefix)
//	…       1+T   to-node name (u8 length prefix; empty = the router)
//	…       2+S   session ID (u16 length prefix)
//	…       2+K   profile key (u16 length prefix)
//	…       …     kind-specific body (below)
//
// Bodies:
//
//	items:    u16 count, then per item: session (u16 prefix), item
//	          kind u8, then phase (t f64 | phi f64), camera
//	          (t f64 | yaw f64 | valid u8), or a length-prefixed
//	          wifi CSI/IMU datagram ("VHOT", PR 1) verbatim — the
//	          cluster reuses the existing sensor wire layer rather
//	          than inventing a second frame encoding
//	profile:  the profile's own persisted form ("ViHP", PR 4), opaque
//	          here, validated when the receiving node applies it
//	open, close, ping, pong: empty
//
// Decoding is strict — unknown kinds, oversized names, short or
// trailing bytes, and malformed embedded datagrams are all
// ErrBadMessage — and canonical: any accepted frame re-encodes to the
// same bytes, the invariant FuzzClusterDecode holds the codec to.
const (
	// WireMagic opens every cluster frame.
	WireMagic = "ViHC"
	// WireVersion is the cluster frame version this build speaks.
	WireVersion = 1

	// maxWirePayload caps a frame: profiles are the largest legitimate
	// payload (a few hundred KB at fleet-typical grid sizes).
	maxWirePayload = 16 << 20
	// maxNodeName bounds member names (u8 length prefix).
	maxNodeName = 255
	// maxIDLen bounds session IDs and profile keys on the wire.
	maxIDLen = 1024
	// maxItemsPerMsg bounds one items batch; the router flushes a
	// node's batch at this size.
	maxItemsPerMsg = 1024
)

// wireSpec is the cluster's envelope.
var wireSpec = envelope.Spec{Magic: WireMagic, Version: WireVersion, MaxPayload: maxWirePayload}

// ErrBadMessage wraps every payload-level decode failure.
var ErrBadMessage = errors.New("cluster: bad message")

// MsgKind discriminates cluster messages. The zero value is invalid
// on purpose, like journal record kinds.
type MsgKind uint8

// Message kinds. Numbers 5 and 7 are retired and decode as unknown;
// the others keep their values, so a live kind's frames never change
// meaning.
const (
	MsgOpen    MsgKind = 1 // router→node: open Session over Key's profile
	MsgItems   MsgKind = 2 // router→node: a batch of sensor items
	MsgPing    MsgKind = 3 // router→node: heartbeat probe at stream time T
	MsgPong    MsgKind = 4 // node→router: heartbeat reply echoing T
	MsgProfile MsgKind = 6 // router→node: replicate Key's profile bytes
	MsgClose   MsgKind = 8 // router→node: close Session
)

// String names the kind for counters and tooling.
func (k MsgKind) String() string {
	switch k {
	case MsgOpen:
		return "open"
	case MsgItems:
		return "items"
	case MsgPing:
		return "ping"
	case MsgPong:
		return "pong"
	case MsgProfile:
		return "profile"
	case MsgClose:
		return "close"
	default:
		return fmt.Sprintf("MsgKind(%d)", uint8(k))
	}
}

func (k MsgKind) valid() bool {
	switch k {
	case MsgOpen, MsgItems, MsgPing, MsgPong, MsgProfile, MsgClose:
		return true
	}
	return false
}

// Message is one cluster exchange. Exactly the fields implied by Kind
// are meaningful.
type Message struct {
	Kind    MsgKind
	From    string  // sender node name; "" is the router
	To      string  // receiver node name; "" is the router
	Session string  // MsgOpen, MsgClose
	Key     string  // MsgOpen, MsgProfile: profile-store key
	T       float64 // stream time: heartbeat probe time, batch max time

	Items   []serve.Item // MsgItems
	Profile []byte       // MsgProfile: persisted profile bytes, opaque
}

// EncodeMessage frames one message onto dst. Frames embedded in items
// are encoded through the wifi wire layer; a frame that fails its own
// encoder (impossible shapes) fails the whole message.
func EncodeMessage(dst []byte, m *Message) ([]byte, error) {
	payload, err := appendMsgPayload(nil, m)
	if err != nil {
		return dst, err
	}
	return envelope.Append(dst, wireSpec, payload), nil
}

func appendMsgPayload(dst []byte, m *Message) ([]byte, error) {
	if !m.Kind.valid() {
		return dst, fmt.Errorf("%w: unknown kind %d", ErrBadMessage, uint8(m.Kind))
	}
	if len(m.From) > maxNodeName || len(m.To) > maxNodeName {
		return dst, fmt.Errorf("%w: node name too long", ErrBadMessage)
	}
	if len(m.Session) > maxIDLen || len(m.Key) > maxIDLen {
		return dst, fmt.Errorf("%w: session/key too long", ErrBadMessage)
	}
	if math.IsNaN(m.T) || math.IsInf(m.T, 0) {
		return dst, fmt.Errorf("%w: non-finite stream time", ErrBadMessage)
	}
	dst = append(dst, byte(m.Kind))
	dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(m.T))
	dst = append(dst, byte(len(m.From)))
	dst = append(dst, m.From...)
	dst = append(dst, byte(len(m.To)))
	dst = append(dst, m.To...)
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(m.Session)))
	dst = append(dst, m.Session...)
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(m.Key)))
	dst = append(dst, m.Key...)
	switch m.Kind {
	case MsgItems:
		if len(m.Items) > maxItemsPerMsg {
			return dst, fmt.Errorf("%w: %d items in one batch", ErrBadMessage, len(m.Items))
		}
		dst = binary.BigEndian.AppendUint16(dst, uint16(len(m.Items)))
		var err error
		for i := range m.Items {
			if dst, err = appendItem(dst, &m.Items[i]); err != nil {
				return dst, err
			}
		}
	case MsgProfile:
		dst = append(dst, m.Profile...)
	}
	return dst, nil
}

// appendItem encodes one sensor item. Sessions repeat inside a batch
// (a u16 prefix each) — batches are grouped per node, not per
// session, and the repeated short ID compresses the router's logic,
// not the wire's bytes; at 8-byte session IDs the overhead is ~10% of
// a phase item and ~2% of a frame.
func appendItem(dst []byte, it *serve.Item) ([]byte, error) {
	if len(it.Session) > maxIDLen {
		return dst, fmt.Errorf("%w: item session too long", ErrBadMessage)
	}
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(it.Session)))
	dst = append(dst, it.Session...)
	dst = append(dst, byte(it.Kind))
	switch it.Kind {
	case serve.KindPhase:
		dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(it.Time))
		dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(it.Phi))
	case serve.KindCamera:
		dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(it.Camera.Time))
		dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(it.Camera.Yaw))
		v := byte(0)
		if it.Camera.Valid {
			v = 1
		}
		dst = append(dst, v)
	case serve.KindFrame:
		dg, err := wifi.EncodeCSI(nil, it.Frame)
		if err != nil {
			return dst, fmt.Errorf("%w: %v", ErrBadMessage, err)
		}
		dst = binary.BigEndian.AppendUint32(dst, uint32(len(dg)))
		dst = append(dst, dg...)
	case serve.KindIMU:
		r := it.IMU
		dg := wifi.EncodeIMU(nil, &r)
		dst = binary.BigEndian.AppendUint32(dst, uint32(len(dg)))
		dst = append(dst, dg...)
	default:
		return dst, fmt.Errorf("%w: unknown item kind %d", ErrBadMessage, uint8(it.Kind))
	}
	return dst, nil
}

// DecodeMessage decodes one framed cluster message. Embedded CSI
// frames are heap-allocated; transports that own their read buffers
// use decodeMessage with pooled=true instead.
func DecodeMessage(frame []byte) (*Message, error) {
	return decodeMessage(frame, false)
}

func decodeMessage(frame []byte, pooled bool) (*Message, error) {
	br := bytes.NewReader(frame)
	payload, _, err := envelope.Read(br, wireSpec)
	if err != nil {
		return nil, err
	}
	if br.Len() != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes after frame", ErrBadMessage, br.Len())
	}
	d := wireDecoder{b: payload}
	m := &Message{}
	m.Kind = MsgKind(d.u8())
	if !m.Kind.valid() {
		return nil, fmt.Errorf("%w: unknown kind %d", ErrBadMessage, uint8(m.Kind))
	}
	m.T = d.f64()
	m.From = d.str8()
	m.To = d.str8()
	m.Session = d.str16()
	m.Key = d.str16()
	if d.err != nil {
		return nil, d.err
	}
	if math.IsNaN(m.T) || math.IsInf(m.T, 0) {
		return nil, fmt.Errorf("%w: non-finite stream time", ErrBadMessage)
	}
	switch m.Kind {
	case MsgItems:
		n := int(d.u16())
		if d.err != nil {
			return nil, d.err
		}
		if n > maxItemsPerMsg {
			return nil, fmt.Errorf("%w: %d items in one batch", ErrBadMessage, n)
		}
		m.Items = make([]serve.Item, 0, n)
		for i := 0; i < n; i++ {
			it, err := d.item(pooled)
			if err != nil {
				return nil, err
			}
			m.Items = append(m.Items, it)
		}
	case MsgProfile:
		m.Profile = append([]byte(nil), d.rest()...)
	}
	if d.err != nil {
		return nil, d.err
	}
	if len(d.b) != 0 {
		return nil, fmt.Errorf("%w: %d trailing payload bytes", ErrBadMessage, len(d.b))
	}
	return m, nil
}

// wireDecoder is a cursor over a message payload; the first failed
// read poisons it and every later read returns zeros.
type wireDecoder struct {
	b   []byte
	err error
}

func (d *wireDecoder) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: truncated %s", ErrBadMessage, what)
	}
}

func (d *wireDecoder) u8() uint8 {
	if d.err != nil || len(d.b) < 1 {
		d.fail("byte")
		return 0
	}
	v := d.b[0]
	d.b = d.b[1:]
	return v
}

func (d *wireDecoder) u16() uint16 {
	if d.err != nil || len(d.b) < 2 {
		d.fail("uint16")
		return 0
	}
	v := binary.BigEndian.Uint16(d.b)
	d.b = d.b[2:]
	return v
}

func (d *wireDecoder) u32() uint32 {
	if d.err != nil || len(d.b) < 4 {
		d.fail("uint32")
		return 0
	}
	v := binary.BigEndian.Uint32(d.b)
	d.b = d.b[4:]
	return v
}

func (d *wireDecoder) f64() float64 {
	if d.err != nil || len(d.b) < 8 {
		d.fail("float64")
		return 0
	}
	v := math.Float64frombits(binary.BigEndian.Uint64(d.b))
	d.b = d.b[8:]
	return v
}

func (d *wireDecoder) take(n int, what string) []byte {
	if d.err != nil || n < 0 || len(d.b) < n {
		d.fail(what)
		return nil
	}
	v := d.b[:n]
	d.b = d.b[n:]
	return v
}

func (d *wireDecoder) str8() string  { return string(d.take(int(d.u8()), "name")) }
func (d *wireDecoder) str16() string { return string(d.take(int(d.u16()), "id")) }

func (d *wireDecoder) rest() []byte {
	v := d.b
	d.b = nil
	return v
}

// item decodes one sensor item, dispatching embedded datagrams
// through the wifi wire layer (pooled frames when the transport owns
// its buffers). The datagram type must match the declared item kind.
func (d *wireDecoder) item(pooled bool) (serve.Item, error) {
	var it serve.Item
	it.Session = d.str16()
	kind := serve.ItemKind(d.u8())
	if d.err != nil {
		return it, d.err
	}
	it.Kind = kind
	switch kind {
	case serve.KindPhase:
		it.Time = d.f64()
		it.Phi = d.f64()
	case serve.KindCamera:
		it.Camera.Time = d.f64()
		it.Camera.Yaw = d.f64()
		switch d.u8() {
		case 0:
		case 1:
			it.Camera.Valid = true
		default:
			return it, fmt.Errorf("%w: camera valid flag not 0/1", ErrBadMessage)
		}
	case serve.KindFrame, serve.KindIMU:
		dg := d.take(int(d.u32()), "datagram")
		if d.err != nil {
			return it, d.err
		}
		var pkt *wifi.Packet
		var err error
		if pooled {
			pkt, err = wifi.DecodePooled(dg)
		} else {
			pkt, err = wifi.Decode(dg)
		}
		if err != nil {
			return it, fmt.Errorf("%w: embedded datagram: %v", ErrBadMessage, err)
		}
		switch {
		case kind == serve.KindFrame && pkt.Type == wifi.TypeCSI:
			it.Frame = pkt.CSI
		case kind == serve.KindIMU && pkt.Type == wifi.TypeIMU:
			it.IMU = *pkt.IMU
		default:
			return it, fmt.Errorf("%w: datagram type %d under item kind %d", ErrBadMessage, pkt.Type, uint8(kind))
		}
	default:
		return it, fmt.Errorf("%w: unknown item kind %d", ErrBadMessage, uint8(kind))
	}
	return it, d.err
}
