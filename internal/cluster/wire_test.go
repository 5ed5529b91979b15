package cluster

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"reflect"
	"testing"

	"vihot/internal/camera"
	"vihot/internal/csi"
	"vihot/internal/envelope"
	"vihot/internal/imu"
	"vihot/internal/journal"
	"vihot/internal/serve"
)

// wireMessages covers every message kind with every optional field
// populated — the round-trip and fuzz seed corpus.
func wireMessages() []*Message {
	// Values picked float32-exact: CSI travels as float32 on the wifi
	// wire, and the round-trip test compares for equality.
	frame := &csi.Frame{Time: 1.25, H: [][]complex128{
		{complex(0.5, -0.125), complex(-0.25, 0.875)},
		{complex(1.0, 0.0), complex(0.0625, 0.09375)},
	}}
	return []*Message{
		{Kind: MsgOpen, To: "n0", Session: "driver-a", Key: "cabin-1"},
		{Kind: MsgItems, To: "n1", T: 2.5, Items: []serve.Item{
			{Session: "driver-a", Kind: serve.KindPhase, Time: 2.0, Phi: -0.75},
			{Session: "driver-b", Kind: serve.KindCamera,
				Camera: camera.Estimate{Time: 2.25, Yaw: 10.5, Valid: true}},
			{Session: "driver-a", Kind: serve.KindFrame, Frame: frame},
			{Session: "driver-b", Kind: serve.KindIMU,
				IMU: imu.Reading{Time: 2.5, GyroZ: -3.25, AccelLat: 0.5}},
		}},
		{Kind: MsgPing, To: "n2", T: 7.5},
		{Kind: MsgPong, From: "n2", T: 7.5},
		{Kind: MsgProfile, To: "n0", Key: "cabin-1", Profile: []byte{0xde, 0xad, 0xbe, 0xef}},
		{Kind: MsgClose, To: "n0", Session: "driver-a"},
	}
}

func TestMessageRoundTrip(t *testing.T) {
	for _, m := range wireMessages() {
		frame, err := EncodeMessage(nil, m)
		if err != nil {
			t.Fatalf("%v: encode: %v", m.Kind, err)
		}
		got, err := DecodeMessage(frame)
		if err != nil {
			t.Fatalf("%v: decode: %v", m.Kind, err)
		}
		// Items round-trip by value except the CSI frame pointer.
		if m.Kind == MsgItems {
			if len(got.Items) != len(m.Items) {
				t.Fatalf("items: got %d, want %d", len(got.Items), len(m.Items))
			}
			for i := range m.Items {
				w, g := m.Items[i], got.Items[i]
				if w.Kind == serve.KindFrame {
					if g.Frame == nil || !reflect.DeepEqual(g.Frame.H, w.Frame.H) || g.Frame.Time != w.Frame.Time {
						t.Fatalf("item %d: frame mismatch", i)
					}
					continue
				}
				if !reflect.DeepEqual(g, w) {
					t.Fatalf("item %d: got %+v, want %+v", i, g, w)
				}
			}
			continue
		}
		want := *m
		if !reflect.DeepEqual(*got, want) {
			t.Fatalf("%v: got %+v, want %+v", m.Kind, *got, want)
		}
	}
}

// TestMessageCanonical holds the codec to its canonicality contract:
// decode(bytes) followed by re-encode reproduces the same bytes.
func TestMessageCanonical(t *testing.T) {
	for _, m := range wireMessages() {
		frame, err := EncodeMessage(nil, m)
		if err != nil {
			t.Fatal(err)
		}
		got, err := DecodeMessage(frame)
		if err != nil {
			t.Fatal(err)
		}
		again, err := EncodeMessage(nil, got)
		if err != nil {
			t.Fatalf("%v: re-encode: %v", m.Kind, err)
		}
		if string(again) != string(frame) {
			t.Fatalf("%v: re-encode differs from original frame", m.Kind)
		}
	}
}

func TestEncodeMessageRejects(t *testing.T) {
	long := func(n int) string {
		b := make([]byte, n)
		for i := range b {
			b[i] = 'x'
		}
		return string(b)
	}
	cases := []struct {
		name string
		m    *Message
	}{
		{"zero kind", &Message{}},
		{"unknown kind", &Message{Kind: 99}},
		{"long node name", &Message{Kind: MsgPing, To: long(maxNodeName + 1)}},
		{"long session", &Message{Kind: MsgOpen, Session: long(maxIDLen + 1), Key: "k"}},
		{"NaN time", &Message{Kind: MsgPing, T: math.NaN()}},
		{"Inf time", &Message{Kind: MsgPing, T: math.Inf(1)}},
		{"oversized batch", &Message{Kind: MsgItems, Items: make([]serve.Item, maxItemsPerMsg+1)}},
		{"bad item kind", &Message{Kind: MsgItems, Items: []serve.Item{{Session: "s", Kind: 42}}}},
		{"retired restore kind", &Message{Kind: 5, To: "n0", Session: "s", Key: "k"}},
		{"retired estimate kind", &Message{Kind: 7, Session: "s"}},
	}
	for _, tc := range cases {
		if _, err := EncodeMessage(nil, tc.m); err == nil {
			t.Errorf("%s: encode accepted", tc.name)
		}
	}
}

func TestDecodeMessageRejectsMalformed(t *testing.T) {
	good, err := EncodeMessage(nil, wireMessages()[1]) // the items batch
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name  string
		frame []byte
	}{
		{"empty", nil},
		{"truncated frame", good[:len(good)-3]},
		{"trailing bytes", append(append([]byte(nil), good...), 0)},
		{"empty payload", rawEnvelope(nil)},
		{"unknown kind", appendEnvelope(nil, []byte{0})},
		{"truncated header", appendEnvelope(nil, []byte{byte(MsgPing), 1, 2})},
		{"trailing payload", appendEnvelope(nil, append(encodePayload(t, &Message{Kind: MsgPing, T: 1}), 0xff))},
		{"items count beyond payload", appendEnvelope(nil, func() []byte {
			p := encodePayload(t, &Message{Kind: MsgItems})
			p[len(p)-1] = 5 // claim 5 items, carry none
			return p
		}())},
	}
	for _, tc := range cases {
		if _, err := DecodeMessage(tc.frame); err == nil {
			t.Errorf("%s: decode accepted", tc.name)
		}
	}
	// Kinds 5 (restore) and 7 (estimate backflow) are retired: frames
	// carrying the bodies they used to have are unknown kinds now.
	for _, frame := range retiredFrames(t) {
		if _, err := DecodeMessage(frame); !errors.Is(err, ErrBadMessage) {
			t.Errorf("retired kind %d: decode err = %v, want ErrBadMessage", frame[envelope.HeaderLen], err)
		}
	}
	// Corrupt one payload byte: the envelope CRC must catch it.
	bad := append([]byte(nil), good...)
	bad[len(bad)-5] ^= 0x40
	if _, err := DecodeMessage(bad); err == nil {
		t.Error("payload corruption decoded cleanly past the CRC")
	}
}

// retiredFrame builds a frame of a retired message kind with the body
// it used to carry, so the rejection is down to the kind byte alone.
func retiredFrame(t testing.TB, kind MsgKind, body []byte) []byte {
	t.Helper()
	p := encodePayload(t, &Message{Kind: MsgOpen, To: "n0", Session: "s", Key: "k"})
	p[0] = byte(kind)
	return appendEnvelope(nil, append(p, body...))
}

// retiredFrames are one frame each of the retired kinds 5 (restore,
// carrying a framed export record) and 7 (estimate backflow, carrying
// its 30-byte estimate body).
func retiredFrames(t testing.TB) [][]byte {
	return [][]byte{
		retiredFrame(t, 5, retiredExportRecord()),
		retiredFrame(t, 7, make([]byte, 8+8+8+4+1+1)),
	}
}

// retiredExportRecord is a framed kind-6 journal record in the retired
// session-export layout: estimate tail, estimate time, from/to node
// indices and flags.
func retiredExportRecord() []byte {
	payload := []byte{6, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 's'}
	payload = append(payload, make([]byte, 22+8+3)...)
	spec := envelope.Spec{Magic: journal.Magic, Version: journal.FormatVersion, MaxPayload: 1 << 10}
	return envelope.Append(nil, spec, payload)
}

func encodePayload(t testing.TB, m *Message) []byte {
	t.Helper()
	p, err := appendMsgPayload(nil, m)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func appendEnvelope(dst, payload []byte) []byte {
	return envelope.Append(dst, wireSpec, payload)
}

// rawEnvelope hand-builds a frame header so tests can produce shapes
// envelope.Append itself refuses (like an empty payload).
func rawEnvelope(payload []byte) []byte {
	hdr := make([]byte, envelope.HeaderLen)
	copy(hdr[0:4], WireMagic)
	binary.BigEndian.PutUint16(hdr[4:6], WireVersion)
	binary.BigEndian.PutUint64(hdr[8:16], uint64(len(payload)))
	binary.BigEndian.PutUint32(hdr[16:20], crc32.ChecksumIEEE(payload))
	return append(hdr, payload...)
}
