package cluster

import (
	"testing"
)

// FuzzClusterDecode throws arbitrary frames at the cluster wire
// decoder. It must never panic, and any frame it accepts must be
// canonical: re-encoding the decoded message reproduces the input
// bytes exactly. That invariant is what makes the wire layer safe to
// proxy — an intermediary can decode, inspect, and re-frame without
// changing what the receiver sees.
func FuzzClusterDecode(f *testing.F) {
	var frames [][]byte
	for _, m := range wireMessages() {
		frame, err := EncodeMessage(nil, m)
		if err != nil {
			f.Fatal(err)
		}
		frames = append(frames, frame)
	}
	// The retired kinds, with the bodies they used to carry, sit at the
	// format's edge: the decoder must reject them and their mutations
	// must not slip through as some live kind.
	frames = append(frames, retiredFrames(f)...)
	for _, frame := range frames {
		f.Add(append([]byte(nil), frame...))
		// Systematic truncations and corruptions of each seed.
		for _, n := range []int{0, 4, 19, 20, 21, len(frame) - 1} {
			if n >= 0 && n <= len(frame) {
				f.Add(append([]byte(nil), frame[:n]...))
			}
		}
		bad := append([]byte(nil), frame...)
		bad[0] = 'X' // magic
		f.Add(bad)
		bad = append([]byte(nil), frame...)
		bad[5] = 9 // version
		f.Add(bad)
		bad = append([]byte(nil), frame...)
		bad[20] = 200 // message kind byte
		f.Add(bad)
		f.Add(append(append([]byte(nil), frame...), 0xff))
	}
	f.Add(rawEnvelope(nil))

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := DecodeMessage(data)
		// The pooled decoder must agree on the accept/reject verdict.
		pm, perr := decodeMessage(data, true)
		if (err == nil) != (perr == nil) {
			t.Fatalf("heap decode err=%v but pooled decode err=%v", err, perr)
		}
		if err != nil {
			if m != nil {
				t.Fatalf("DecodeMessage returned both a message and error %v", err)
			}
			return
		}
		if !m.Kind.valid() {
			t.Fatalf("decoder accepted invalid kind %d", uint8(m.Kind))
		}
		if pm.Kind != m.Kind || len(pm.Items) != len(m.Items) {
			t.Fatalf("pooled/heap decode disagree: %v/%d vs %v/%d",
				pm.Kind, len(pm.Items), m.Kind, len(m.Items))
		}
		again, err := EncodeMessage(nil, m)
		if err != nil {
			t.Fatalf("accepted message does not re-encode: %v", err)
		}
		if string(again) != string(data) {
			t.Fatalf("re-encode is not canonical:\n in: %x\nout: %x", data, again)
		}
	})
}
