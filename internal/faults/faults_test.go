package faults

import (
	"encoding/binary"
	"math"
	"reflect"
	"testing"

	"vihot/internal/camera"
	"vihot/internal/csi"
	"vihot/internal/imu"
	"vihot/internal/serve"
	"vihot/internal/stats"
	"vihot/internal/wifi"
)

// testFrame builds a small 2×4 frame with distinct, finite values.
func testFrame(t float64) *csi.Frame {
	f := &csi.Frame{Time: t, H: make([][]complex128, 2)}
	for a := range f.H {
		row := make([]complex128, 4)
		for k := range row {
			row[k] = complex(1+float64(a), float64(k)*0.25)
		}
		f.H[a] = row
	}
	return f
}

// camEst builds one valid camera estimate.
func camEst(t float64) camera.Estimate { return camera.Estimate{Time: t, Yaw: 1, Valid: true} }

// seqPayload stamps a sequence number into a reusable buffer, the way
// a real sender reuses its encode buffer.
func seqPayload(buf []byte, seq uint32) []byte {
	binary.BigEndian.PutUint32(buf[:4], seq)
	return buf[:16]
}

func TestPacketInjectorLossDropsEverything(t *testing.T) {
	pi := NewPacketInjector(PacketConfig{Loss: 1}, stats.NewRNG(1))
	buf := make([]byte, 16)
	emitted := 0
	for i := 0; i < 50; i++ {
		if err := pi.Apply(seqPayload(buf, uint32(i)), func([]byte) error { emitted++; return nil }); err != nil {
			t.Fatal(err)
		}
	}
	if emitted != 0 || pi.Stats.Lost != 50 {
		t.Fatalf("emitted=%d lost=%d, want 0/50", emitted, pi.Stats.Lost)
	}
}

func TestPacketInjectorDupDoubles(t *testing.T) {
	pi := NewPacketInjector(PacketConfig{Dup: 1}, stats.NewRNG(1))
	buf := make([]byte, 16)
	emitted := 0
	for i := 0; i < 50; i++ {
		if err := pi.Apply(seqPayload(buf, uint32(i)), func([]byte) error { emitted++; return nil }); err != nil {
			t.Fatal(err)
		}
	}
	if emitted != 100 || pi.Stats.Duplicated != 50 {
		t.Fatalf("emitted=%d dup=%d, want 100/50", emitted, pi.Stats.Duplicated)
	}
}

// TestPacketInjectorReorderDeliversAll proves reordering neither loses
// nor duplicates datagrams, actually shuffles the order, and — the
// trap — holds private copies, immune to the sender reusing its encode
// buffer between sends.
func TestPacketInjectorReorderDeliversAll(t *testing.T) {
	const n = 400
	pi := NewPacketInjector(PacketConfig{Reorder: 0.5, ReorderDepth: 6}, stats.NewRNG(2))
	buf := make([]byte, 16) // reused for every send, like wifi.Sender
	var got []uint32
	emit := func(b []byte) error {
		got = append(got, binary.BigEndian.Uint32(b[:4]))
		return nil
	}
	for i := 0; i < n; i++ {
		if err := pi.Apply(seqPayload(buf, uint32(i)), emit); err != nil {
			t.Fatal(err)
		}
	}
	if err := pi.Flush(emit); err != nil {
		t.Fatal(err)
	}
	if len(got) != n {
		t.Fatalf("delivered %d datagrams, want %d", len(got), n)
	}
	seen := make(map[uint32]bool, n)
	inOrder := true
	for i, s := range got {
		if seen[s] {
			t.Fatalf("sequence %d delivered twice", s)
		}
		seen[s] = true
		if i > 0 && s < got[i-1] {
			inOrder = false
		}
	}
	if inOrder {
		t.Fatal("50% reorder probability produced a fully ordered delivery")
	}
	if pi.Stats.Reordered == 0 {
		t.Fatal("Stats.Reordered = 0")
	}
}

func TestPacketInjectorCorruptCopies(t *testing.T) {
	pi := NewPacketInjector(PacketConfig{Corrupt: 1}, stats.NewRNG(3))
	orig := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	ref := append([]byte(nil), orig...)
	changed := false
	err := pi.Apply(orig, func(b []byte) error {
		if !reflect.DeepEqual(b, ref) {
			changed = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !changed {
		t.Fatal("corruption emitted the original bytes unchanged")
	}
	if !reflect.DeepEqual(orig, ref) {
		t.Fatal("corruption mutated the caller's buffer")
	}
	if pi.Stats.Corrupted != 1 {
		t.Fatalf("Corrupted = %d, want 1", pi.Stats.Corrupted)
	}
}

// TestFaultSenderRoundTrip runs frames and readings through the full
// Sender → RawSender path with faults disabled and decodes what comes
// out: the fault layer at zero must be a perfect wire.
func TestFaultSenderRoundTrip(t *testing.T) {
	var wire [][]byte
	raw := rawFunc(func(b []byte) error {
		wire = append(wire, append([]byte(nil), b...))
		return nil
	})
	s := NewSender(raw, NewPacketInjector(PacketConfig{}, stats.NewRNG(4)))

	f := testFrame(1.5)
	if err := s.SendCSI(f); err != nil {
		t.Fatal(err)
	}
	r := imu.Reading{Time: 1.51, GyroZ: 12.5, AccelLat: -0.5}
	if err := s.SendIMU(&r); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if len(wire) != 2 {
		t.Fatalf("wire saw %d datagrams, want 2", len(wire))
	}
	pkt, err := wifi.Decode(wire[0])
	if err != nil || pkt.Type != wifi.TypeCSI {
		t.Fatalf("decode frame: %v (type %d)", err, pkt.Type)
	}
	if pkt.CSI.Time != f.Time || pkt.CSI.NAntennas() != 2 || pkt.CSI.NSubcarriers() != 4 {
		t.Fatalf("frame round trip mangled shape: %+v", pkt.CSI)
	}
	pkt, err = wifi.Decode(wire[1])
	if err != nil || pkt.Type != wifi.TypeIMU {
		t.Fatalf("decode imu: %v", err)
	}
	if pkt.IMU.Time != r.Time || math.Abs(pkt.IMU.GyroZ-r.GyroZ) > 1e-6 {
		t.Fatalf("imu round trip = %+v, want %+v", pkt.IMU, r)
	}
}

type rawFunc func([]byte) error

func (f rawFunc) SendRaw(b []byte) error { return f(b) }

func TestCSICorruptorWindows(t *testing.T) {
	c := NewCSICorruptor(CSIConfig{
		NoiseWindows:   []Window{{Start: 1, End: 2}},
		NoiseStd:       0.8,
		DropoutWindows: []Window{{Start: 3, End: 4}},
	}, stats.NewRNG(5))

	clean := testFrame(0.5)
	if got := c.Frame(clean); got != clean {
		t.Fatal("frame outside every window was copied")
	}

	noisy := testFrame(1.5)
	ref := noisy.Clone()
	got := c.Frame(noisy)
	if got == noisy {
		t.Fatal("noised frame aliases the input")
	}
	if !reflect.DeepEqual(noisy.H, ref.H) {
		t.Fatal("corruptor mutated the input frame")
	}
	if reflect.DeepEqual(got.H, ref.H) {
		t.Fatal("noise window left the frame unchanged")
	}

	dropped := c.Frame(testFrame(3.5))
	for k, h := range dropped.H[1] {
		if h != 0 {
			t.Fatalf("dropout left antenna 1 subcarrier %d = %v", k, h)
		}
	}
	if _, err := csi.Sanitize(dropped, 0, 1); err == nil {
		t.Fatal("sanitizer accepted a dropout frame; the starvation path depends on rejection")
	}

	if c.Phase(1.5, 0) == 0 {
		t.Fatal("phase noise window had no effect")
	}
	if c.Phase(0.5, 0.25) != 0.25 {
		t.Fatal("phase outside windows was modified")
	}
}

func TestInjectorOutageWindows(t *testing.T) {
	in := New(Config{
		Seed:          6,
		CSIBlackouts:  []Window{{Start: 1, End: 2}},
		IMUOutages:    []Window{{Start: 3, End: 4}},
		CameraOutages: []Window{{Start: 5, End: 6}},
	})
	items := []serve.Item{
		{Kind: serve.KindPhase, Time: 0.5},
		{Kind: serve.KindPhase, Time: 1.5},                 // blacked out
		{Kind: serve.KindFrame, Frame: testFrame(1.7)},     // blacked out
		{Kind: serve.KindIMU, IMU: imu.Reading{Time: 3.5}}, // outage
		{Kind: serve.KindIMU, IMU: imu.Reading{Time: 4.5}}, // survives
		{Kind: serve.KindCamera, Camera: camEst(5.5)},      // outage
		{Kind: serve.KindCamera, Camera: camEst(6.5)},      // survives
	}
	out := in.Apply(items)
	if len(out) != 3 {
		t.Fatalf("Apply kept %d items, want 3: %+v", len(out), out)
	}
	if in.Stats.BlackedOut != 4 {
		t.Fatalf("BlackedOut = %d, want 4", in.Stats.BlackedOut)
	}
}

func TestInjectorClockFaults(t *testing.T) {
	in := New(Config{Seed: 7, Clock: ClockConfig{Regress: 1, RegressBy: 0.5, Dup: 1}})
	out := in.Apply([]serve.Item{{Kind: serve.KindPhase, Time: 2, Phi: 0.1}})
	if len(out) != 2 {
		t.Fatalf("dup delivered %d items, want 2", len(out))
	}
	for _, it := range out {
		if it.Time != 1.5 {
			t.Fatalf("regressed time = %v, want 1.5", it.Time)
		}
	}
	if in.Stats.Regressed != 1 || in.Stats.DupItems != 1 {
		t.Fatalf("stats = %+v", in.Stats)
	}
}

// TestInjectorPumpDeterminism is the acceptance property: one seed,
// one input stream → one output stream, bit for bit, run after run.
func TestInjectorPumpDeterminism(t *testing.T) {
	cfg := Config{
		Seed: 99,
		Packet: PacketConfig{
			Loss: 0.2, Dup: 0.05, Reorder: 0.1, ReorderDepth: 5, Corrupt: 0.05,
		},
		CSI: CSIConfig{
			NoiseWindows:   []Window{{Start: 0.2, End: 0.4}},
			DropoutWindows: []Window{{Start: 0.6, End: 0.7}},
		},
		Clock:        ClockConfig{JitterStd: 0.001, Regress: 0.02, Dup: 0.02},
		CSIBlackouts: []Window{{Start: 0.8, End: 0.9}},
	}
	var items []serve.Item
	for i := 0; i < 500; i++ {
		ts := float64(i) * 0.002
		items = append(items, serve.Item{Kind: serve.KindFrame, Frame: testFrame(ts)})
		if i%5 == 0 {
			items = append(items, serve.Item{Kind: serve.KindIMU, IMU: imu.Reading{Time: ts}})
		}
	}
	a := New(cfg).Pump("s", items)
	b := New(cfg).Pump("s", items)
	if len(a) != len(b) {
		t.Fatalf("two identical pumps: %d vs %d items", len(a), len(b))
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("identical seeds produced different fault schedules")
	}
	if len(a) == len(items) {
		t.Fatal("fault schedule injected nothing")
	}
}
