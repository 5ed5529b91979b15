package rf

import (
	"math"
	"math/rand"
	"testing"

	"vihot/internal/geom"
)

// firstBitMismatch returns the first index where got and want differ
// in either component's bit pattern, or -1 when they are identical.
// Two NaNs match whatever their payloads: the compiler may commute a
// multiply, and amd64 keeps the first operand's payload, so the
// payload of NaN·NaN is not fixed by the source.
func firstBitMismatch(got, want []complex128) int {
	if len(got) != len(want) {
		return 0
	}
	same := func(x, y float64) bool {
		return math.Float64bits(x) == math.Float64bits(y) || math.IsNaN(x) && math.IsNaN(y)
	}
	for k := range got {
		if !same(real(got[k]), real(want[k])) || !same(imag(got[k]), imag(want[k])) {
			return k
		}
	}
	return -1
}

// phasorChannels are the channelizations a phasor program switches
// between; the last has few subcarriers so short inputs reach it.
var phasorChannels = []Channelization{
	Channel2G4(),
	Channel5G(),
	{CenterHz: 1e9, SpacingHz: 1e6, NSubcarriers: 3},
}

// phasorValues are the values a program writes into a path field:
// ordinary magnitudes plus the ones bit-pattern keys must tell apart
// (±0, NaN, ±Inf) and the ones that clamp the amplitude to zero.
var phasorValues = []float64{
	0, math.Copysign(0, -1), 1, 0.5, 0.25, 2, 1e-3, -1,
	math.NaN(), math.Inf(1), math.Inf(-1), 0.3, 0.0625, 3, 1.5, 0.75,
}

// runPhasorProgram interprets prog as a sequence of edits to a path
// list — grow, shrink, change a slot's amplitude or length, zero its
// amplitude, switch channelization — and after every edit checks each
// channelization's cache against the oracle bit for bit. One cache
// per channelization lives across the whole program, so a cache sees
// its slots change while it was not being called.
func runPhasorProgram(t *testing.T, prog []byte) {
	t.Helper()
	pos := 0
	next := func() byte {
		if pos >= len(prog) {
			return 0
		}
		b := prog[pos]
		pos++
		return b
	}
	val := func() float64 { return phasorValues[next()%byte(len(phasorValues))] }
	caches := make([]*PhasorCache, len(phasorChannels))
	for i, c := range phasorChannels {
		caches[i] = NewPhasorCache(c)
	}
	var paths []Path
	var dst []complex128
	ch := 0
	for step := 0; pos < len(prog); step++ {
		op := next()
		slot := 0
		if len(paths) > 0 {
			slot = int(next()) % len(paths)
		}
		switch op % 8 {
		case 0:
			ch = int(next()) % len(phasorChannels)
		case 1:
			if len(paths) < 24 {
				x, y := val(), val()
				paths = append(paths, Path{
					Points:       []geom.Vec3{{}, {X: 0.4 + x/4, Y: y / 8}, {X: 1}},
					Reflectivity: 0.5, Blockage: 1, TXGain: 1, RXGain: 1,
				})
			}
		case 2:
			if len(paths) > 0 {
				paths = paths[:len(paths)-int(next())%len(paths)-1]
			}
		case 3:
			if len(paths) > 0 {
				paths[slot].Reflectivity = val()
			}
		case 4:
			if len(paths) > 0 {
				p := append([]geom.Vec3(nil), paths[slot].Points...)
				p[1].Y += val() / 64
				paths[slot].Points = p
			}
		case 5:
			if len(paths) > 0 {
				paths[slot].Blockage = 0
			}
		case 6:
			if len(paths) > 0 {
				paths[slot].Extra = val()
			}
		case 7:
			// Repeat the frame unchanged: every row is reused.
		}
		want := CSIAllSubcarriers(paths, phasorChannels[ch], nil)
		dst = caches[ch].CSI(paths, dst)
		if bad := firstBitMismatch(dst, want); bad >= 0 {
			t.Fatalf("step %d (op %d, channel %d, %d paths): subcarrier %d: cache %v, oracle %v",
				step, op%8, ch, len(paths), bad, dst[bad], want[bad])
		}
	}
}

func TestPhasorCacheMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 300; trial++ {
		prog := make([]byte, 2+rng.Intn(400))
		rng.Read(prog)
		runPhasorProgram(t, prog)
	}
}

// TestPhasorCacheReusesRows pins that an unchanged path is not
// recomputed: a row planted in the cache shows through until the
// path's key changes.
func TestPhasorCacheReusesRows(t *testing.T) {
	c := Channel2G4()
	paths := []Path{
		{Points: []geom.Vec3{{}, {X: 1}}, Reflectivity: 1, Blockage: 1, TXGain: 1, RXGain: 1},
		{Points: []geom.Vec3{{}, {X: 0.5, Y: 0.5}, {X: 1}}, Reflectivity: 0.4, Blockage: 1, TXGain: 1, RXGain: 1},
	}
	pc := NewPhasorCache(c)
	pc.CSI(paths, nil)
	planted := complex(7, 7)
	pc.rows[0] = planted // slot 0, subcarrier 0
	got := pc.CSI(paths, nil)
	if want := planted + pc.rows[c.NSubcarriers]; got[0] != want {
		t.Fatalf("unchanged path recomputed: subcarrier 0 = %v, want %v", got[0], want)
	}
	paths[0].Extra = 0.01
	got = pc.CSI(paths, nil)
	want := CSIAllSubcarriers(paths, c, nil)
	if bad := firstBitMismatch(got, want); bad >= 0 {
		t.Fatalf("changed path not recomputed: subcarrier %d = %v, want %v", bad, got[bad], want[bad])
	}
}

func FuzzPhasorCache(f *testing.F) {
	f.Add([]byte{1, 3, 4, 1, 5, 6, 7, 0, 0, 0, 2, 1, 3, 0, 0, 7, 0})
	f.Add([]byte{1, 0, 1, 1, 1, 2, 3, 1, 8, 5, 0, 7, 0, 0, 1, 6, 2, 9, 7, 2})
	f.Add([]byte{1, 9, 9, 1, 1, 1, 4, 0, 13, 2, 0, 0, 1, 1, 3, 1, 14, 0, 2, 4, 1, 3})
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 4096 {
			prog = prog[:4096]
		}
		runPhasorProgram(t, prog)
	})
}
