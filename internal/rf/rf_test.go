package rf

import (
	"math"
	"math/cmplx"
	"testing"
	"testing/quick"

	"vihot/internal/geom"
)

func TestChannel2G4Layout(t *testing.T) {
	c := Channel2G4()
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if c.NSubcarriers != 30 {
		t.Errorf("NSubcarriers = %d", c.NSubcarriers)
	}
	// Subcarriers must straddle the center symmetrically.
	lo := c.SubcarrierHz(0)
	hi := c.SubcarrierHz(c.NSubcarriers - 1)
	if math.Abs((lo+hi)/2-c.CenterHz) > 1 {
		t.Errorf("subcarriers not centered: lo=%v hi=%v", lo, hi)
	}
	if hi <= lo {
		t.Error("subcarrier frequencies not increasing")
	}
	// 2.4 GHz wavelength ≈ 12.3 cm.
	if l := c.CenterWavelength(); l < 0.12 || l > 0.13 {
		t.Errorf("center wavelength = %v", l)
	}
}

func TestChannel5G(t *testing.T) {
	c := Channel5G()
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if l := c.CenterWavelength(); l < 0.05 || l > 0.06 {
		t.Errorf("5 GHz wavelength = %v", l)
	}
}

func TestValidateErrors(t *testing.T) {
	bad := []Channelization{
		{CenterHz: 0, SpacingHz: 1, NSubcarriers: 1},
		{CenterHz: 1e9, SpacingHz: 1, NSubcarriers: 0},
		{CenterHz: 1e9, SpacingHz: -1, NSubcarriers: 4},
	}
	for i, c := range bad {
		if c.Validate() == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestWavelengthMonotone(t *testing.T) {
	c := Channel2G4()
	for k := 1; k < c.NSubcarriers; k++ {
		if c.Wavelength(k) >= c.Wavelength(k-1) {
			t.Fatalf("wavelength not decreasing at %d", k)
		}
	}
}

func TestPathLengthAmplitude(t *testing.T) {
	p := Path{
		Points:       []geom.Vec3{{}, {X: 3, Y: 4}},
		Reflectivity: 1, Blockage: 1, TXGain: 1, RXGain: 1,
	}
	if p.Length() != 5 {
		t.Errorf("Length = %v", p.Length())
	}
	if got := p.Amplitude(); math.Abs(got-0.2) > 1e-12 {
		t.Errorf("Amplitude = %v, want 1/5", got)
	}
}

func TestAmplitudeNearFieldClamp(t *testing.T) {
	p := Path{
		Points:       []geom.Vec3{{}, {X: 1e-6}},
		Reflectivity: 1, Blockage: 1, TXGain: 1, RXGain: 1,
	}
	if got := p.Amplitude(); got > 100+1e-9 {
		t.Errorf("near-field amplitude unbounded: %v", got)
	}
}

func TestAmplitudeNeverNegative(t *testing.T) {
	p := Path{
		Points:       []geom.Vec3{{}, {X: 1}},
		Reflectivity: -0.5, Blockage: 1, TXGain: 1, RXGain: 1,
	}
	if p.Amplitude() < 0 {
		t.Error("negative amplitude")
	}
}

func TestCSISinglePathPhase(t *testing.T) {
	c := Channel2G4()
	d := 1.0
	p := []Path{{
		Points:       []geom.Vec3{{}, {X: d}},
		Reflectivity: 1, Blockage: 1, TXGain: 1, RXGain: 1,
	}}
	k := 7
	h := CSI(p, c, k)
	wantPhase := math.Mod(2*math.Pi*d/c.Wavelength(k), 2*math.Pi)
	gotPhase := math.Mod(cmplx.Phase(h)+2*math.Pi, 2*math.Pi)
	if math.Abs(geom.WrapRad(gotPhase-wantPhase)) > 1e-9 {
		t.Errorf("phase = %v, want %v", gotPhase, wantPhase)
	}
	if math.Abs(cmplx.Abs(h)-1/d) > 1e-9 {
		t.Errorf("magnitude = %v, want %v", cmplx.Abs(h), 1/d)
	}
}

func TestCSICoherentSum(t *testing.T) {
	c := Channel2G4()
	lambda := c.Wavelength(0)
	// Two equal paths half a wavelength apart cancel.
	d := 2.0
	paths := []Path{
		{Points: []geom.Vec3{{}, {X: d}}, Reflectivity: 1, Blockage: 1, TXGain: 1, RXGain: 1},
		{Points: []geom.Vec3{{}, {X: d + lambda/2}}, Reflectivity: (d + lambda/2) / d, Blockage: 1, TXGain: 1, RXGain: 1},
	}
	h := CSI(paths, c, 0)
	if cmplx.Abs(h) > 1e-6 {
		t.Errorf("destructive paths did not cancel: |h| = %v", cmplx.Abs(h))
	}
}

func TestCSIMovingScattererChangesPhase(t *testing.T) {
	// The paper's core premise: a small displacement of the reflection
	// point produces a measurable phase change.
	c := Channel2G4()
	tx := geom.Vec3{}
	rx := geom.Vec3{X: 1}
	mk := func(scatter geom.Vec3) []Path {
		return []Path{{
			Points:       []geom.Vec3{tx, scatter, rx},
			Reflectivity: 0.5, Blockage: 1, TXGain: 1, RXGain: 1,
		}}
	}
	h1 := CSI(mk(geom.Vec3{X: 0.5, Y: 0.5}), c, 0)
	h2 := CSI(mk(geom.Vec3{X: 0.5, Y: 0.52}), c, 0) // 2 cm shift
	dphi := math.Abs(geom.WrapRad(cmplx.Phase(h2) - cmplx.Phase(h1)))
	if dphi < 0.2 {
		t.Errorf("2 cm scatterer shift produced only %v rad", dphi)
	}
}

// CSIAllSubcarriers is the phasor cache's oracle: the channel
// response on every subcarrier synthesized from scratch, one sincos
// per path per subcarrier, with the per-path geometry hoisted out of
// the subcarrier sweep. PhasorCache.CSI must match it bit for bit.
func CSIAllSubcarriers(paths []Path, c Channelization, dst []complex128) []complex128 {
	if cap(dst) < c.NSubcarriers {
		dst = make([]complex128, c.NSubcarriers)
	}
	dst = dst[:c.NSubcarriers]
	// Phase on subcarrier k is (2π·length)/λ_k: precompute the
	// numerator per path, preserving path order (the coherent sum is
	// order-sensitive in floating point).
	var ampArr, numArr [16]float64
	amps, nums := ampArr[:0], numArr[:0]
	for _, p := range paths {
		a := p.Amplitude()
		if a == 0 {
			continue
		}
		amps = append(amps, a)
		nums = append(nums, 2*math.Pi*p.Length())
	}
	for k := range dst {
		lambda := c.Wavelength(k)
		var h complex128
		for i, a := range amps {
			h += cmplx.Rect(a, nums[i]/lambda)
		}
		dst[k] = h
	}
	return dst
}

func TestCSIAllSubcarriers(t *testing.T) {
	c := Channel2G4()
	paths := []Path{{
		Points:       []geom.Vec3{{}, {X: 2}},
		Reflectivity: 1, Blockage: 1, TXGain: 1, RXGain: 1,
	}}
	got := CSIAllSubcarriers(paths, c, nil)
	if len(got) != c.NSubcarriers {
		t.Fatalf("len = %d", len(got))
	}
	for k := range got {
		if got[k] != CSI(paths, c, k) {
			t.Fatalf("subcarrier %d mismatch", k)
		}
	}
	// The cache agrees with the oracle and reuses the provided buffer.
	buf := make([]complex128, 0, 64)
	out := NewPhasorCache(c).CSI(paths, buf)
	if cap(out) != 64 {
		t.Error("did not reuse provided buffer")
	}
	if bad := firstBitMismatch(out, got); bad >= 0 {
		t.Fatalf("subcarrier %d: cache %v, oracle %v", bad, out[bad], got[bad])
	}
}

func TestIsotropicGain(t *testing.T) {
	a := Isotropic(geom.Vec3{})
	f := func(x, y, z float64) bool {
		if math.Abs(x) > 1e6 || math.Abs(y) > 1e6 || math.Abs(z) > 1e6 {
			return true
		}
		return a.Gain(geom.Vec3{X: x, Y: y, Z: z}) == 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDipolePattern(t *testing.T) {
	// Wire along Y (phone short edge toward passenger): null toward
	// +Y, full gain toward +X.
	a := Dipole(geom.Vec3{}, geom.Vec3{Y: 1}, 0.05)
	if g := a.Gain(geom.Vec3{Y: 1}); math.Abs(g-0.05) > 1e-12 {
		t.Errorf("axial gain = %v, want null depth", g)
	}
	if g := a.Gain(geom.Vec3{X: 1}); math.Abs(g-1) > 1e-12 {
		t.Errorf("broadside gain = %v, want 1", g)
	}
	// 45°: sin(45°) ≈ 0.707.
	if g := a.Gain(geom.Vec3{X: 1, Y: 1}); math.Abs(g-math.Sqrt2/2) > 1e-9 {
		t.Errorf("45° gain = %v", g)
	}
}

func TestDipoleNullDepthClamping(t *testing.T) {
	a := Dipole(geom.Vec3{}, geom.Vec3{Y: 1}, -1)
	if a.NullDepth != 0 {
		t.Error("negative null depth not clamped")
	}
	b := Dipole(geom.Vec3{}, geom.Vec3{Y: 1}, 2)
	if b.NullDepth != 1 {
		t.Error("null depth > 1 not clamped")
	}
}

func TestDipoleGainAtOwnPosition(t *testing.T) {
	a := Dipole(geom.Vec3{X: 1}, geom.Vec3{Y: 1}, 0.1)
	if g := a.Gain(geom.Vec3{X: 1}); g != 0.1 {
		t.Errorf("gain at own position = %v", g)
	}
}

func TestFreeSpacePathLoss(t *testing.T) {
	// Canonical value: 2.4 GHz at 1 m ≈ 40.05 dB.
	got := FreeSpacePathLossDB(1, 2.4e9)
	if math.Abs(got-40.05) > 0.1 {
		t.Errorf("FSPL(1m, 2.4GHz) = %v", got)
	}
	// Doubling distance adds ≈ 6.02 dB.
	d2 := FreeSpacePathLossDB(2, 2.4e9)
	if math.Abs(d2-got-6.02) > 0.05 {
		t.Errorf("doubling distance added %v dB", d2-got)
	}
	if FreeSpacePathLossDB(0, 2.4e9) != 0 || FreeSpacePathLossDB(1, 0) != 0 {
		t.Error("degenerate inputs must return 0")
	}
}

func TestCSILinearInPaths(t *testing.T) {
	// The channel is a coherent sum: CSI(A ∪ B) = CSI(A) + CSI(B).
	c := Channel2G4()
	mk := func(x, y, refl float64) Path {
		return Path{
			Points:       []geom.Vec3{{}, {X: x, Y: y}, {X: 1}},
			Reflectivity: refl, Blockage: 1, TXGain: 1, RXGain: 1,
		}
	}
	a := []Path{mk(0.3, 0.4, 0.5), mk(0.7, -0.2, 0.3)}
	b := []Path{mk(-0.1, 0.6, 0.4)}
	both := append(append([]Path{}, a...), b...)
	for k := 0; k < c.NSubcarriers; k += 7 {
		sum := CSI(a, c, k) + CSI(b, c, k)
		got := CSI(both, c, k)
		if cmplx.Abs(got-sum) > 1e-12 {
			t.Fatalf("subcarrier %d: nonlinear sum: %v vs %v", k, got, sum)
		}
	}
}

func TestExtraLengthShiftsPhase(t *testing.T) {
	c := Channel2G4()
	base := Path{
		Points:       []geom.Vec3{{}, {X: 1}},
		Reflectivity: 1, Blockage: 1, TXGain: 1, RXGain: 1,
	}
	detoured := base
	detoured.Extra = c.CenterWavelength() / 4 // quarter wave = π/2
	h0 := CSI([]Path{base}, c, c.NSubcarriers/2)
	h1 := CSI([]Path{detoured}, c, c.NSubcarriers/2)
	dphi := cmplx.Phase(h1 * cmplx.Conj(h0))
	if math.Abs(dphi-math.Pi/2) > 0.02 {
		t.Errorf("quarter-wave detour shifted phase by %v, want ≈π/2", dphi)
	}
	// The detour lengthens the electrical path, so the amplitude drops
	// slightly (1/d spreading) — by the λ/4 over 1 m ratio.
	ratio := cmplx.Abs(h1) / cmplx.Abs(h0)
	want := 1.0 / (1.0 + c.CenterWavelength()/4)
	if math.Abs(ratio-want) > 1e-9 {
		t.Errorf("amplitude ratio = %v, want %v", ratio, want)
	}
}
