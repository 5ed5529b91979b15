package cabin

import (
	"math"
	"math/cmplx"
	"testing"
	"testing/quick"

	"vihot/internal/geom"
	"vihot/internal/rf"
)

func mustScene(t *testing.T, cfg Config) *Scene {
	t.Helper()
	s, err := NewScene(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func phaseDiffAt(t *testing.T, s *Scene, st State) float64 {
	t.Helper()
	h := s.CleanCSI(st, nil)
	d := h[0][15] * cmplx.Conj(h[1][15])
	if d == 0 {
		t.Fatal("zero CSI")
	}
	return cmplx.Phase(d)
}

func defaultState(yaw float64) State {
	return State{HeadPos: DriverHeadBase, HeadYaw: yaw}
}

func TestNewSceneValidation(t *testing.T) {
	if _, err := NewScene(Config{Layout: Layout(0)}); err == nil {
		t.Error("invalid layout accepted")
	}
	if _, err := NewScene(Config{Layout: Layout(9)}); err == nil {
		t.Error("invalid layout accepted")
	}
	cfg := DefaultConfig()
	cfg.Chan = rf.Channelization{CenterHz: -1, NSubcarriers: 4}
	if _, err := NewScene(cfg); err == nil {
		t.Error("invalid channelization accepted")
	}
}

func TestSceneDefaults(t *testing.T) {
	s := mustScene(t, Config{Layout: Layout1})
	if s.Chan().NSubcarriers != 30 {
		t.Error("default channelization not applied")
	}
	if s.Config().Head == (Head{}) {
		t.Error("default head not applied")
	}
	if s.Config().Wheel == (SteeringWheel{}) {
		t.Error("default wheel not applied")
	}
}

func TestLayoutString(t *testing.T) {
	if Layout1.String() != "Layout 1" {
		t.Errorf("String = %q", Layout1.String())
	}
	if Layout(7).String() != "Layout(7)" {
		t.Errorf("String = %q", Layout(7).String())
	}
	if len(Layouts()) != 5 {
		t.Error("Layouts must list 5 placements")
	}
}

func TestLayoutsHaveDistinctPositions(t *testing.T) {
	seen := map[[2]geom.Vec3]Layout{}
	for _, l := range Layouts() {
		rx := l.rxPositions()
		if prev, dup := seen[rx]; dup {
			t.Errorf("%v and %v share RX positions", prev, l)
		}
		seen[rx] = l
	}
}

func TestHeadPosition(t *testing.T) {
	if HeadPosition(0, 1) != DriverHeadBase {
		t.Error("single-position profiling must use the base")
	}
	front := HeadPosition(0, 10)
	back := HeadPosition(9, 10)
	if front.X <= back.X {
		t.Error("position 0 must lean forward (+X)")
	}
	if math.Abs(front.X-back.X) < 0.15 {
		t.Error("positions must span the ≈18 cm lean range")
	}
	// Leaning away from upright must drop the head (pendulum arc).
	mid := HeadPosition(4, 9) // exact center
	if front.Z >= mid.Z || back.Z >= mid.Z {
		t.Error("leaning must lower the head")
	}
}

func TestPhaseVariesWithYaw(t *testing.T) {
	s := mustScene(t, DefaultConfig())
	p1 := phaseDiffAt(t, s, defaultState(-60))
	p2 := phaseDiffAt(t, s, defaultState(0))
	p3 := phaseDiffAt(t, s, defaultState(60))
	if math.Abs(geom.PhaseDiff(p1, p2)) < 0.1 || math.Abs(geom.PhaseDiff(p3, p2)) < 0.1 {
		t.Errorf("head yaw barely moves the phase: %v %v %v", p1, p2, p3)
	}
}

func TestPhaseVariesWithPosition(t *testing.T) {
	// Fig. 3: different head positions shift the CSI-orientation curve.
	s := mustScene(t, DefaultConfig())
	st1 := State{HeadPos: HeadPosition(0, 10), HeadYaw: 0}
	st2 := State{HeadPos: HeadPosition(9, 10), HeadYaw: 0}
	p1 := phaseDiffAt(t, s, st1)
	p2 := phaseDiffAt(t, s, st2)
	if math.Abs(geom.PhaseDiff(p1, p2)) < 0.05 {
		t.Errorf("head position barely moves the phase: %v vs %v", p1, p2)
	}
}

func TestPhaseContinuityInYaw(t *testing.T) {
	s := mustScene(t, DefaultConfig())
	prev := phaseDiffAt(t, s, defaultState(-75))
	for yaw := -74.5; yaw <= 75; yaw += 0.5 {
		cur := phaseDiffAt(t, s, defaultState(yaw))
		if math.Abs(geom.PhaseDiff(cur, prev)) > 0.5 {
			t.Fatalf("phase jump of %.2f rad at yaw %.1f", geom.PhaseDiff(cur, prev), yaw)
		}
		prev = cur
	}
}

func TestSteeringMovesPhase(t *testing.T) {
	// Fig. 8: wheel motion alone must swing the phase.
	s := mustScene(t, DefaultConfig())
	st := defaultState(0)
	p0 := phaseDiffAt(t, s, st)
	st.WheelDeg = 120
	p1 := phaseDiffAt(t, s, st)
	if math.Abs(geom.PhaseDiff(p0, p1)) < 0.2 {
		t.Errorf("steering barely moves the phase: %v vs %v", p0, p1)
	}
}

func TestMicroMotionsAreSmall(t *testing.T) {
	// Fig. 15: each micro-motion source must perturb the phase far
	// less than a head turn (the paper measures them one at a time).
	sources := map[string]MicroMotion{
		"breathing": MicroBreathing(),
		"eyes":      MicroEyeMotion(),
		"music":     MicroMusicVibration(),
	}
	for name, src := range sources {
		cfg := DefaultConfig()
		cfg.Micro = []MicroMotion{src}
		s := mustScene(t, cfg)
		base := phaseDiffAt(t, s, defaultState(0))
		var micro float64
		for ts := 0.0; ts < 4; ts += 0.05 {
			st := defaultState(0)
			st.Time = ts
			d := math.Abs(geom.PhaseDiff(phaseDiffAt(t, s, st), base))
			if d > micro {
				micro = d
			}
		}
		headTurn := math.Abs(geom.PhaseDiff(phaseDiffAt(t, s, defaultState(55)), base))
		if micro*3 > headTurn {
			t.Errorf("%s: micro swing %v not ≪ head swing %v", name, micro, headTurn)
		}
	}
}

func TestVibrationPerturbsButPreservesShape(t *testing.T) {
	// Fig. 16: vibration adds a small regular offset; the curve shape
	// survives.
	rigid := mustScene(t, DefaultConfig())
	cfg := DefaultConfig()
	v := DefaultVibration()
	cfg.Vibration = &v
	shaky := mustScene(t, cfg)

	var maxDev float64
	for yaw := -60.0; yaw <= 60; yaw += 10 {
		st := defaultState(yaw)
		st.Time = 0.137 // mid-oscillation
		d := math.Abs(geom.PhaseDiff(phaseDiffAt(t, rigid, st), phaseDiffAt(t, shaky, st)))
		if d > maxDev {
			maxDev = d
		}
	}
	if maxDev == 0 {
		t.Error("vibration had no effect")
	}
	if maxDev > 1.0 {
		t.Errorf("vibration deviation %v rad too violent", maxDev)
	}
}

func TestVibrationOffsetsOutOfPhase(t *testing.T) {
	v := DefaultVibration()
	o0 := v.Offset(0.01, 0)
	o1 := v.Offset(0.01, 1)
	if o0 == o1 {
		t.Error("antennas must vibrate out of phase")
	}
}

func TestPassengerPathOnlyWhenConfigured(t *testing.T) {
	alone := mustScene(t, DefaultConfig())
	cfg := DefaultConfig()
	cfg.Passenger = true
	withP := mustScene(t, cfg)
	a := len(alone.Paths(defaultState(0))[0])
	b := len(withP.Paths(defaultState(0))[0])
	if b != a+1 {
		t.Errorf("passenger should add exactly 1 path per antenna: %d vs %d", a, b)
	}
}

func TestPassengerInterferenceSuppressedByAiming(t *testing.T) {
	// Sec. 3.5: with the phone aimed correctly, passenger head turns
	// perturb the phase much less than with a sideways phone.
	perturbation := func(aimed bool) float64 {
		cfg := DefaultConfig()
		cfg.Passenger = true
		cfg.PhoneAimedAtDriver = aimed
		s := mustScene(t, cfg)
		st := defaultState(0)
		base := phaseDiffAt(t, s, st)
		var worst float64
		for _, py := range []float64{-80, -40, 40, 80} {
			st.PassengerYaw = py
			if d := math.Abs(geom.PhaseDiff(phaseDiffAt(t, s, st), base)); d > worst {
				worst = d
			}
		}
		return worst
	}
	aimed := perturbation(true)
	sideways := perturbation(false)
	if aimed >= sideways {
		t.Errorf("dipole null not suppressing passenger: aimed %v vs sideways %v", aimed, sideways)
	}
}

func TestBlockEffectProperties(t *testing.T) {
	h := DefaultHead()
	center := geom.Vec3{Z: 1.2}
	// A segment passing straight through the center: deep shadow.
	amp, extra := h.BlockEffect(center, geom.Vec3{X: 1, Z: 1.2}, geom.Vec3{X: -1, Z: 1.2}, 0)
	if amp >= 1 || amp <= 0 {
		t.Errorf("shadow amp = %v", amp)
	}
	if extra <= 0 {
		t.Errorf("deep shadow must add detour, got %v", extra)
	}
	// A faraway segment: untouched.
	amp, extra = h.BlockEffect(center, geom.Vec3{X: 1, Z: 3}, geom.Vec3{X: -1, Z: 3}, 0)
	if amp != 1 || extra != 0 {
		t.Errorf("clear segment modified: amp=%v extra=%v", amp, extra)
	}
}

func TestBlockEffectYawMonotoneDetour(t *testing.T) {
	// The face detour must grow with sin(yaw) on a shadowed segment.
	h := DefaultHead()
	center := geom.Vec3{Z: 1.2}
	a, b := geom.Vec3{X: 1, Z: 1.2}, geom.Vec3{X: -1, Z: 1.2}
	_, eNeg := h.BlockEffect(center, a, b, -60)
	_, eZero := h.BlockEffect(center, a, b, 0)
	_, ePos := h.BlockEffect(center, a, b, 60)
	if !(eNeg < eZero && eZero < ePos) {
		t.Errorf("detour not monotone in yaw: %v %v %v", eNeg, eZero, ePos)
	}
}

func TestBlocksMatchesBlockEffect(t *testing.T) {
	h := DefaultHead()
	f := func(px, py, pz float64) bool {
		if math.Abs(px) > 3 || math.Abs(py) > 3 || math.Abs(pz) > 3 {
			return true
		}
		c := geom.Vec3{X: px, Y: py, Z: pz}
		a, b := geom.Vec3{X: 1}, geom.Vec3{X: -1}
		amp, _ := h.BlockEffect(c, a, b, 0)
		return h.Blocks(c, a, b) == amp
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDistPointSegment(t *testing.T) {
	a, b := geom.Vec3{X: -1}, geom.Vec3{X: 1}
	if d := distPointSegment(geom.Vec3{Y: 2}, a, b); d != 2 {
		t.Errorf("perpendicular dist = %v", d)
	}
	if d := distPointSegment(geom.Vec3{X: 5}, a, b); d != 4 {
		t.Errorf("beyond-end dist = %v", d)
	}
	if d := distPointSegment(geom.Vec3{X: 2}, a, a); d != 3 {
		t.Errorf("degenerate segment dist = %v", d)
	}
}

func TestHandScatterMoves(t *testing.T) {
	w := DefaultSteeringWheel()
	p0 := w.HandScatter(0)
	p120 := w.HandScatter(120)
	if p0.Dist(p120) < 0.15 {
		t.Errorf("wheel turn moved hands only %v m", p0.Dist(p120))
	}
	// Hands stay on the rim.
	if math.Abs(p0.Dist(w.Center)-w.Radius) > 1e-9 {
		t.Error("hands off the rim at 0°")
	}
	if math.Abs(p120.Dist(w.Center)-w.Radius) > 1e-9 {
		t.Error("hands off the rim at 120°")
	}
}

func TestScatterReflectivityFacingDependence(t *testing.T) {
	h := DefaultHead()
	tx := geom.Vec3{X: 0.55, Y: 0.22, Z: 1.05}
	_, facing := h.Scatter(DriverHeadBase, 22, tx) // roughly toward phone
	_, away := h.Scatter(DriverHeadBase, -150, tx)
	if facing <= away {
		t.Errorf("face should reflect more than hair: %v vs %v", facing, away)
	}
}

func TestMicroMotionOscillates(t *testing.T) {
	m := MicroBreathing()
	p0 := m.Pos(0)
	pQuarter := m.Pos(1 / m.FreqHz / 4)
	if p0.Dist(pQuarter) == 0 {
		t.Error("micro-motion did not move")
	}
	if d := p0.Dist(pQuarter); math.Abs(d-m.AmplitudeM) > 1e-9 {
		t.Errorf("quarter-period displacement = %v, want %v", d, m.AmplitudeM)
	}
	pFull := m.Pos(1 / m.FreqHz)
	if p0.Dist(pFull) > 1e-9 {
		t.Error("micro-motion not periodic")
	}
}

func TestCleanCSIBufferReuse(t *testing.T) {
	s := mustScene(t, DefaultConfig())
	buf := s.CleanCSI(defaultState(0), nil)
	buf2 := s.CleanCSI(defaultState(10), buf)
	if &buf[0][0] != &buf2[0][0] {
		t.Error("CleanCSI did not reuse buffers")
	}
}

// busyConfig exercises every path kind: passenger, several
// micro-motions and vibrating antennas.
func busyConfig() Config {
	cfg := DefaultConfig()
	cfg.Passenger = true
	cfg.Micro = append(cfg.Micro, MicroEyeMotion(), MicroMusicVibration())
	v := DefaultVibration()
	cfg.Vibration = &v
	return cfg
}

func TestCleanCSIAllocFree(t *testing.T) {
	for name, cfg := range map[string]Config{"default": DefaultConfig(), "busy": busyConfig()} {
		s := mustScene(t, cfg)
		buf := s.CleanCSI(defaultState(0), nil)
		i := 0
		allocs := testing.AllocsPerRun(200, func() {
			i++
			st := State{Time: float64(i) * 0.002, HeadPos: DriverHeadBase, HeadYaw: float64(i % 90), WheelDeg: float64(i % 7)}
			buf = s.CleanCSI(st, buf)
		})
		if allocs != 0 {
			t.Errorf("%s: CleanCSI allocates %v times per call after warm-up", name, allocs)
		}
	}
}

// TestCleanCSICacheInvisible pins the phasor caches as a pure speed-up:
// a scene that has rendered a long, partly repeating state sequence
// returns, bit for bit, what a fresh scene computes from scratch.
func TestCleanCSICacheInvisible(t *testing.T) {
	for name, cfg := range map[string]Config{"default": DefaultConfig(), "busy": busyConfig()} {
		warm := mustScene(t, cfg)
		var buf [][]complex128
		for i := 0; i < 120; i++ {
			// Hold each head pose for a few frames, then move the head
			// or the wheel, so slots alternate between reuse and miss.
			st := State{HeadPos: DriverHeadBase, HeadYaw: float64(i / 4 * 3), WheelDeg: float64(i / 10)}
			if i%3 == 0 {
				st.Time = float64(i) * 0.002
			}
			if i >= 60 {
				st.HeadPos = HeadPosition(i%10, 10)
			}
			buf = warm.CleanCSI(st, buf)
			fresh := mustScene(t, cfg).CleanCSI(st, nil)
			for a := range fresh {
				for k := range fresh[a] {
					if math.Float64bits(real(buf[a][k])) != math.Float64bits(real(fresh[a][k])) ||
						math.Float64bits(imag(buf[a][k])) != math.Float64bits(imag(fresh[a][k])) {
						t.Fatalf("%s frame %d antenna %d subcarrier %d: warm %v, fresh %v", name, i, a, k, buf[a][k], fresh[a][k])
					}
				}
			}
		}
	}
}

func TestPathsInventory(t *testing.T) {
	s := mustScene(t, DefaultConfig())
	paths := s.Paths(defaultState(0))
	if len(paths) != 2 {
		t.Fatalf("want 2 antennas, got %d", len(paths))
	}
	// LOS + head + nose + 6 statics + wheel + breathing = 11 paths.
	if len(paths[0]) != 11 {
		t.Errorf("path inventory = %d, want 11", len(paths[0]))
	}
	for a := range paths {
		for i, p := range paths[a] {
			if p.Amplitude() < 0 {
				t.Errorf("antenna %d path %d has negative amplitude", a, i)
			}
			if math.IsNaN(p.Length()) {
				t.Errorf("antenna %d path %d has NaN length", a, i)
			}
		}
	}
}

func TestLayout1BlockedAntennaAsymmetry(t *testing.T) {
	// The defining feature of Layout 1: the head shadows antenna 0's
	// LOS but not antenna 1's.
	s := mustScene(t, DefaultConfig())
	paths := s.Paths(defaultState(0))
	los0, los1 := paths[0][0], paths[1][0]
	if los0.Blockage >= 0.9 {
		t.Errorf("antenna 0 LOS should be shadowed, blockage = %v", los0.Blockage)
	}
	if los1.Blockage < 0.9 {
		t.Errorf("antenna 1 LOS should be clear, blockage = %v", los1.Blockage)
	}
}
