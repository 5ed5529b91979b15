package core

import (
	"errors"
	"math"
	"sort"
	"testing"

	"vihot/internal/dsp"
	"vihot/internal/geom"
	"vihot/internal/stats"
)

// synthRecording builds a sweep recording whose phase is a known
// function of orientation: θ sweeps ±80° sinusoidally and
// φ = gain·sin(θ) + offset, a monotone injective curve.
func synthRecording(position int, offset, gain float64, dur float64) SweepRecording {
	rec := SweepRecording{Position: position, Fingerprint: offset}
	for t := 0.0; t < dur; t += 0.002 {
		theta := 80 * math.Sin(2*math.Pi*t/4)
		phi := offset + gain*math.Sin(theta*math.Pi/180)
		rec.Phase = append(rec.Phase, dsp.Sample{T: t, V: phi})
	}
	for t := 0.0; t < dur; t += 1.0 / 60 {
		theta := 80 * math.Sin(2*math.Pi*t/4)
		rec.Orientation = append(rec.Orientation, dsp.Sample{T: t, V: theta})
	}
	return rec
}

func synthProfile(t *testing.T, positions int) *Profile {
	t.Helper()
	var recs []SweepRecording
	for i := 0; i < positions; i++ {
		recs = append(recs, synthRecording(i, float64(i)*0.5-1, 0.8, 8))
	}
	p, err := BuildProfile(recs, 100)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestBuildProfileErrors(t *testing.T) {
	if _, err := BuildProfile(nil, 100); !errors.Is(err, ErrEmptyProfile) {
		t.Errorf("empty err = %v", err)
	}
	short := SweepRecording{
		Phase:       dsp.Series{{T: 0, V: 0}, {T: 0.1, V: 1}},
		Orientation: dsp.Series{{T: 0, V: 0}, {T: 0.1, V: 1}},
	}
	if _, err := BuildProfile([]SweepRecording{short}, 100); !errors.Is(err, ErrShortRecording) {
		t.Errorf("short err = %v", err)
	}
}

func TestBuildProfileGridAlignment(t *testing.T) {
	p := synthProfile(t, 3)
	if len(p.Positions) != 3 {
		t.Fatalf("positions = %d", len(p.Positions))
	}
	for _, pos := range p.Positions {
		if len(pos.PhiGrid) != len(pos.ThetaGrid) {
			t.Fatalf("grid misaligned: %d vs %d", len(pos.PhiGrid), len(pos.ThetaGrid))
		}
		if len(pos.PhiGrid) < 700 {
			t.Fatalf("grid too short: %d", len(pos.PhiGrid))
		}
	}
	// Grid must encode the synthetic relation: for the injective test
	// curve, phase and sin(theta) correlate exactly.
	pos := p.Positions[0]
	for k := 0; k < len(pos.PhiGrid); k += 97 {
		want := -1 + 0.8*math.Sin(pos.ThetaGrid[k]*math.Pi/180)
		if math.Abs(pos.PhiGrid[k]-want) > 0.05 {
			t.Fatalf("grid %d: phi %v, want %v (theta %v)", k, pos.PhiGrid[k], want, pos.ThetaGrid[k])
		}
	}
}

func TestBuildProfileDefaultRate(t *testing.T) {
	recs := []SweepRecording{synthRecording(0, 0, 0.5, 4)}
	p, err := BuildProfile(recs, 0)
	if err != nil {
		t.Fatal(err)
	}
	if p.MatchRateHz != DefaultMatchRateHz {
		t.Errorf("rate = %v", p.MatchRateHz)
	}
}

func TestNearestPosition(t *testing.T) {
	p := synthProfile(t, 4) // fingerprints -1, -0.5, 0, 0.5
	idx, err := p.NearestPosition(-0.45)
	if err != nil {
		t.Fatal(err)
	}
	if idx != 1 {
		t.Errorf("NearestPosition(-0.45) = %d, want 1", idx)
	}
	var empty Profile
	if _, err := empty.NearestPosition(0); !errors.Is(err, ErrEmptyProfile) {
		t.Errorf("empty err = %v", err)
	}
}

func TestNearestPositionsShortlist(t *testing.T) {
	p := synthProfile(t, 4)
	cands, err := p.NearestPositions(-0.45, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) != 2 || cands[0] != 1 {
		t.Errorf("shortlist = %v", cands)
	}
	// k clamping.
	cands, _ = p.NearestPositions(0, 99)
	if len(cands) != 4 {
		t.Errorf("clamped shortlist = %v", cands)
	}
	cands, _ = p.NearestPositions(0, 0)
	if len(cands) != 1 {
		t.Errorf("k=0 shortlist = %v", cands)
	}
}

// fingerprintProfile is a bare profile holding only fingerprints —
// all the Eq. (4) ranking reads.
func fingerprintProfile(fps ...float64) *Profile {
	p := &Profile{MatchRateHz: 100}
	for _, fp := range fps {
		p.Positions = append(p.Positions, PositionProfile{Fingerprint: fp})
	}
	return p
}

// TestNearestPositionsTieOrder pins the ranking's tie order: equal
// fingerprint distances keep position-index order.
func TestNearestPositionsTieOrder(t *testing.T) {
	p := fingerprintProfile(0.3, -0.1, 0.3, 0.1, -0.1, 0.3)
	got, err := p.NearestPositions(0, 6)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{1, 3, 4, 0, 2, 5}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ranking = %v, want %v", got, want)
		}
	}
}

// TestNearestPositionsMatchesSortSlice: for profiles of up to 12
// positions — sort.Slice's insertion-sort cutoff — the ranking equals
// the sort.Slice ranking it replaced, ties included.
func TestNearestPositionsMatchesSortSlice(t *testing.T) {
	rng := stats.NewRNG(41)
	for trial := 0; trial < 300; trial++ {
		n := 1 + trial%12
		fps := make([]float64, n)
		for i := range fps {
			// Quantized so that ties are common.
			fps[i] = math.Round(rng.Uniform(-math.Pi, math.Pi)*2) / 2
		}
		phi0r := math.Round(rng.Uniform(-math.Pi, math.Pi)*2) / 2
		p := fingerprintProfile(fps...)
		type cand struct {
			idx  int
			dist float64
		}
		ref := make([]cand, n)
		for i, fp := range fps {
			ref[i] = cand{i, math.Abs(geom.PhaseDiff(fp, phi0r))}
		}
		sort.Slice(ref, func(a, b int) bool { return ref[a].dist < ref[b].dist })
		got, err := p.NearestPositions(phi0r, n)
		if err != nil {
			t.Fatal(err)
		}
		for i := range ref {
			if got[i] != ref[i].idx {
				t.Fatalf("fps=%v phi0r=%v: ranking %v, sort.Slice order %v", fps, phi0r, got, ref)
			}
		}
	}
}

// TestRankPositionsAllocationFree: the tracker ranks positions on
// every stable sample, so ranking into reused scratch must not
// allocate.
func TestRankPositionsAllocationFree(t *testing.T) {
	p := synthProfile(t, 10)
	scratch := p.rankPositions(nil, 0)
	allocs := testing.AllocsPerRun(100, func() {
		scratch = p.rankPositions(scratch, 0.2)
	})
	if allocs != 0 {
		t.Errorf("rankPositions allocates %v times per run, want 0", allocs)
	}
}

func TestNearestPositionCircular(t *testing.T) {
	// Fingerprints near the ±π seam must match circularly.
	recs := []SweepRecording{
		synthRecording(0, math.Pi-0.05, 0.3, 4),
		synthRecording(1, 0, 0.3, 4),
	}
	p, err := BuildProfile(recs, 100)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := p.NearestPosition(-math.Pi + 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if idx != 0 {
		t.Errorf("seam match = %d, want 0", idx)
	}
}

func TestMerge(t *testing.T) {
	p := synthProfile(t, 2)
	q := synthProfile(t, 3)
	pFP, qFP := p.Fingerprint(), q.Fingerprint()
	m, err := p.Merge(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Positions) != 5 {
		t.Errorf("merged positions = %d", len(m.Positions))
	}
	// Merge must not mutate either input: another session may be
	// tracking against the same cached instance right now.
	if len(p.Positions) != 2 || p.Fingerprint() != pFP {
		t.Error("Merge mutated the receiver")
	}
	if len(q.Positions) != 3 || q.Fingerprint() != qFP {
		t.Error("Merge mutated the argument")
	}
	// ... and the result must not alias the inputs' grids.
	m.Positions[0].PhiGrid[0] += 1
	if p.Positions[0].PhiGrid[0] == m.Positions[0].PhiGrid[0] {
		t.Error("merged profile shares grid memory with receiver")
	}
	if mn, err := p.Merge(nil); err != nil || len(mn.Positions) != 2 {
		t.Errorf("nil merge = %v, %v", mn, err)
	}
	bad := &Profile{MatchRateHz: 50, Positions: q.Positions}
	if _, err := p.Merge(bad); err == nil {
		t.Error("rate mismatch accepted")
	}
}

func TestCloneIsDeep(t *testing.T) {
	p := synthProfile(t, 2)
	c := p.Clone()
	if c.Fingerprint() != p.Fingerprint() {
		t.Fatal("clone fingerprint differs")
	}
	c.Positions[1].ThetaGrid[3] += 90
	if p.Positions[1].ThetaGrid[3] == c.Positions[1].ThetaGrid[3] {
		t.Error("clone shares grid memory with original")
	}
	if c.Fingerprint() == p.Fingerprint() {
		t.Error("fingerprint blind to grid change")
	}
}

func TestFingerprintSemantics(t *testing.T) {
	p := synthProfile(t, 3)
	if p.Fingerprint() != p.Fingerprint() {
		t.Fatal("fingerprint not deterministic")
	}
	if p.Fingerprint() != p.Clone().Fingerprint() {
		t.Fatal("equal-content profiles fingerprint differently")
	}
	// Sensitive to every semantic field.
	for name, mutate := range map[string]func(*Profile){
		"match rate":  func(q *Profile) { q.MatchRateHz++ },
		"position id": func(q *Profile) { q.Positions[0].Position++ },
		"fingerprint": func(q *Profile) { q.Positions[1].Fingerprint += 0.01 },
		"phase":       func(q *Profile) { q.Positions[2].PhiGrid[7] += 1e-9 },
		"orientation": func(q *Profile) { q.Positions[2].ThetaGrid[7] += 1e-9 },
		"truncation":  func(q *Profile) { q.Positions = q.Positions[:2] },
	} {
		q := p.Clone()
		mutate(q)
		if q.Fingerprint() == p.Fingerprint() {
			t.Errorf("fingerprint blind to %s change", name)
		}
	}
}

// TestBitEqual: the exact-content check holds for a clone and fails
// for a one-ulp change in any float field, any other field change, a
// length change, and +0 against -0. A NaN compares by its bits.
func TestBitEqual(t *testing.T) {
	p := synthProfile(t, 3)
	if !p.BitEqual(p.Clone()) || !p.Clone().BitEqual(p) {
		t.Fatal("a clone is not bit-equal")
	}
	ulp := func(x float64) float64 { return math.Nextafter(x, math.Inf(1)) }
	for name, mutate := range map[string]func(*Profile){
		"match rate":       func(q *Profile) { q.MatchRateHz = ulp(q.MatchRateHz) },
		"position id":      func(q *Profile) { q.Positions[0].Position++ },
		"fingerprint":      func(q *Profile) { q.Positions[1].Fingerprint = ulp(q.Positions[1].Fingerprint) },
		"phase":            func(q *Profile) { q.Positions[2].PhiGrid[7] = ulp(q.Positions[2].PhiGrid[7]) },
		"orientation":      func(q *Profile) { q.Positions[2].ThetaGrid[7] = ulp(q.Positions[2].ThetaGrid[7]) },
		"shorter phase":    func(q *Profile) { q.Positions[1].PhiGrid = q.Positions[1].PhiGrid[1:] },
		"longer theta":     func(q *Profile) { q.Positions[1].ThetaGrid = append(q.Positions[1].ThetaGrid, 0) },
		"fewer positions":  func(q *Profile) { q.Positions = q.Positions[:2] },
		"more positions":   func(q *Profile) { q.Positions = append(q.Positions, q.Positions[0]) },
		"negative zero":    func(q *Profile) { q.Positions[0].PhiGrid[0] = math.Copysign(0, -1) },
		"zero fingerprint": func(q *Profile) { q.Positions[0].Fingerprint = math.Copysign(0, -1) },
	} {
		base := p.Clone()
		base.Positions[0].PhiGrid[0], base.Positions[0].Fingerprint = 0, 0
		q := base.Clone()
		mutate(q)
		if q.BitEqual(base) || base.BitEqual(q) {
			t.Errorf("BitEqual blind to %s change", name)
		}
	}
	nan := p.Clone()
	nan.Positions[1].PhiGrid[3] = math.NaN()
	if c := nan.Clone(); !nan.BitEqual(c) || !c.BitEqual(nan) {
		t.Error("a NaN grid is not bit-equal to its own clone")
	}
}

func TestGridSamples(t *testing.T) {
	p := synthProfile(t, 2)
	want := len(p.Positions[0].PhiGrid) + len(p.Positions[1].PhiGrid)
	if p.GridSamples() != want {
		t.Errorf("GridSamples = %d, want %d", p.GridSamples(), want)
	}
}

func TestMeanPhase(t *testing.T) {
	pp := PositionProfile{PhiGrid: []float64{0.5, 0.5, 0.5}}
	if got := pp.MeanPhase(); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("MeanPhase = %v", got)
	}
	var empty PositionProfile
	if empty.MeanPhase() != 0 {
		t.Error("empty MeanPhase must be 0")
	}
	// Circular mean across the seam.
	seam := PositionProfile{PhiGrid: []float64{math.Pi - 0.1, -math.Pi + 0.1}}
	if got := math.Abs(seam.MeanPhase()); math.Abs(got-math.Pi) > 0.02 {
		t.Errorf("seam MeanPhase = %v, want ≈ ±π", seam.MeanPhase())
	}
}

func TestProfilerLifecycle(t *testing.T) {
	pr := NewProfiler(100)
	if err := pr.EndPosition(); err == nil {
		t.Error("EndPosition without StartPosition must error")
	}
	pr.StartPosition(0)
	// Feed a stable phase long enough to capture the fingerprint.
	for ts := 0.0; ts < 2; ts += 0.005 {
		pr.AddPhase(ts, 0.7)
	}
	if !pr.FingerprintCaptured() {
		t.Fatal("fingerprint not captured from stable phase")
	}
	// Then a sweep with labels.
	for ts := 2.0; ts < 8; ts += 0.005 {
		theta := 70 * math.Sin(ts)
		pr.AddPhase(ts, 0.7+0.01*theta)
	}
	for ts := 0.0; ts < 8; ts += 1.0 / 60 {
		pr.AddTruth(ts, 70*math.Sin(math.Max(ts-2, 0)))
	}
	if err := pr.EndPosition(); err != nil {
		t.Fatal(err)
	}
	if len(pr.Recordings()) != 1 {
		t.Fatalf("recordings = %d", len(pr.Recordings()))
	}
	rec := pr.Recordings()[0]
	if math.Abs(rec.Fingerprint-0.7) > 0.01 {
		t.Errorf("fingerprint = %v, want ≈0.7", rec.Fingerprint)
	}
	p, err := pr.Build()
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Positions) != 1 {
		t.Errorf("built positions = %d", len(p.Positions))
	}
}

func TestProfilerFingerprintNeverStable(t *testing.T) {
	pr := NewProfiler(0)
	pr.StartPosition(0)
	// Noisy phase: never stabilizes.
	for i := 0; i < 500; i++ {
		pr.AddPhase(float64(i)*0.005, float64(i%2))
	}
	if pr.FingerprintCaptured() {
		t.Error("noisy phase must not capture a fingerprint")
	}
	if err := pr.EndPosition(); err == nil {
		t.Error("missing fingerprint must fail EndPosition")
	}
	// MarkFingerprint rescues the position.
	pr.StartPosition(1)
	for i := 0; i < 500; i++ {
		pr.AddPhase(float64(i)*0.005, float64(i%2))
	}
	pr.MarkFingerprint(0.3)
	for ts := 0.0; ts < 3; ts += 1.0 / 60 {
		pr.AddTruth(ts, 10*ts)
	}
	if err := pr.EndPosition(); err != nil {
		t.Errorf("EndPosition after MarkFingerprint: %v", err)
	}
}

func TestProfilerIgnoresDataWithoutPosition(t *testing.T) {
	pr := NewProfiler(100)
	pr.AddPhase(0, 1)  // no active position: must not panic
	pr.AddTruth(0, 10) // ditto
	pr.MarkFingerprint(0.5)
	if len(pr.Recordings()) != 0 {
		t.Error("data without StartPosition must be dropped")
	}
}
