package core

import (
	"errors"
	"math"
	"testing"

	"vihot/internal/geom"
	"vihot/internal/stats"
)

// trackSynthetic runs the tracker over a synthetic run-time stream
// generated from the same injective phase model as synthProfile and
// returns the absolute errors of the CSI-sourced estimates.
func trackSynthetic(t *testing.T, tk *Tracker, offset, gain float64, dur float64) []float64 {
	t.Helper()
	var errs []float64
	for ts := 0.0; ts < dur; ts += 0.002 {
		theta := 80 * math.Sin(2*math.Pi*ts/4)
		phi := offset + gain*math.Sin(theta*math.Pi/180)
		est, ok := tk.Push(ts, phi)
		if !ok || est.Source != SourceCSI {
			continue
		}
		errs = append(errs, geom.AngleDistDeg(est.Yaw, theta))
	}
	return errs
}

func newTestTracker(t *testing.T, positions int, cfg Config) *Tracker {
	t.Helper()
	tk, err := NewTracker(synthProfile(t, positions), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return tk
}

func TestNewTrackerValidation(t *testing.T) {
	if _, err := NewTracker(nil, DefaultConfig()); !errors.Is(err, ErrEmptyProfile) {
		t.Errorf("nil profile err = %v", err)
	}
	if _, err := NewTracker(&Profile{MatchRateHz: 100}, DefaultConfig()); !errors.Is(err, ErrEmptyProfile) {
		t.Errorf("empty profile err = %v", err)
	}
	p := synthProfile(t, 1)
	cfg := DefaultConfig()
	cfg.MatchRateHz = 50 // mismatched with profile's 100
	if _, err := NewTracker(p, cfg); err == nil {
		t.Error("rate mismatch accepted")
	}
}

func TestTrackerConfigDefaults(t *testing.T) {
	tk := newTestTracker(t, 1, Config{})
	if tk.cfg.WindowS != DefaultConfig().WindowS {
		t.Error("window default not applied")
	}
	if tk.cfg.MatchRateHz != 100 {
		t.Error("match rate not adopted from profile")
	}
	if tk.cfg.RatioLo != 0.5 || tk.cfg.RatioHi != 2 {
		t.Error("ratio defaults not applied")
	}
	if tk.cfg.PositionCandidates < 1 {
		t.Error("candidate default not applied")
	}
}

func TestTrackerSetupTime(t *testing.T) {
	tk := newTestTracker(t, 1, DefaultConfig())
	if tk.Ready(0) {
		t.Error("ready before any sample")
	}
	tk.Push(0, 0)
	if tk.Ready(0.05) {
		t.Error("ready before window W elapsed")
	}
	if !tk.Ready(0.2) {
		t.Error("not ready after window W")
	}
}

func TestTrackerTracksInjectiveCurve(t *testing.T) {
	tk := newTestTracker(t, 1, DefaultConfig())
	errs := trackSynthetic(t, tk, -1, 0.8, 20)
	if len(errs) < 100 {
		t.Fatalf("too few CSI estimates: %d", len(errs))
	}
	med := stats.Median(errs)
	if med > 8 {
		t.Errorf("median error %v° on an injective curve, want <8°", med)
	}
}

func TestTrackerPositionLock(t *testing.T) {
	// Stream at position 2's curve after a long stable front period:
	// the tracker must lock position 2.
	tk := newTestTracker(t, 4, DefaultConfig())
	offset := float64(2)*0.5 - 1 // synthProfile fingerprint for position 2
	for ts := 0.0; ts < 3; ts += 0.002 {
		tk.Push(ts, offset) // facing front, stable
	}
	if pos, locked := tk.Position(); !locked || pos != 2 {
		t.Errorf("position lock = %d/%v, want 2/true", pos, locked)
	}
}

func TestTrackerShortlistDisambiguation(t *testing.T) {
	// With aliased fingerprints the matcher must still land on the
	// right position once motion starts, because the curves differ.
	tk := newTestTracker(t, 4, DefaultConfig())
	offset := float64(2)*0.5 - 1
	for ts := 0.0; ts < 3; ts += 0.002 {
		tk.Push(ts, offset)
	}
	errs := make([]float64, 0)
	for ts := 3.0; ts < 13; ts += 0.002 {
		theta := 80 * math.Sin(2*math.Pi*(ts-3)/4)
		phi := offset + 0.8*math.Sin(theta*math.Pi/180)
		est, ok := tk.Push(ts, phi)
		if ok && est.Source == SourceCSI && ts > 4 {
			errs = append(errs, geom.AngleDistDeg(est.Yaw, theta))
		}
	}
	if med := stats.Median(errs); med > 8 {
		t.Errorf("median error after lock = %v°", med)
	}
	if pos, _ := tk.Position(); pos != 2 {
		t.Errorf("final position = %d, want 2", pos)
	}
}

func TestTrackerFrontSourceWhenStable(t *testing.T) {
	tk := newTestTracker(t, 1, DefaultConfig())
	var got *Estimate
	for ts := 0.0; ts < 3; ts += 0.002 {
		if est, ok := tk.Push(ts, -1); ok {
			got = &est
		}
	}
	if got == nil {
		t.Fatal("no estimate during stable period")
	}
	if got.Source != SourceFront || got.Yaw != 0 {
		t.Errorf("stable estimate = %+v, want front-facing 0°", got)
	}
}

func TestTrackerContinuityFilter(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxJumpDPS = 100 // very strict for the test
	tk := newTestTracker(t, 1, cfg)
	// Warm up tracking the curve.
	for ts := 0.0; ts < 6; ts += 0.002 {
		theta := 80 * math.Sin(2*math.Pi*ts/4)
		tk.Push(ts, -1+0.8*math.Sin(theta*math.Pi/180))
	}
	// Inject a teleport: a phase implying a far-away orientation.
	heldSeen := false
	for ts := 6.0; ts < 6.1; ts += 0.002 {
		if est, ok := tk.Push(ts, -1+0.8*math.Sin(-80*math.Pi/180)); ok && est.Source == SourceHeld {
			heldSeen = true
		}
	}
	if !heldSeen {
		t.Error("continuity filter never held a teleporting estimate")
	}
}

func TestTrackerHoldCapReanchors(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxJumpDPS = 50
	tk := newTestTracker(t, 1, cfg)
	for ts := 0.0; ts < 6; ts += 0.002 {
		theta := 80 * math.Sin(2*math.Pi*ts/4)
		tk.Push(ts, -1+0.8*math.Sin(theta*math.Pi/180))
	}
	// Persist at a far orientation: after maxConsecutiveHolds the
	// tracker must re-anchor rather than hold forever.
	far := -1 + 0.8*math.Sin(-75*math.Pi/180)
	reanchored := false
	for ts := 6.0; ts < 7.0; ts += 0.002 {
		// add tiny wiggle so the stability detector does not fire
		phi := far + 0.02*math.Sin(ts*200)
		if est, ok := tk.Push(ts, phi); ok && est.Source == SourceCSI && math.Abs(est.Yaw-(-75)) < 15 {
			reanchored = true
		}
	}
	if !reanchored {
		t.Error("tracker never re-anchored after persistent disagreement")
	}
}

func TestTrackerForecast(t *testing.T) {
	tk := newTestTracker(t, 1, DefaultConfig())
	var last Estimate
	haveLast := false
	for ts := 0.0; ts < 10; ts += 0.002 {
		theta := 80 * math.Sin(2*math.Pi*ts/4)
		if est, ok := tk.Push(ts, -1+0.8*math.Sin(theta*math.Pi/180)); ok && est.Source == SourceCSI {
			last, haveLast = est, true
		}
	}
	if !haveLast {
		t.Fatal("no estimates")
	}
	// Horizon 0 returns the estimate itself.
	if got := tk.Forecast(last, 0); got != last.Yaw {
		t.Errorf("0-horizon forecast = %v, want %v", got, last.Yaw)
	}
	// A positive horizon must return a valid angle from the profile.
	got := tk.Forecast(last, 0.2)
	if math.IsNaN(got) || got < -90 || got > 90 {
		t.Errorf("forecast = %v out of range", got)
	}
}

func TestTrackerForecastHeldPassthrough(t *testing.T) {
	tk := newTestTracker(t, 1, DefaultConfig())
	est := Estimate{Yaw: 33, Source: SourceHeld}
	if got := tk.Forecast(est, 0.3); got != 33 {
		t.Errorf("held forecast = %v, want passthrough", got)
	}
}

func TestTrackerReset(t *testing.T) {
	tk := newTestTracker(t, 2, DefaultConfig())
	for ts := 0.0; ts < 3; ts += 0.002 {
		tk.Push(ts, -1)
	}
	tk.Reset()
	if _, locked := tk.Position(); locked {
		t.Error("Reset kept position lock")
	}
	if tk.Ready(100) {
		t.Error("Reset kept readiness")
	}
	// Must work again after reset.
	errs := trackSynthetic(t, tk, -1, 0.8, 10)
	if len(errs) == 0 {
		t.Error("no estimates after Reset")
	}
}

func TestTrackerSetPosition(t *testing.T) {
	tk := newTestTracker(t, 3, DefaultConfig())
	tk.SetPosition(2)
	if pos, locked := tk.Position(); pos != 2 || !locked {
		t.Error("SetPosition failed")
	}
	tk.SetPosition(99) // out of range: ignored
	if pos, _ := tk.Position(); pos != 2 {
		t.Error("out-of-range SetPosition changed state")
	}
}

func TestTrackerSeamCrossingStream(t *testing.T) {
	// A run-time stream whose phase orbits across the ±π seam must not
	// produce NaNs or wild estimates purely from wrapping.
	recs := []SweepRecording{synthRecording(0, math.Pi-0.2, 0.8, 8)}
	p, err := BuildProfile(recs, 100)
	if err != nil {
		t.Fatal(err)
	}
	tk, err := NewTracker(p, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	for ts := 0.0; ts < 10; ts += 0.002 {
		theta := 80 * math.Sin(2*math.Pi*ts/4)
		phi := geom.WrapRad(math.Pi - 0.2 + 0.8*math.Sin(theta*math.Pi/180))
		if est, ok := tk.Push(ts, phi); ok {
			if math.IsNaN(est.Yaw) {
				t.Fatal("NaN estimate")
			}
			count++
		}
	}
	if count == 0 {
		t.Error("no estimates on seam-crossing stream")
	}
}

func TestSourceString(t *testing.T) {
	cases := map[Source]string{
		SourceCSI:    "csi",
		SourceFront:  "front",
		SourceHeld:   "held",
		SourceCamera: "camera",
		Source(42):   "Source(42)",
	}
	for s, want := range cases {
		if s.String() != want {
			t.Errorf("%d.String() = %q", int(s), s.String())
		}
	}
}

// TestTrackerStablePushAllocationFree: facing the road, every sample
// is stable and re-ranks the positions (Eq. 4), so a warmed-up
// tracker's Push must not allocate on that path.
func TestTrackerStablePushAllocationFree(t *testing.T) {
	tk := newTestTracker(t, 4, DefaultConfig())
	ts, front := 0.0, false
	for ; ts < 3; ts += 0.002 {
		if est, ok := tk.Push(ts, 0); ok && est.Source == SourceFront {
			front = true
		}
	}
	if !front {
		t.Fatal("constant phase never reported facing front")
	}
	allocs := testing.AllocsPerRun(500, func() {
		ts += 0.002
		tk.Push(ts, 0)
	})
	if allocs != 0 {
		t.Errorf("stable Push allocates %v times per sample, want 0", allocs)
	}
}
