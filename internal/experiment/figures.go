package experiment

import (
	"fmt"

	"vihot/internal/cabin"
	"vihot/internal/camera"
	"vihot/internal/core"
	"vihot/internal/driver"
	"vihot/internal/geom"
	"vihot/internal/imu"
	"vihot/internal/stats"
	"vihot/internal/wifi"
)

// Series is one named data series of a reproduced figure.
type Series struct {
	Name string
	X    []float64
	Y    []float64
}

// FigureResult is the output of one reproduced table or figure.
type FigureResult struct {
	ID         string // e.g. "fig10"
	Title      string
	PaperClaim string // what the paper reports, for side-by-side reading
	Series     []Series
	Notes      []string
}

func (r *FigureResult) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// Options scales figure experiments. The zero value is replaced by
// DefaultOptions; benches use Quick() to keep -bench runs tractable.
type Options struct {
	Seed     int64
	RuntimeS float64 // run-time test length per condition (paper: 60 s)
	Profile  ProfileOptions
	// EstimateEveryS overrides the tracker estimate cadence
	// (the default 10 ms is faithful but slow for exhaustive sweeps).
	EstimateEveryS float64
	// Repeats pools each accuracy condition over this many independent
	// sessions (fresh profile + run per seed), like the paper's
	// "repeat the test session 10 times". 0 means 1.
	Repeats int
}

// DefaultOptions mirrors Sec. 5.1: 10 positions × 10 s profiling and
// 60 s test runs.
func DefaultOptions() Options {
	return Options{Seed: 1, RuntimeS: 60, Profile: DefaultProfileOptions()}
}

// Quick returns options scaled down ≈4× for benchmarks and CI.
func Quick() Options {
	o := DefaultOptions()
	o.RuntimeS = 15
	o.Profile.PerPositionS = 5
	o.EstimateEveryS = 0.02
	return o
}

func (o Options) normalize() Options {
	if o.RuntimeS <= 0 {
		o.RuntimeS = 60
	}
	if o.Profile.Positions == 0 {
		o.Profile = DefaultProfileOptions()
	}
	if o.Repeats < 1 {
		o.Repeats = 1
	}
	return o
}

// pooled runs one accuracy condition across opt.Repeats independent
// sessions (fresh environment, profile, and run per derived seed) and
// pools the per-estimate errors; the last session's RunResult is
// returned for rate/fallback metadata.
func pooled(opt Options, cond func(o Options) (*RunResult, error)) ([]float64, *RunResult, error) {
	var all []float64
	var last *RunResult
	for r := 0; r < opt.Repeats; r++ {
		o := opt
		o.Seed = opt.Seed + int64(r)*1009
		res, err := cond(o)
		if err != nil {
			return nil, nil, err
		}
		all = append(all, res.Errors...)
		last = res
	}
	return all, last, nil
}

func (o Options) pipeline() core.PipelineConfig {
	pc := core.DefaultPipelineConfig()
	if o.EstimateEveryS > 0 {
		pc.Tracker.EstimateEveryS = o.EstimateEveryS
	}
	return pc
}

// cdfSeries converts an error sample set into a CDF series.
func cdfSeries(name string, errs []float64) Series {
	vals, probs := stats.NewCDF(errs).Points(41)
	return Series{Name: name, X: vals, Y: probs}
}

// profiledEnv builds an environment and collects the default profile.
func profiledEnv(cfg cabin.Config, p driver.Profile, opt Options) (*Env, *core.Profile, error) {
	env, err := NewEnv(cfg, opt.Seed)
	if err != nil {
		return nil, nil, err
	}
	prof, _, err := env.CollectProfile(p, opt.Profile)
	if err != nil {
		return nil, nil, err
	}
	return env, prof, nil
}

// Fig02HeadAxes reproduces Fig. 2: during periodic head turning the
// yaw axis swings ±60–100° while pitch and roll stay small.
func Fig02HeadAxes(opt Options) (*FigureResult, error) {
	opt = opt.normalize()
	rng := stats.NewRNG(opt.Seed)
	headset := imu.NewHeadset(rng.Fork(), 0)
	sc, _ := driver.SweepScenario(driver.DriverA(), 1, 16, 110)

	r := &FigureResult{
		ID:         "fig02",
		Title:      "Head rotation is mostly 2-D (yaw, pitch, roll vs time)",
		PaperClaim: "yaw swings ±60–100°, pitch/roll projections stay small",
	}
	var ts, yaw, pitch, roll []float64
	for t := 0.0; t < 16; t += 0.05 {
		p := headset.Sample(t, sc.HeadYaw.At(t))
		ts = append(ts, t)
		yaw = append(yaw, p.Yaw)
		pitch = append(pitch, p.Pitch)
		roll = append(roll, p.Roll)
	}
	r.Series = []Series{
		{Name: "Yaw", X: ts, Y: yaw},
		{Name: "Pitch", X: ts, Y: pitch},
		{Name: "Roll", X: ts, Y: roll},
	}
	r.note("yaw span %.0f°, |pitch| max %.0f°, |roll| max %.0f°",
		stats.Max(yaw)-stats.Min(yaw),
		maxAbs(pitch), maxAbs(roll))
	return r, nil
}

func maxAbs(xs []float64) float64 {
	var m float64
	for _, x := range xs {
		if x < 0 {
			x = -x
		}
		if x > m {
			m = x
		}
	}
	return m
}

// Fig03PhaseVsOrientation reproduces Fig. 3: the CSI phase vs head
// orientation relation forms a family of parallel, non-injective
// curves — one per head position.
func Fig03PhaseVsOrientation(opt Options) (*FigureResult, error) {
	opt = opt.normalize()
	env, err := NewEnv(cabin.DefaultConfig(), opt.Seed)
	if err != nil {
		return nil, err
	}
	r := &FigureResult{
		ID:         "fig03",
		Title:      "CSI phase vs head orientation at different positions",
		PaperClaim: "parallel curves per position; same phase at multiple orientations",
	}
	for _, pos := range []int{1, 3, 5, 7, 9} {
		headPos := cabin.HeadPosition(pos, 10)
		var xs, ys []float64
		for yaw := -90.0; yaw <= 90; yaw += 2 {
			phi, err := env.PhaseAt(cabin.State{HeadPos: headPos, HeadYaw: yaw})
			if err != nil {
				return nil, err
			}
			xs = append(xs, yaw)
			ys = append(ys, phi)
		}
		r.Series = append(r.Series, Series{Name: fmt.Sprintf("position %d", pos), X: xs, Y: ys})
	}
	// Non-injectivity check: a curve with interior extrema maps some
	// phase values to multiple orientations.
	mid := r.Series[2]
	extrema := 0
	for i := 2; i < len(mid.Y); i++ {
		d1 := mid.Y[i-1] - mid.Y[i-2]
		d2 := mid.Y[i] - mid.Y[i-1]
		if d1*d2 < 0 {
			extrema++
		}
	}
	r.note("center curve has %d interior extrema (non-injective: %v)",
		extrema, extrema > 0)
	// Position separation: the curves are vertically offset families.
	var offsets []float64
	for i := 1; i < len(r.Series); i++ {
		a, b := r.Series[i-1].Y, r.Series[i].Y
		var d float64
		for k := range a {
			d += geom.PhaseDiff(b[k], a[k])
		}
		offsets = append(offsets, d/float64(len(a)))
	}
	r.note("mean curve-to-curve offsets between adjacent positions: %v rad", offsets)
	return r, nil
}

// Fig08Steering reproduces Fig. 8: turning the steering wheel swings
// the CSI phase even though the head orientation stays flat.
func Fig08Steering(opt Options) (*FigureResult, error) {
	opt = opt.normalize()
	env, err := NewEnv(cabin.DefaultConfig(), opt.Seed)
	if err != nil {
		return nil, err
	}
	sc := driver.SteeringOnlyScenario(10)
	phase, err := env.PhaseSeries(sc)
	if err != nil {
		return nil, err
	}
	r := &FigureResult{
		ID:         "fig08",
		Title:      "Steering-wheel turning affects CSI phase",
		PaperClaim: "head orientation flat while CSI phase varies significantly",
	}
	var ts, phis, yaws []float64
	for i := 0; i < len(phase); i += 25 { // thin for readability
		ts = append(ts, phase[i].T)
		phis = append(phis, phase[i].V)
		yaws = append(yaws, sc.HeadYaw.At(phase[i].T))
	}
	r.Series = []Series{
		{Name: "CSI phase (rad)", X: ts, Y: phis},
		{Name: "head yaw (deg)", X: ts, Y: yaws},
	}
	r.note("phase swing %.2f rad under zero head motion (yaw span %.2f°)",
		stats.Max(phis)-stats.Min(phis), stats.Max(yaws)-stats.Min(yaws))
	return r, nil
}

// Fig10Prediction reproduces Fig. 10: head-orientation prediction
// accuracy for horizons 0–400 ms (mean ± std, and the error CDFs).
func Fig10Prediction(opt Options) (*FigureResult, error) {
	opt = opt.normalize()
	horizons := []float64{0, 0.1, 0.2, 0.3, 0.4}
	forecast := make([][]float64, len(horizons))
	for rep := 0; rep < opt.Repeats; rep++ {
		o := opt
		o.Seed = opt.Seed + int64(rep)*1009
		env, prof, err := profiledEnv(cabin.DefaultConfig(), driver.DriverA(), o)
		if err != nil {
			return nil, err
		}
		sc := sweepAt(driver.DriverA(), o.RuntimeS, 115, geom.Vec3{}, stats.NewRNG(o.Seed+21))
		res, err := env.Track(prof, sc, TrackOptions{Pipeline: o.pipeline(), Horizons: horizons})
		if err != nil {
			return nil, err
		}
		for i := range horizons {
			forecast[i] = append(forecast[i], res.ForecastErrors[i]...)
		}
	}
	r := &FigureResult{
		ID:         "fig10",
		Title:      "Orientation prediction accuracy vs horizon",
		PaperClaim: "mean error ≈4° at 0 ms growing to ≈18° at 400 ms; max <60° and rare",
	}
	var hx, mean, std []float64
	for i, h := range horizons {
		errs := forecast[i]
		s := stats.Summarize(errs)
		hx = append(hx, h*1000)
		mean = append(mean, s.Mean)
		std = append(std, s.Std)
		r.Series = append(r.Series, cdfSeries(fmt.Sprintf("%.0fms", h*1000), errs))
		r.note("horizon %3.0f ms: mean %.1f° ± %.1f°, median %.1f°, max %.1f°",
			h*1000, s.Mean, s.Std, s.Median, s.Max)
	}
	r.Series = append([]Series{
		{Name: "mean error vs horizon (ms)", X: hx, Y: mean},
		{Name: "std vs horizon (ms)", X: hx, Y: std},
	}, r.Series...)
	return r, nil
}

// Fig11LayoutCurves reproduces Fig. 11: different antenna placements
// yield differently shaped CSI-orientation relations.
func Fig11LayoutCurves(opt Options) (*FigureResult, error) {
	opt = opt.normalize()
	r := &FigureResult{
		ID:         "fig11",
		Title:      "Antenna placement changes the CSI-orientation curve",
		PaperClaim: "very different curve shapes for layouts 1 and 2 under similar turns",
	}
	for _, layout := range []cabin.Layout{cabin.Layout1, cabin.Layout2} {
		cfg := cabin.DefaultConfig()
		cfg.Layout = layout
		env, err := NewEnv(cfg, opt.Seed)
		if err != nil {
			return nil, err
		}
		var xs, ys []float64
		for yaw := -90.0; yaw <= 90; yaw += 2 {
			phi, err := env.PhaseAt(cabin.State{HeadPos: cabin.DriverHeadBase, HeadYaw: yaw})
			if err != nil {
				return nil, err
			}
			xs = append(xs, yaw)
			ys = append(ys, phi)
		}
		r.Series = append(r.Series, Series{Name: layout.String(), X: xs, Y: ys})
	}
	// Shape dissimilarity: correlation between the two curves.
	corr := stats.Pearson(r.Series[0].Y, r.Series[1].Y)
	r.note("curve correlation between layouts: %.2f (dissimilar when far from ±1)", corr)
	return r, nil
}

// Fig12AntennaPlacement reproduces Fig. 12: tracking-error CDFs for
// the five candidate RX antenna placements.
func Fig12AntennaPlacement(opt Options) (*FigureResult, error) {
	opt = opt.normalize()
	r := &FigureResult{
		ID:         "fig12",
		Title:      "Tracking accuracy under antenna placements 1–5",
		PaperClaim: "best layout <5° median, worst ≈20°; Layout 1 wins",
	}
	for _, layout := range cabin.Layouts() {
		layout := layout
		errs, _, err := pooled(opt, func(o Options) (*RunResult, error) {
			cfg := cabin.DefaultConfig()
			cfg.Layout = layout
			env, prof, err := profiledEnv(cfg, driver.DriverA(), o)
			if err != nil {
				return nil, err
			}
			sc := sweepAt(driver.DriverA(), o.RuntimeS, 115, geom.Vec3{}, stats.NewRNG(o.Seed+22))
			return env.Track(prof, sc, TrackOptions{Pipeline: o.pipeline()})
		})
		if err != nil {
			return nil, err
		}
		r.Series = append(r.Series, cdfSeries(layout.String(), errs))
		r.note("%s: median %.1f°, p90 %.1f°", layout, stats.Median(errs),
			stats.Summarize(errs).P90)
	}
	return r, nil
}

// Fig13aProfilingInterval reproduces Fig. 13a: accuracy vs the time
// gap between profiling and run-time. The dominant effect the paper
// identifies is re-seating: for gaps ≥1 hour the driver left the seat,
// shifting the head position slightly; beyond that the gap length
// barely matters.
func Fig13aProfilingInterval(opt Options) (*FigureResult, error) {
	opt = opt.normalize()
	r := &FigureResult{
		ID:         "fig13a",
		Title:      "Accuracy vs profiling-runtime interval",
		PaperClaim: "1 min best (≈4°); 1 hour–1 week all similar (≈10° median)",
	}
	cases := []struct {
		name   string
		reseat bool
	}{
		{"1 minute", false},
		{"1 hour", true},
		{"1 day", true},
		{"1 week", true},
	}
	for ci, c := range cases {
		ci, c := ci, c
		errs, _, err := pooled(opt, func(o Options) (*RunResult, error) {
			env, prof, err := profiledEnv(cabin.DefaultConfig(), driver.DriverA(), o)
			if err != nil {
				return nil, err
			}
			rng := stats.NewRNG(o.Seed + 77 + int64(ci)*131)
			var reseat geom.Vec3
			if c.reseat {
				// Re-seating shifts the resting head position by a few
				// centimeters in a random direction.
				reseat = geom.Vec3{
					X: rng.Normal(0, 0.035),
					Y: rng.Normal(0, 0.012),
					Z: rng.Normal(0, 0.012),
				}
			}
			sc := sweepAt(driver.DriverA(), o.RuntimeS, 115, reseat, rng.Fork())
			return env.Track(prof, sc, TrackOptions{Pipeline: o.pipeline()})
		})
		if err != nil {
			return nil, err
		}
		r.Series = append(r.Series, cdfSeries(c.name, errs))
		r.note("%s: median %.1f°", c.name, stats.Median(errs))
	}
	return r, nil
}

// sweepAt builds a continuous-sweep runtime scenario with the head
// base offset by reseat and natural postural drift applied.
func sweepAt(p driver.Profile, dur, speed float64, reseat geom.Vec3, rng *stats.RNG) *driver.Scenario {
	sc, _ := driver.SweepScenario(p, 1, dur, speed)
	if reseat != (geom.Vec3{}) {
		shifted := driver.NewPosTrack()
		shifted.Append(0, sc.HeadPos.At(0).Add(reseat))
		sc.HeadPos = shifted
	}
	driver.AddPositionDrift(sc, rng, runtimeDriftStd)
	return sc
}

// runtimeDriftStd is the natural postural sway applied to every
// run-time test (profiling is drift-free: the driver holds still on
// purpose).
const runtimeDriftStd = 0.002

// Fig13bWindowSize reproduces Fig. 13b: accuracy vs CSI input window
// size from 10 ms to 300 ms.
func Fig13bWindowSize(opt Options) (*FigureResult, error) {
	opt = opt.normalize()
	r := &FigureResult{
		ID:         "fig13b",
		Title:      "Accuracy vs CSI input window size",
		PaperClaim: "longer windows slightly better; even 10 ms achieves ≈7°",
	}
	for _, w := range []float64{0.01, 0.02, 0.05, 0.1, 0.2, 0.3} {
		w := w
		errs, _, err := pooled(opt, func(o Options) (*RunResult, error) {
			env, prof, err := profiledEnv(cabin.DefaultConfig(), driver.DriverA(), o)
			if err != nil {
				return nil, err
			}
			pc := o.pipeline()
			pc.Tracker.WindowS = w
			sc := sweepAt(driver.DriverA(), o.RuntimeS, 115, geom.Vec3{}, stats.NewRNG(o.Seed+23))
			return env.Track(prof, sc, TrackOptions{Pipeline: pc})
		})
		if err != nil {
			return nil, err
		}
		name := fmt.Sprintf("%.0fms", w*1000)
		r.Series = append(r.Series, cdfSeries(name, errs))
		r.note("W=%s: median %.1f°", name, stats.Median(errs))
	}
	return r, nil
}

// Fig13cTurnSpeed reproduces Fig. 13c: accuracy under head-turning
// speeds 100–147°/s — faster turning matches better (more features in
// the window; no motion blur).
func Fig13cTurnSpeed(opt Options) (*FigureResult, error) {
	opt = opt.normalize()
	r := &FigureResult{
		ID:         "fig13c",
		Title:      "Accuracy vs head-turning speed",
		PaperClaim: "medians always <10°; accuracy improves with speed",
	}
	// The paper's fixed 300 ms sliding window for this experiment.
	for _, speed := range []float64{100, 111, 124, 147} {
		speed := speed
		errs, _, err := pooled(opt, func(o Options) (*RunResult, error) {
			env, prof, err := profiledEnv(cabin.DefaultConfig(), driver.DriverA(), o)
			if err != nil {
				return nil, err
			}
			pc := o.pipeline()
			pc.Tracker.WindowS = 0.3
			sc := sweepAt(driver.DriverA(), o.RuntimeS, speed, geom.Vec3{}, stats.NewRNG(o.Seed+24))
			return env.Track(prof, sc, TrackOptions{Pipeline: pc})
		})
		if err != nil {
			return nil, err
		}
		name := fmt.Sprintf("%.0f°/s", speed)
		r.Series = append(r.Series, cdfSeries(name, errs))
		r.note("%s: median %.1f°, max %.1f°", name,
			stats.Median(errs), stats.Max(errs))
	}
	return r, nil
}

// Fig13dDrivers reproduces Fig. 13d: per-driver accuracy, each driver
// tracked against their own profile.
func Fig13dDrivers(opt Options) (*FigureResult, error) {
	opt = opt.normalize()
	r := &FigureResult{
		ID:         "fig13d",
		Title:      "Accuracy across different drivers",
		PaperClaim: "all three drivers below 10° median",
	}
	for _, d := range []driver.Profile{driver.DriverA(), driver.DriverB(), driver.DriverC()} {
		d := d
		errs, _, err := pooled(opt, func(o Options) (*RunResult, error) {
			env, prof, err := profiledEnv(cabin.DefaultConfig(), d, o)
			if err != nil {
				return nil, err
			}
			sc := sweepAt(d, o.RuntimeS, d.TurnSpeedDPS, geom.Vec3{}, stats.NewRNG(o.Seed+25))
			return env.Track(prof, sc, TrackOptions{Pipeline: o.pipeline()})
		})
		if err != nil {
			return nil, err
		}
		r.Series = append(r.Series, cdfSeries(d.Name, errs))
		r.note("%s (%.0f cm, %.0f°/s): median %.1f°", d.Name, d.HeightCM,
			d.TurnSpeedDPS, stats.Median(errs))
	}
	return r, nil
}

// Fig14SpeedCurves reproduces Fig. 14: the same head sweep at two
// speeds traces CSI curves of different temporal shape.
func Fig14SpeedCurves(opt Options) (*FigureResult, error) {
	opt = opt.normalize()
	env, err := NewEnv(cabin.DefaultConfig(), opt.Seed)
	if err != nil {
		return nil, err
	}
	r := &FigureResult{
		ID:         "fig14",
		Title:      "Rotation speed changes the CSI curve shape over time",
		PaperClaim: "faster rotation compresses the phase trace in time",
	}
	for _, speed := range []float64{100, 147} {
		sc, _ := driver.SweepScenario(driver.DriverA(), 1, 6, speed)
		phase, err := env.PhaseSeries(sc)
		if err != nil {
			return nil, err
		}
		var ts, phis []float64
		for i := 0; i < len(phase); i += 20 {
			ts = append(ts, phase[i].T)
			phis = append(phis, phase[i].V)
		}
		r.Series = append(r.Series, Series{Name: fmt.Sprintf("%.0f°/s", speed), X: ts, Y: phis})
	}
	r.note("series lengths differ in time while covering the same yaw range")
	return r, nil
}

// Fig15MicroMotions reproduces Fig. 15: phase variation under cabin
// micro-motions vs head turning.
func Fig15MicroMotions(opt Options) (*FigureResult, error) {
	opt = opt.normalize()
	r := &FigureResult{
		ID:         "fig15",
		Title:      "Phase variations: micro-motions vs head turning",
		PaperClaim: "head turning causes much stronger phase variation",
	}
	cases := []struct {
		name  string
		micro []cabin.MicroMotion
		head  bool
	}{
		{"breathing+blinking", []cabin.MicroMotion{cabin.MicroBreathing()}, false},
		{"intense eye motion", []cabin.MicroMotion{cabin.MicroEyeMotion()}, false},
		{"music vibration", []cabin.MicroMotion{cabin.MicroMusicVibration()}, false},
		{"head turning", nil, true},
	}
	for _, c := range cases {
		cfg := cabin.DefaultConfig()
		cfg.Micro = c.micro
		env, err := NewEnv(cfg, opt.Seed)
		if err != nil {
			return nil, err
		}
		var sc *driver.Scenario
		if c.head {
			sc, _ = driver.SweepScenario(driver.DriverA(), 1, 6, 110)
		} else {
			sc = stillScenario(6)
		}
		phase, err := env.PhaseSeries(sc)
		if err != nil {
			return nil, err
		}
		var ts, phis []float64
		for i := 0; i < len(phase); i += 20 {
			ts = append(ts, phase[i].T)
			phis = append(phis, phase[i].V)
		}
		r.Series = append(r.Series, Series{Name: c.name, X: ts, Y: phis})
		r.note("%s: phase p-p %.3f rad", c.name, stats.Max(phis)-stats.Min(phis))
	}
	return r, nil
}

// stillScenario is a driver sitting still, facing the road.
func stillScenario(dur float64) *driver.Scenario {
	sc, _ := driver.SweepScenario(driver.DriverA(), 1, 0.01, 100)
	sc.Duration = dur
	sc.HeadYaw = driver.NewTrack(driver.Key{T: 0, V: 0})
	return sc
}

// Fig16AntennaVibration reproduces Fig. 16: antenna vibration yields
// noisy but near-parallel phase curves of unchanged shape.
func Fig16AntennaVibration(opt Options) (*FigureResult, error) {
	opt = opt.normalize()
	r := &FigureResult{
		ID:         "fig16",
		Title:      "WiFi antenna vibration causes noisy phase",
		PaperClaim: "vibrating curves parallel to rigid ones with a small gap",
	}
	var ref []float64
	for _, vib := range []bool{false, true} {
		cfg := cabin.DefaultConfig()
		if vib {
			v := cabin.DefaultVibration()
			cfg.Vibration = &v
		}
		env, err := NewEnv(cfg, opt.Seed)
		if err != nil {
			return nil, err
		}
		sc, _ := driver.SweepScenario(driver.DriverA(), 1, 6, 110)
		phase, err := env.PhaseSeries(sc)
		if err != nil {
			return nil, err
		}
		var ts, phis []float64
		for i := 0; i < len(phase); i += 20 {
			ts = append(ts, phase[i].T)
			phis = append(phis, phase[i].V)
		}
		name := "rigid antennas"
		if vib {
			name = "vibrating antennas"
		}
		r.Series = append(r.Series, Series{Name: name, X: ts, Y: phis})
		if ref == nil {
			ref = phis
		} else if len(ref) == len(phis) {
			r.note("curve correlation rigid vs vibrating: %.2f", stats.Pearson(ref, phis))
		}
	}
	return r, nil
}

// Fig17aVibration reproduces Fig. 17a: accuracy with and without
// antenna vibration.
func Fig17aVibration(opt Options) (*FigureResult, error) {
	opt = opt.normalize()
	r := &FigureResult{
		ID:         "fig17a",
		Title:      "Accuracy w/ and w/o antenna vibration",
		PaperClaim: "vibration costs accuracy but median stays ≈6°",
	}
	for _, vib := range []bool{false, true} {
		vib := vib
		errs, _, err := pooled(opt, func(o Options) (*RunResult, error) {
			cfg := cabin.DefaultConfig()
			if vib {
				v := cabin.DefaultVibration()
				cfg.Vibration = &v
			}
			env, prof, err := profiledEnv(cfg, driver.DriverA(), o)
			if err != nil {
				return nil, err
			}
			sc := sweepAt(driver.DriverA(), o.RuntimeS, 115, geom.Vec3{}, stats.NewRNG(o.Seed+27))
			return env.Track(prof, sc, TrackOptions{Pipeline: o.pipeline()})
		})
		if err != nil {
			return nil, err
		}
		name := "w/o ant vibration"
		if vib {
			name = "w/ ant vibration"
		}
		r.Series = append(r.Series, cdfSeries(name, errs))
		r.note("%s: median %.1f°", name, stats.Median(errs))
	}
	return r, nil
}

// Fig17bSteeringIdentifier reproduces Fig. 17b: accuracy with and
// without the driver-steering identifier during a trip with real
// steering events.
func Fig17bSteeringIdentifier(opt Options) (*FigureResult, error) {
	opt = opt.normalize()
	r := &FigureResult{
		ID:         "fig17b",
		Title:      "Accuracy w/ and w/o the steering identifier",
		PaperClaim: "w/o identifier errors reach ≈80°; identifier restores accuracy",
	}
	for _, enabled := range []bool{false, true} {
		enabled := enabled
		errs, _, err := pooled(opt, func(o Options) (*RunResult, error) {
			env, prof, err := profiledEnv(cabin.DefaultConfig(), driver.DriverA(), o)
			if err != nil {
				return nil, err
			}
			sc := driver.DrivingScenario(stats.NewRNG(o.Seed+5), driver.DriverA(), o.RuntimeS,
				driver.GlanceOptions{Steering: true, SteerProb: 0.6, PositionJitter: 0.006})
			pc := o.pipeline()
			pc.SteeringIdentifier = enabled
			return env.Track(prof, sc, TrackOptions{Pipeline: pc, Camera: enabled})
		})
		if err != nil {
			return nil, err
		}
		name := "w/o steering identifier"
		if enabled {
			name = "w/ steering identifier"
		}
		r.Series = append(r.Series, cdfSeries(name, errs))
		r.note("%s: median %.1f°, p90 %.1f°, max %.1f°", name,
			stats.Median(errs), stats.Summarize(errs).P90, stats.Max(errs))
	}
	return r, nil
}

// Fig17cPassenger reproduces Fig. 17c: accuracy with and without a
// front passenger who occasionally looks around.
func Fig17cPassenger(opt Options) (*FigureResult, error) {
	opt = opt.normalize()
	r := &FigureResult{
		ID:         "fig17c",
		Title:      "Accuracy w/ and w/o a front passenger",
		PaperClaim: "similar medians; rare spikes during passenger turns, never >60°",
	}
	for _, passenger := range []bool{false, true} {
		passenger := passenger
		errs, _, err := pooled(opt, func(o Options) (*RunResult, error) {
			cfg := cabin.DefaultConfig()
			cfg.Passenger = passenger
			env, prof, err := profiledEnv(cfg, driver.DriverA(), o)
			if err != nil {
				return nil, err
			}
			sc := sweepAt(driver.DriverA(), o.RuntimeS, 115, geom.Vec3{}, stats.NewRNG(o.Seed+26))
			if passenger {
				sc.PassengerYaw = passengerLookTrack(stats.NewRNG(o.Seed+9), o.RuntimeOr(60))
			}
			return env.Track(prof, sc, TrackOptions{Pipeline: o.pipeline()})
		})
		if err != nil {
			return nil, err
		}
		name := "w/o passenger"
		if passenger {
			name = "w/ passenger"
		}
		r.Series = append(r.Series, cdfSeries(name, errs))
		r.note("%s: median %.1f°, max %.1f°", name,
			stats.Median(errs), stats.Max(errs))
	}
	return r, nil
}

// RuntimeOr returns the configured runtime or a default.
func (o Options) RuntimeOr(def float64) float64 {
	if o.RuntimeS > 0 {
		return o.RuntimeS
	}
	return def
}

// passengerLookTrack mirrors driver.DrivingScenario's passenger
// behaviour for sweep scenarios.
func passengerLookTrack(rng *stats.RNG, dur float64) *driver.Track {
	sc := driver.DrivingScenario(rng, driver.DriverB(), dur, driver.GlanceOptions{PassengerTurns: true})
	return sc.PassengerYaw
}

// Fig17dWiFiInterference reproduces Fig. 17d: accuracy with and
// without interfering WiFi traffic, which drops the CSI sampling rate
// from ≈500 Hz to ≈400 Hz and stretches the worst-case frame gap.
func Fig17dWiFiInterference(opt Options) (*FigureResult, error) {
	opt = opt.normalize()
	r := &FigureResult{
		ID:         "fig17d",
		Title:      "Accuracy w/ and w/o nearby WiFi traffic",
		PaperClaim: "sampling 500→400 Hz, max gap 34→49 ms; median degrades to ≈10°",
	}
	for _, interfered := range []bool{false, true} {
		interfered := interfered
		errs, last, err := pooled(opt, func(o Options) (*RunResult, error) {
			env, prof, err := profiledEnv(cabin.DefaultConfig(), driver.DriverA(), o)
			if err != nil {
				return nil, err
			}
			if interfered {
				env.Timing = wifi.InterferedTiming()
			}
			sc := sweepAt(driver.DriverA(), o.RuntimeS, 115, geom.Vec3{}, stats.NewRNG(o.Seed+28))
			return env.Track(prof, sc, TrackOptions{Pipeline: o.pipeline()})
		})
		if err != nil {
			return nil, err
		}
		name := "w/o WiFi interference"
		if interfered {
			name = "w/ WiFi interference"
		}
		r.Series = append(r.Series, cdfSeries(name, errs))
		r.note("%s: median %.1f°, sampling %.0f Hz, max gap %.0f ms", name,
			stats.Median(errs), last.SampleRateHz, last.MaxGapS*1000)
	}
	return r, nil
}

// SamplingRate reproduces the Sec. 5 headline: ViHOT samples at
// ≥400 Hz, more than 10× a 30 FPS camera.
func SamplingRate(opt Options) (*FigureResult, error) {
	opt = opt.normalize()
	rng := stats.NewRNG(opt.Seed)
	r := &FigureResult{
		ID:         "sampling",
		Title:      "CSI sampling rate vs camera frame rate",
		PaperClaim: "≈500 Hz clean, ≈400 Hz interfered; >10× a 30 FPS camera",
	}
	for _, c := range []struct {
		name   string
		timing wifi.TimingModel
	}{
		{"clean link", wifi.CleanTiming()},
		{"interfered link", wifi.InterferedTiming()},
	} {
		ts := c.timing.ArrivalTimes(rng.Fork(), 30)
		rate := float64(len(ts)-1) / (ts[len(ts)-1] - ts[0])
		var gap float64
		for i := 1; i < len(ts); i++ {
			if g := ts[i] - ts[i-1]; g > gap {
				gap = g
			}
		}
		r.Series = append(r.Series, Series{Name: c.name, X: []float64{0}, Y: []float64{rate}})
		r.note("%s: %.0f Hz, max gap %.1f ms (%.1f× a 30 FPS camera)",
			c.name, rate, gap*1000, rate/30)
	}
	cam := camera.NewTracker(rng.Fork())
	r.note("camera baseline: %.0f FPS, %.0f ms processing latency",
		1/cam.FrameInterval(), cam.Latency()*1000)
	return r, nil
}

// ProfilingOverhead reproduces the Sec. 3.3 claim: a 10-position
// profile is collected within ≈100 seconds.
func ProfilingOverhead(opt Options) (*FigureResult, error) {
	opt = opt.normalize()
	env, err := NewEnv(cabin.DefaultConfig(), opt.Seed)
	if err != nil {
		return nil, err
	}
	po := DefaultProfileOptions()
	prof, dur, err := env.CollectProfile(driver.DriverA(), po)
	if err != nil {
		return nil, err
	}
	r := &FigureResult{
		ID:         "profiling",
		Title:      "Profiling overhead",
		PaperClaim: "10 positions profiled within ≈100 s",
	}
	r.Series = append(r.Series, Series{Name: "profiling seconds", X: []float64{0}, Y: []float64{dur}})
	r.note("%d positions in %.0f s (%d grid samples)", len(prof.Positions), dur, prof.GridSamples())
	return r, nil
}

// Generator pairs a figure ID with its generator function.
type Generator struct {
	ID  string
	Run func(Options) (*FigureResult, error)
}

// Generators lists every reproduced figure in paper order.
func Generators() []Generator {
	return []Generator{
		{"fig02", Fig02HeadAxes},
		{"fig03", Fig03PhaseVsOrientation},
		{"fig08", Fig08Steering},
		{"fig10", Fig10Prediction},
		{"fig11", Fig11LayoutCurves},
		{"fig12", Fig12AntennaPlacement},
		{"fig13a", Fig13aProfilingInterval},
		{"fig13b", Fig13bWindowSize},
		{"fig13c", Fig13cTurnSpeed},
		{"fig13d", Fig13dDrivers},
		{"fig14", Fig14SpeedCurves},
		{"fig15", Fig15MicroMotions},
		{"fig16", Fig16AntennaVibration},
		{"fig17a", Fig17aVibration},
		{"fig17b", Fig17bSteeringIdentifier},
		{"fig17c", Fig17cPassenger},
		{"fig17d", Fig17dWiFiInterference},
		{"sampling", SamplingRate},
		{"profiling", ProfilingOverhead},
	}
}
