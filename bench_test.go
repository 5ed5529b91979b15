// Benchmarks that regenerate every table and figure of the paper's
// evaluation (Sec. 5), plus ablations of ViHOT's design choices and
// microbenchmarks of the hot paths.
//
// The figure benches run a full simulated experiment per iteration, so
// run them with a bounded iteration count:
//
//	go test -bench=Benchmark -benchtime=1x -benchmem
//
// Each figure bench reports the headline accuracy metric via
// b.ReportMetric (median °, shown as median-deg).
package vihot_test

import (
	"fmt"
	"math"
	"testing"

	"vihot/internal/cabin"
	"vihot/internal/core"
	"vihot/internal/csi"
	"vihot/internal/driver"
	"vihot/internal/dsp"
	"vihot/internal/dtw"
	"vihot/internal/experiment"
	"vihot/internal/geom"
	"vihot/internal/serve"
	"vihot/internal/stats"
	"vihot/internal/wifi"
)

// benchOpt scales figure experiments for benchmarking.
func benchOpt() experiment.Options {
	o := experiment.Quick()
	o.Seed = 7
	return o
}

// figureBench runs one figure generator per iteration and reports the
// median of the last series' samples when the figure carries CDFs.
func figureBench(b *testing.B, gen func(experiment.Options) (*experiment.FigureResult, error)) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		r, err := gen(benchOpt())
		if err != nil {
			b.Fatal(err)
		}
		if med, ok := medianFromCDF(r); ok {
			b.ReportMetric(med, "median-deg")
		}
	}
}

// medianFromCDF extracts the x value at p=0.5 from the last CDF-like
// series of a figure, if any.
func medianFromCDF(r *experiment.FigureResult) (float64, bool) {
	for i := len(r.Series) - 1; i >= 0; i-- {
		s := r.Series[i]
		if len(s.X) == 0 || len(s.X) != len(s.Y) {
			continue
		}
		// CDF series have Y spanning 0..1 monotonically.
		if s.Y[0] != 0 || s.Y[len(s.Y)-1] != 1 {
			continue
		}
		for k := range s.Y {
			if s.Y[k] >= 0.5 {
				return s.X[k], true
			}
		}
	}
	return 0, false
}

// --- One bench per paper figure/table -------------------------------

func BenchmarkFig02HeadAxes(b *testing.B) { figureBench(b, experiment.Fig02HeadAxes) }
func BenchmarkFig03PhaseVsOrientation(b *testing.B) {
	figureBench(b, experiment.Fig03PhaseVsOrientation)
}
func BenchmarkFig08SteeringPhase(b *testing.B)     { figureBench(b, experiment.Fig08Steering) }
func BenchmarkFig10PredictionHorizon(b *testing.B) { figureBench(b, experiment.Fig10Prediction) }
func BenchmarkFig11LayoutCurves(b *testing.B)      { figureBench(b, experiment.Fig11LayoutCurves) }
func BenchmarkFig12AntennaPlacement(b *testing.B)  { figureBench(b, experiment.Fig12AntennaPlacement) }
func BenchmarkFig13aProfilingInterval(b *testing.B) {
	figureBench(b, experiment.Fig13aProfilingInterval)
}
func BenchmarkFig13bWindowSize(b *testing.B) { figureBench(b, experiment.Fig13bWindowSize) }
func BenchmarkFig13cTurnSpeed(b *testing.B)  { figureBench(b, experiment.Fig13cTurnSpeed) }
func BenchmarkFig13dDrivers(b *testing.B)    { figureBench(b, experiment.Fig13dDrivers) }
func BenchmarkFig14SpeedCurves(b *testing.B) { figureBench(b, experiment.Fig14SpeedCurves) }
func BenchmarkFig15MicroMotions(b *testing.B) {
	figureBench(b, experiment.Fig15MicroMotions)
}
func BenchmarkFig16AntennaVibration(b *testing.B) {
	figureBench(b, experiment.Fig16AntennaVibration)
}
func BenchmarkFig17aVibration(b *testing.B) { figureBench(b, experiment.Fig17aVibration) }
func BenchmarkFig17bSteeringIdentifier(b *testing.B) {
	figureBench(b, experiment.Fig17bSteeringIdentifier)
}
func BenchmarkFig17cPassenger(b *testing.B) { figureBench(b, experiment.Fig17cPassenger) }
func BenchmarkFig17dWiFiInterference(b *testing.B) {
	figureBench(b, experiment.Fig17dWiFiInterference)
}
func BenchmarkSamplingRate(b *testing.B)      { figureBench(b, experiment.SamplingRate) }
func BenchmarkProfilingOverhead(b *testing.B) { figureBench(b, experiment.ProfilingOverhead) }

// --- Shared fixtures for ablations and hot-path benches --------------

type fixture struct {
	env     *experiment.Env
	profile *core.Profile
	phases  dsp.Series
	truth   *driver.Scenario
}

func newFixture(b *testing.B) *fixture {
	b.Helper()
	env, err := experiment.NewEnv(cabin.DefaultConfig(), 7)
	if err != nil {
		b.Fatal(err)
	}
	popt := experiment.DefaultProfileOptions()
	popt.PerPositionS = 5
	profile, _, err := env.CollectProfile(driver.DriverA(), popt)
	if err != nil {
		b.Fatal(err)
	}
	sc, _ := driver.SweepScenario(driver.DriverA(), 1, 15, 115)
	phases, err := env.PhaseSeries(sc)
	if err != nil {
		b.Fatal(err)
	}
	return &fixture{env: env, profile: profile, phases: phases, truth: sc}
}

// trackWith replays the fixture's phase stream through a tracker
// config and returns the median error.
func (f *fixture) trackWith(b *testing.B, cfg core.Config) float64 {
	b.Helper()
	tk, err := core.NewTracker(f.profile, cfg)
	if err != nil {
		b.Fatal(err)
	}
	var errs []float64
	for _, s := range f.phases {
		if est, ok := tk.Push(s.T, s.V); ok {
			errs = append(errs, geom.AngleDistDeg(est.Yaw, f.truth.HeadYaw.At(est.Time)))
		}
	}
	return stats.Median(errs)
}

// --- Ablations of design choices (DESIGN.md Sec. 4) ------------------

// BenchmarkAblationPointMappingVsDTW compares the naive single-point
// mapping the paper rejects in Sec. 3.4.2 (Eq. 5: nearest phase value
// in the profile → its orientation) against the full DTW matcher.
func BenchmarkAblationPointMappingVsDTW(b *testing.B) {
	f := newFixture(b)
	for i := 0; i < b.N; i++ {
		// Naive point mapping on the same stream.
		pos := f.profile.Positions[len(f.profile.Positions)/2]
		var naive []float64
		for _, s := range f.phases {
			bestK, bestD := 0, math.Inf(1)
			for k, phi := range pos.PhiGrid {
				if d := math.Abs(geom.PhaseDiff(phi, s.V)); d < bestD {
					bestK, bestD = k, d
				}
			}
			naive = append(naive, geom.AngleDistDeg(pos.ThetaGrid[bestK], f.truth.HeadYaw.At(s.T)))
		}
		naiveMed := stats.Median(naive)

		cfg := core.DefaultConfig()
		cfg.EstimateEveryS = 0.02
		dtwMed := f.trackWith(b, cfg)

		b.ReportMetric(naiveMed, "naive-median-deg")
		b.ReportMetric(dtwMed, "dtw-median-deg")
	}
}

// BenchmarkAblationCandidateLengths compares Algorithm 1's
// [0.5W, 2W] candidate-length range against a fixed-length match,
// isolating the value of speed-mismatch tolerance.
func BenchmarkAblationCandidateLengths(b *testing.B) {
	f := newFixture(b)
	for i := 0; i < b.N; i++ {
		fixed := core.DefaultConfig()
		fixed.EstimateEveryS = 0.02
		fixed.RatioLo, fixed.RatioHi = 1, 1 // only Lm == W
		fixedMed := f.trackWith(b, fixed)

		ranged := core.DefaultConfig()
		ranged.EstimateEveryS = 0.02
		rangedMed := f.trackWith(b, ranged)

		b.ReportMetric(fixedMed, "fixed-median-deg")
		b.ReportMetric(rangedMed, "ranged-median-deg")
	}
}

// BenchmarkAblationPositionEstimation compares the two-level design
// (position lock via Eq. 4 + shortlist) against an oracle that knows
// the head position and against no position logic at all (always
// position 0).
func BenchmarkAblationPositionEstimation(b *testing.B) {
	f := newFixture(b)
	center := len(f.profile.Positions) / 2
	for i := 0; i < b.N; i++ {
		// Full two-level design.
		full := core.DefaultConfig()
		full.EstimateEveryS = 0.02
		fullMed := f.trackWith(b, full)

		// Oracle position: rescans off and the stability detector made
		// unsatisfiable so nothing ever overrides the pinned position.
		oracleCfg := core.DefaultConfig()
		oracleCfg.EstimateEveryS = 0.02
		oracleCfg.RescanEveryS = -1
		oracleCfg.StableStd = 1e-12
		tk, err := core.NewTracker(f.profile, oracleCfg)
		if err != nil {
			b.Fatal(err)
		}
		tk.SetPosition(center)
		var errs []float64
		for _, s := range f.phases {
			if est, ok := tk.Push(s.T, s.V); ok {
				errs = append(errs, geom.AngleDistDeg(est.Yaw, f.truth.HeadYaw.At(est.Time)))
			}
		}
		oracleMed := stats.Median(errs)

		b.ReportMetric(fullMed, "twolevel-median-deg")
		b.ReportMetric(oracleMed, "oracle-median-deg")
	}
}

// BenchmarkAblationSubcarrierAveraging isolates Eq. (3)'s across-
// subcarrier averaging: sanitizing with all 30 subcarriers versus just
// one.
func BenchmarkAblationSubcarrierAveraging(b *testing.B) {
	rng := stats.NewRNG(3)
	scene, err := cabin.NewScene(cabin.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	hw30 := csi.DefaultHardware(rng.Fork())
	hw1 := csi.DefaultHardware(rng.Fork())
	var buf [][]complex128
	for i := 0; i < b.N; i++ {
		var noise30, noise1 []float64
		st := cabin.State{HeadPos: cabin.DriverHeadBase}
		var prev30, prev1 float64
		for k := 0; k < 400; k++ {
			buf = scene.CleanCSI(st, buf)
			f30 := hw30.Corrupt(0, buf)
			phi30, err := csi.Sanitize(f30, 0, 1)
			if err != nil {
				b.Fatal(err)
			}
			one := [][]complex128{buf[0][:1], buf[1][:1]}
			f1 := hw1.Corrupt(0, one)
			phi1, err := csi.Sanitize(f1, 0, 1)
			if err != nil {
				b.Fatal(err)
			}
			if k > 0 {
				noise30 = append(noise30, math.Abs(geom.PhaseDiff(phi30, prev30)))
				noise1 = append(noise1, math.Abs(geom.PhaseDiff(phi1, prev1)))
			}
			prev30, prev1 = phi30, phi1
		}
		b.ReportMetric(stats.Mean(noise30)*1000, "noise30-mrad")
		b.ReportMetric(stats.Mean(noise1)*1000, "noise1-mrad")
	}
}

// --- Hot-path microbenchmarks ----------------------------------------

func BenchmarkDTWDistance(b *testing.B) {
	m := dtw.NewMatcher(128)
	q := make([]float64, 10)
	p := make([]float64, 20)
	for i := range q {
		q[i] = math.Sin(float64(i) * 0.3)
	}
	for i := range p {
		p[i] = math.Sin(float64(i) * 0.15)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Distance(q, p, dtw.Options{Window: 8, Circular: true}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDTWSubsequenceSearch(b *testing.B) {
	m := dtw.NewMatcher(256)
	q := make([]float64, 10)
	profile := make([]float64, 800)
	for i := range q {
		q[i] = math.Sin(float64(i) * 0.3)
	}
	for i := range profile {
		profile[i] = math.Sin(float64(i) * 0.04)
	}
	lengths := dtw.CandidateLengths(10, 0.5, 2, 2, len(profile))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Subsequence(q, profile, lengths, 2, dtw.Options{Window: 8, Circular: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTrackerPush measures the steady-state cost of one CSI
// sample through the tracker (most pushes do not trigger a DTW
// search; every ~5th does at 500 Hz input and 100 Hz estimates).
func BenchmarkTrackerPush(b *testing.B) {
	f := newFixture(b)
	cfg := core.DefaultConfig()
	tk, err := core.NewTracker(f.profile, cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := f.phases[i%len(f.phases)]
		t := s.T + float64(i/len(f.phases))*f.phases.Duration()
		tk.Push(t, s.V)
	}
}

func BenchmarkSanitize(b *testing.B) {
	scene, err := cabin.NewScene(cabin.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	hw := csi.DefaultHardware(stats.NewRNG(1))
	buf := scene.CleanCSI(cabin.State{HeadPos: cabin.DriverHeadBase}, nil)
	frame := hw.Corrupt(0, buf)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := csi.Sanitize(frame, 0, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSceneCSI renders both antennas' clean CSI. "still" turns
// the head on rigid antennas, so the static paths repeat every frame
// and their phasors come from the scene's caches; "vibrating" shakes
// the antennas with time advancing, so every path moves and no phasor
// repeats.
func BenchmarkSceneCSI(b *testing.B) {
	vib := cabin.DefaultVibration()
	for _, bc := range []struct {
		name      string
		vibration *cabin.Vibration
	}{{"still", nil}, {"vibrating", &vib}} {
		b.Run(bc.name, func(b *testing.B) {
			cfg := cabin.DefaultConfig()
			cfg.Vibration = bc.vibration
			scene, err := cabin.NewScene(cfg)
			if err != nil {
				b.Fatal(err)
			}
			var buf [][]complex128
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				st := cabin.State{HeadPos: cabin.DriverHeadBase, HeadYaw: float64(i % 150)}
				if bc.vibration != nil {
					st.Time = float64(i) * 0.002
				}
				buf = scene.CleanCSI(st, buf)
			}
		})
	}
}

func BenchmarkResample(b *testing.B) {
	var s dsp.Series
	for t := 0.0; t < 0.1; t += 0.002 {
		s = append(s, dsp.Sample{T: t, V: math.Sin(t * 50)})
	}
	out := make([]float64, 0, 32)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		out, err = s.ResampleValuesN(10, out)
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWireEncodeDecode(b *testing.B) {
	scene, err := cabin.NewScene(cabin.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	hw := csi.DefaultHardware(stats.NewRNG(1))
	frame := hw.Corrupt(0, scene.CleanCSI(cabin.State{HeadPos: cabin.DriverHeadBase}, nil))
	buf := make([]byte, 0, 2048)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf, err = wifi.EncodeCSI(buf[:0], frame)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := wifi.Decode(buf); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Multi-session serving engine ------------------------------------

// BenchmarkSessionManager measures the sharded concurrent tracking
// engine across the shard × session grid: every session replays the
// fixture's phase stream through its own pipeline, all sessions in
// flight at once, and one iteration is "every session fully tracked".
// The frames/s metric is the aggregate ingest rate the configuration
// sustains; compare shards=1 against shards=16 for the scaling story.
func BenchmarkSessionManager(b *testing.B) {
	f := newFixture(b)
	// A 2 s slice of the sweep keeps 128-session runs tractable while
	// still exercising the DTW hot path steadily.
	stream := f.phases
	if n := len(stream); n > 1000 {
		stream = stream[:1000]
	}
	for _, shards := range []int{1, 4, 16} {
		for _, sessions := range []int{1, 16, 128} {
			name := fmt.Sprintf("shards=%d/sessions=%d", shards, sessions)
			b.Run(name, func(b *testing.B) {
				ids := make([]string, sessions)
				for i := range ids {
					ids[i] = fmt.Sprintf("s%03d", i)
				}
				frames := len(stream) * sessions
				b.ReportAllocs()
				b.ResetTimer()
				for iter := 0; iter < b.N; iter++ {
					// Queue sized to the whole run: the benchmark
					// measures sustained throughput, not shedding.
					mgr := serve.New(serve.Config{Shards: shards, QueueLen: frames + 1024})
					for _, id := range ids {
						if err := mgr.Open(id, f.profile, core.DefaultPipelineConfig()); err != nil {
							b.Fatal(err)
						}
					}
					batch := make([]serve.Item, 0, len(ids))
					for _, s := range stream {
						batch = batch[:0]
						for _, id := range ids {
							batch = append(batch, serve.Item{
								Session: id, Kind: serve.KindPhase, Time: s.T, Phi: s.V,
							})
						}
						mgr.PushBatch(batch)
					}
					mgr.Flush()
					snap := mgr.Counters().Snapshot()
					mgr.Close()
					if snap.DroppedStale != 0 {
						b.Fatalf("shed %d frames; queue sized wrong for benchmark", snap.DroppedStale)
					}
					if snap.Estimates == 0 {
						b.Fatal("no estimates produced")
					}
				}
				b.StopTimer()
				perIter := b.Elapsed().Seconds() / float64(b.N)
				if perIter > 0 {
					b.ReportMetric(float64(frames)/perIter, "frames/s")
				}
			})
		}
	}
}

// --- Extension experiments (paper Sec. 7) -----------------------------

func BenchmarkExtension5GHz(b *testing.B) { figureBench(b, experiment.Ext5GHz) }
func BenchmarkExtensionCameraFusion(b *testing.B) {
	figureBench(b, experiment.ExtCameraFusion)
}
func BenchmarkExtensionProfileUpdate(b *testing.B) {
	figureBench(b, experiment.ExtProfileUpdate)
}
func BenchmarkExtensionHeadsetSlip(b *testing.B) {
	figureBench(b, experiment.ExtHeadsetSlip)
}

// BenchmarkAblationDerivativeDTW compares value DTW (what ViHOT uses)
// against derivative (shape-only) DTW on the raw matching primitive:
// derivative matching is offset-invariant but discards the absolute
// phase level that disambiguates head positions.
func BenchmarkAblationDerivativeDTW(b *testing.B) {
	m := dtw.NewMatcher(256)
	q := make([]float64, 12)
	profile := make([]float64, 600)
	for i := range q {
		q[i] = math.Sin(float64(i)*0.3) + 0.2 // constant offset vs profile
	}
	for i := range profile {
		profile[i] = math.Sin(float64(i) * 0.05)
	}
	lengths := dtw.CandidateLengths(12, 0.5, 2, 2, len(profile))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mv, err := m.Subsequence(q, profile, lengths, 2, dtw.Options{Window: 8})
		if err != nil {
			b.Fatal(err)
		}
		md, err := m.Subsequence(q, profile, lengths, 2, dtw.Options{Window: 8, Derivative: true})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(mv.Dist, "value-dist")
		b.ReportMetric(md.Dist, "derivative-dist")
	}
}

// BenchmarkAblationSmoother compares raw per-window estimates against
// the optional Kalman-smoothed stream (an extension for AR rendering;
// the paper reports raw estimates).
func BenchmarkAblationSmoother(b *testing.B) {
	f := newFixture(b)
	for i := 0; i < b.N; i++ {
		cfg := core.DefaultConfig()
		cfg.EstimateEveryS = 0.02
		tk, err := core.NewTracker(f.profile, cfg)
		if err != nil {
			b.Fatal(err)
		}
		sm := core.NewSmoother()
		var raw, smooth []float64
		for _, s := range f.phases {
			est, ok := tk.Push(s.T, s.V)
			if !ok {
				continue
			}
			truth := f.truth.HeadYaw.At(est.Time)
			raw = append(raw, geom.AngleDistDeg(est.Yaw, truth))
			smooth = append(smooth, geom.AngleDistDeg(sm.Update(est), truth))
		}
		b.ReportMetric(stats.Median(raw), "raw-median-deg")
		b.ReportMetric(stats.Median(smooth), "smoothed-median-deg")
	}
}

func BenchmarkExtensionPitchDisturbance(b *testing.B) {
	figureBench(b, experiment.ExtPitchDisturbance)
}
