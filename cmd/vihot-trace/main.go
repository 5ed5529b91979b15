// Command vihot-trace records, inspects, and replays ViHOT sensor
// traces — the offline workflow of the paper's prototype, where CSI
// logs from the receiver are processed after the drive.
//
// Usage:
//
//	vihot-trace record  -out drive.vht [-duration S] [-steering] [-seed N]
//	vihot-trace info    drive.vht
//	vihot-trace replay  drive.vht [-profile-seed N]
//	vihot-trace spans   spans.json [-stage NAME]
//	vihot-trace journal serve.vhj [-repair]
//
// The spans subcommand digests a latency-span dump written by
// vihot-serve -trace-out (or scraped from its /trace endpoint): for
// each pipeline stage it prints span counts and wall-latency
// percentiles, turning the raw ring into the per-stage latency budget
// the span tracer exists to answer for.
//
// The journal subcommand replays a durable journal written by
// vihot-serve -journal through the crash-recovery path and prints the
// reconstructed state: record counts, the stream-time span, the
// terminal per-session estimates/health/closure, and whether the file
// ends cleanly or in a torn record; -repair truncates a torn tail.
package main

import (
	"flag"
	"fmt"
	"os"

	"vihot"
	"vihot/internal/cabin"
	"vihot/internal/driver"
	"vihot/internal/experiment"
	"vihot/internal/geom"
	"vihot/internal/imu"
	"vihot/internal/obs"
	"vihot/internal/stats"
	"vihot/internal/trace"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "record":
		record(os.Args[2:])
	case "info":
		info(os.Args[2:])
	case "replay":
		replay(os.Args[2:])
	case "spans":
		spans(os.Args[2:])
	case "journal":
		journalCmd(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: vihot-trace record|info|replay|spans|journal [flags] [file]")
	os.Exit(2)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "vihot-trace:", err)
	os.Exit(1)
}

func record(args []string) {
	fs := flag.NewFlagSet("record", flag.ExitOnError)
	out := fs.String("out", "drive.vht", "output trace file")
	duration := fs.Float64("duration", 30, "drive seconds")
	steering := fs.Bool("steering", false, "include steering events")
	seed := fs.Int64("seed", 1, "simulation seed")
	fs.Parse(args)

	env, err := experiment.NewEnv(cabin.DefaultConfig(), *seed)
	if err != nil {
		fatal(err)
	}
	sc := driver.DrivingScenario(env.RNG.Fork(), driver.DriverA(), *duration, driver.GlanceOptions{
		Steering:       *steering,
		PositionJitter: 0.008,
	})
	rec := trace.NewRecorder(trace.Meta{
		Name:    "simulated-drive",
		Seed:    *seed,
		Comment: fmt.Sprintf("%.0fs drive, steering=%v", *duration, *steering),
	})

	phone := imu.NewPhoneIMU(env.RNG.Fork())
	nextIMU, nextTruth := 0.0, 0.0
	for _, t := range env.Timing.ArrivalTimes(env.RNG.Fork(), sc.Duration) {
		for nextIMU <= t {
			rec.IMU(phone.Sample(nextIMU, sc.CarYawRateDPS(nextIMU), sc.SpeedMPS))
			nextIMU += 0.01
		}
		for nextTruth <= t {
			rec.Truth(nextTruth, sc.HeadYaw.At(nextTruth))
			nextTruth += 1.0 / 60
		}
		phi, err := env.PhaseAt(sc.State(t))
		if err != nil {
			fatal(err)
		}
		rec.Phase(t, phi)
	}
	tr := rec.Finish()
	if err := trace.Save(*out, tr); err != nil {
		fatal(err)
	}
	fmt.Printf("recorded %s: %.0f s, %v\n", *out, tr.Meta.Duration, tr.Counts())
}

func info(args []string) {
	fs := flag.NewFlagSet("info", flag.ExitOnError)
	fs.Parse(args)
	if fs.NArg() != 1 {
		usage()
	}
	tr, err := trace.Load(fs.Arg(0))
	if err != nil {
		fatal(err)
	}
	fmt.Printf("name:     %s\n", tr.Meta.Name)
	fmt.Printf("comment:  %s\n", tr.Meta.Comment)
	fmt.Printf("seed:     %d\n", tr.Meta.Seed)
	fmt.Printf("duration: %.1f s\n", tr.Meta.Duration)
	fmt.Printf("events:   %v\n", tr.Counts())
	ps := tr.PhaseSeries()
	if len(ps) > 1 {
		fmt.Printf("CSI rate: %.0f Hz, max gap %.1f ms\n", ps.MeanRate(), ps.MaxGap()*1000)
	}
}

func replay(args []string) {
	fs := flag.NewFlagSet("replay", flag.ExitOnError)
	profileSeed := fs.Int64("profile-seed", 1, "seed for the profiling pass used to track the trace")
	fs.Parse(args)
	if fs.NArg() != 1 {
		usage()
	}
	tr, err := trace.Load(fs.Arg(0))
	if err != nil {
		fatal(err)
	}

	// Profile in the same simulated cabin, then track the trace
	// offline through the full pipeline.
	env, err := experiment.NewEnv(cabin.DefaultConfig(), *profileSeed)
	if err != nil {
		fatal(err)
	}
	profile, _, err := env.CollectProfile(driver.DriverA(), experiment.DefaultProfileOptions())
	if err != nil {
		fatal(err)
	}
	pl, err := vihot.NewPipeline(profile, vihot.DefaultPipelineConfig())
	if err != nil {
		fatal(err)
	}

	truth := tr.TruthSeries()
	var errs []float64
	tr.Replay(
		func(t, phi float64) {
			if est, ok := pl.PushCSI(t, phi); ok {
				if want, err := truth.At(est.Time); err == nil {
					errs = append(errs, geom.AngleDistDeg(est.Yaw, want))
				}
			}
		},
		func(r imu.Reading) { pl.PushIMU(r) },
		nil,
	)
	s := stats.Summarize(errs)
	fmt.Printf("replayed %d estimates: median %.1f°, mean %.1f°, p90 %.1f°, max %.1f°\n",
		s.N, s.Median, s.Mean, s.P90, s.Max)
}

// spanStageOrder lists the known stages in pipeline order, so the
// summary reads top-to-bottom the way an item flows: dwell, sanitize
// and track tile an item's time from enqueue to the pipeline's return,
// and match is the DTW interval inside track. Unknown stages (future
// instrumentation) follow in first-seen order.
var spanStageOrder = []string{"dwell", "sanitize", "match", "track"}

func spans(args []string) {
	fs := flag.NewFlagSet("spans", flag.ExitOnError)
	only := fs.String("stage", "", "restrict the summary to one stage name")
	fs.Parse(args)
	if fs.NArg() != 1 {
		usage()
	}
	f, err := os.Open(fs.Arg(0))
	if err != nil {
		fatal(err)
	}
	d, err := obs.ReadTrace(f)
	f.Close()
	if err != nil {
		fatal(err)
	}

	byStage := map[string][]float64{} // stage -> durations in ms
	sessions := map[string]bool{}
	order := append([]string(nil), spanStageOrder...)
	for _, sp := range d.Spans {
		if *only != "" && sp.Stage != *only {
			continue
		}
		if _, seen := byStage[sp.Stage]; !seen {
			known := false
			for _, s := range order {
				if s == sp.Stage {
					known = true
					break
				}
			}
			if !known {
				order = append(order, sp.Stage)
			}
		}
		byStage[sp.Stage] = append(byStage[sp.Stage], float64(sp.DurNS)*1e-6)
		if sp.Session != "" {
			sessions[sp.Session] = true
		}
	}

	fmt.Printf("%d spans held (%d recorded, %d overwritten), %d sessions\n\n",
		len(d.Spans), d.Recorded, d.Overwritten, len(sessions))
	fmt.Printf("%-10s %8s %9s %9s %9s %9s %9s\n",
		"stage", "count", "mean-ms", "p50-ms", "p90-ms", "p99-ms", "max-ms")
	for _, stage := range order {
		ds := byStage[stage]
		if len(ds) == 0 {
			continue
		}
		s := stats.Summarize(ds)
		p99, _ := stats.Percentile(ds, 99)
		fmt.Printf("%-10s %8d %9.4f %9.4f %9.4f %9.4f %9.4f\n",
			stage, s.N, s.Mean, s.Median, s.P90, p99, s.Max)
	}
}
