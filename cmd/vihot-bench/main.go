// Command vihot-bench regenerates every table and figure of the
// paper's evaluation section (Sec. 5) against the simulated substrate
// and prints paper-vs-measured summaries.
//
// Usage:
//
//	vihot-bench [-quick] [-seed N] [-only figID] [-runtime S]
//	vihot-bench -scenarios all|name:weight,... [-scenario-sessions N] [-scenario-det]
//	vihot-bench -profilejson BENCH_profilestore.json
//
// The full run uses the paper's experiment scale (10×8 s profiling,
// 60 s test runs per condition) and takes several minutes; -quick
// scales everything down ≈4× for a fast sanity pass. -scenarios
// replays a weighted scenario mix and reports per-scenario accuracy;
// -profilejson replays the profile store's LRU churn traces; its load,
// hit and contention timings are go test -bench BenchmarkStore in
// internal/profilestore. An -only ID that names no figure, an
// extension ID without -ext, a negative or non-finite -runtime or
// -estimate and a negative -repeats are refused before anything runs.
// Serving latency, CPU and allocation per frame, and the cost of the
// journal and the observability layer are measured open loop by the
// fleet benchmark (fleetbench/README.md), not here.
package main

import (
	"encoding/csv"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"vihot/internal/experiment"
)

func main() {
	quick := flag.Bool("quick", false, "scaled-down experiments (~4x faster)")
	seed := flag.Int64("seed", 1, "deterministic experiment seed")
	only := flag.String("only", "", "comma-separated figure IDs to run (e.g. fig10,fig12)")
	runtime := flag.Float64("runtime", 0, "override run-time seconds per condition")
	repeats := flag.Int("repeats", 0, "sessions pooled per accuracy condition (default: 3 full, 1 quick)")
	ext := flag.Bool("ext", false, "also run the Sec. 7 extension experiments")
	csvDir := flag.String("csv", "", "also write each figure's series to <dir>/<figID>.csv")
	list := flag.Bool("list", false, "list figure IDs and exit")
	estimate := flag.Float64("estimate", 0, "tracker estimate cadence in seconds (0 = config default)")
	profileJSON := flag.String("profilejson", "", "replay the profile store's LRU churn traces and write JSON to this path (skips the figure benches)")
	scenarios := flag.String("scenarios", "", "replay a weighted scenario mix through the session manager: \"all\" or \"name:weight,...\" (skips the figure benches)")
	scenarioSessions := flag.Int("scenario-sessions", 8, "total session count for -scenarios, apportioned across the mix by weight")
	scenarioSeconds := flag.Float64("scenario-seconds", 0, "override every -scenarios scenario's duration (0 = corpus defaults)")
	scenarioDet := flag.Bool("scenario-det", false, "run -scenarios in deterministic mode (bit-identical reports, single-threaded replay)")
	scenarioMetrics := flag.String("scenario-metrics", "", "write the -scenarios run's Prometheus exposition (vihot_scenario_* and vihot_serve_*) to this path")
	scenarioJSON := flag.String("scenario-json", "", "write the -scenarios run's report JSON to this path")
	flag.Parse()

	if *scenarios != "" {
		err := runScenarioBench(*scenarios, *scenarioSessions, *scenarioSeconds, *scenarioDet, *scenarioMetrics, *scenarioJSON)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	if *profileJSON != "" {
		if err := runProfileBench(*profileJSON, *seed); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	if *list {
		for _, g := range experiment.Generators() {
			fmt.Println(g.ID)
		}
		for _, g := range experiment.ExtensionGenerators() {
			fmt.Println(g.ID, "(requires -ext)")
		}
		return
	}

	gens, err := figurePlan(*only, *ext, *runtime, *estimate, *repeats)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	opt := experiment.DefaultOptions()
	if *quick {
		opt = experiment.Quick()
	}
	opt.Seed = *seed
	if *runtime > 0 {
		opt.RuntimeS = *runtime
	}
	if *repeats > 0 {
		opt.Repeats = *repeats
	} else if !*quick {
		opt.Repeats = 3
	}
	if *estimate > 0 {
		opt.EstimateEveryS = *estimate
	}

	fmt.Printf("ViHOT evaluation reproduction (seed %d, %s mode)\n\n",
		*seed, map[bool]string{true: "quick", false: "full"}[*quick])

	start := time.Now()
	for _, g := range gens {
		r, err := g.Run(opt)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", g.ID, err)
			os.Exit(1)
		}
		r.Render(os.Stdout)
		if *csvDir != "" {
			if err := writeCSV(*csvDir, r); err != nil {
				fmt.Fprintf(os.Stderr, "csv %s: %v\n", g.ID, err)
				os.Exit(1)
			}
		}
	}
	fmt.Printf("done in %.0f s\n", time.Since(start).Seconds())
}

// figurePlan picks the figure generators to run, in paper order. It
// refuses, before any work runs, what would otherwise run nothing or
// quietly fall back to a default: an -only ID that names no figure, an
// extension ID without -ext, a negative or non-finite -runtime or
// -estimate (0 keeps the default), and a negative -repeats.
func figurePlan(only string, ext bool, runtimeS, estimateS float64, repeats int) ([]experiment.Generator, error) {
	for _, f := range []struct {
		name string
		v    float64
	}{{"-runtime", runtimeS}, {"-estimate", estimateS}} {
		if !(f.v >= 0) || math.IsInf(f.v, 1) {
			return nil, fmt.Errorf("%s must be a finite number of seconds ≥ 0 (0 keeps the default), got %v", f.name, f.v)
		}
	}
	if repeats < 0 {
		return nil, fmt.Errorf("-repeats must be ≥ 0 (0 keeps the default), got %d", repeats)
	}
	gens := experiment.Generators()
	extGens := experiment.ExtensionGenerators()
	if ext {
		gens = append(gens, extGens...)
	}
	want := map[string]bool{}
	for _, id := range strings.Split(only, ",") {
		if id = strings.TrimSpace(id); id != "" {
			want[id] = true
		}
	}
	if len(want) == 0 {
		return gens, nil
	}
	var picked []experiment.Generator
	for _, g := range gens {
		if want[g.ID] {
			picked = append(picked, g)
			delete(want, g.ID)
		}
	}
	for _, g := range extGens {
		if want[g.ID] {
			return nil, fmt.Errorf("-only %s: an extension experiment, requires -ext", g.ID)
		}
	}
	for id := range want {
		return nil, fmt.Errorf("-only %s: no such figure (see -list)", id)
	}
	return picked, nil
}

// writeCSV dumps a figure's series as rows of (series, x, y) for
// external plotting.
func writeCSV(dir string, r *experiment.FigureResult) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, r.ID+".csv"))
	if err != nil {
		return err
	}
	defer f.Close()
	w := csv.NewWriter(f)
	if err := w.Write([]string{"series", "x", "y"}); err != nil {
		return err
	}
	for _, s := range r.Series {
		for i := range s.X {
			rec := []string{
				s.Name,
				strconv.FormatFloat(s.X[i], 'g', -1, 64),
				strconv.FormatFloat(s.Y[i], 'g', -1, 64),
			}
			if err := w.Write(rec); err != nil {
				return err
			}
		}
	}
	w.Flush()
	return w.Error()
}
