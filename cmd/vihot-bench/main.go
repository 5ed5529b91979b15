// Command vihot-bench regenerates every table and figure of the
// paper's evaluation section (Sec. 5) against the simulated substrate
// and prints paper-vs-measured summaries.
//
// Usage:
//
//	vihot-bench [-quick] [-seed N] [-only figID] [-runtime S]
//
// The full run uses the paper's experiment scale (10×8 s profiling,
// 60 s test runs per condition) and takes several minutes; -quick
// scales everything down ≈4× for a fast sanity pass.
package main

import (
	"encoding/csv"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"vihot/internal/cabin"
	"vihot/internal/core"
	"vihot/internal/driver"
	"vihot/internal/experiment"
	"vihot/internal/serve"
	"vihot/internal/wifi"
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
	serveJSON := flag.String("servejson", "", "run the session-manager scaling matrix and write a JSON baseline to this path (skips the figure benches)")
	obsJSON := flag.String("obsjson", "", "run the observability overhead benchmark (serve throughput with obs off vs on) and write JSON to this path (skips the figure benches)")
	journalJSON := flag.String("journaljson", "", "run the durable-journal overhead benchmark (serve throughput with journaling off vs group-commit vs fsync-per-record) and write JSON to this path (skips the figure benches)")
	clusterJSON := flag.String("clusterjson", "", "run the cluster routing benchmark (direct vs 1-node vs 4-node throughput, drain-handoff latency) and write JSON to this path (skips the figure benches)")
	profileJSON := flag.String("profilejson", "", "run the profile-store benchmark (cold load, hot hit, 64-way contention, policy churn grid) and write JSON to this path (skips the figure benches)")
	profilePolicy := flag.String("profile-policy", "all", "churn-grid eviction policies for -profilejson: \"all\" or a comma list of lru,lfu")
	profileAdmission := flag.String("profile-admission", "both", "churn-grid doorkeeper axis for -profilejson: both, on, or off")
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
		if err := runProfileBench(*profileJSON, *seed, *profilePolicy, *profileAdmission); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	if *serveJSON != "" {
		if err := runServeBench(*serveJSON, *seed); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	if *obsJSON != "" {
		if err := runObsBench(*obsJSON, *seed); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	if *journalJSON != "" {
		if err := runJournalBench(*journalJSON, *seed); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	if *clusterJSON != "" {
		if err := runClusterBench(*clusterJSON, *seed); err != nil {
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

	want := map[string]bool{}
	for _, id := range strings.Split(*only, ",") {
		if id = strings.TrimSpace(id); id != "" {
			want[id] = true
		}
	}

	fmt.Printf("ViHOT evaluation reproduction (seed %d, %s mode)\n\n",
		*seed, map[bool]string{true: "quick", false: "full"}[*quick])

	start := time.Now()
	gens := experiment.Generators()
	if *ext {
		gens = append(gens, experiment.ExtensionGenerators()...)
	}
	for _, g := range gens {
		if len(want) > 0 && !want[g.ID] {
			continue
		}
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

// serveBaseline is the JSON schema of -servejson: one throughput
// record per (shards, sessions) cell so later PRs can diff the perf
// trajectory of the serving engine.
type serveBaseline struct {
	GoVersion    string              `json:"go_version"`
	GOMAXPROCS   int                 `json:"gomaxprocs"`
	NumCPU       int                 `json:"num_cpu"`
	Seed         int64               `json:"seed"`
	FramesPer    int                 `json:"frames_per_session"`
	Note         string              `json:"note,omitempty"`
	Results      []serveBenchCell    `json:"results"`
	PooledIngest *pooledIngestResult `json:"pooled_ingest,omitempty"`
}

// pooledIngestResult compares the wire→pipeline ingest path with heap
// frame decoding (wifi.Decode, frame dropped to GC after processing)
// against pooled decoding (wifi.DecodePooled + Config.RecycleFrames):
// end-to-end allocations and bytes per CSI datagram.
type pooledIngestResult struct {
	Frames              int     `json:"frames"`
	HeapAllocsPerFrame  float64 `json:"heap_allocs_per_frame"`
	PoolAllocsPerFrame  float64 `json:"pooled_allocs_per_frame"`
	HeapBytesPerFrame   float64 `json:"heap_bytes_per_frame"`
	PoolBytesPerFrame   float64 `json:"pooled_bytes_per_frame"`
	AllocsSavedPerFrame float64 `json:"allocs_saved_per_frame"`
}

type serveBenchCell struct {
	Shards     int     `json:"shards"`
	Sessions   int     `json:"sessions"`
	Frames     int     `json:"frames"`
	Seconds    float64 `json:"seconds"`
	FramesPerS float64 `json:"frames_per_s"`
	Estimates  uint64  `json:"estimates"`
	Dropped    uint64  `json:"dropped"`
}

// runServeBench drives the session-manager scaling matrix (the
// BenchmarkSessionManager grid) outside the testing harness and
// records the baseline JSON for the perf trajectory.
func runServeBench(path string, seed int64) error {
	start := time.Now()
	env, err := experiment.NewEnv(cabin.DefaultConfig(), seed)
	if err != nil {
		return err
	}
	popt := experiment.DefaultProfileOptions()
	popt.Positions = 5
	popt.PerPositionS = 5
	profile, _, err := env.CollectProfile(driver.DriverA(), popt)
	if err != nil {
		return err
	}
	sc, _ := driver.SweepScenario(driver.DriverA(), 1, 10, 115)
	phases, err := env.PhaseSeries(sc)
	if err != nil {
		return err
	}
	if len(phases) > 1000 {
		phases = phases[:1000]
	}

	base := serveBaseline{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Seed:       seed,
		FramesPer:  len(phases),
	}
	if base.NumCPU <= 1 {
		base.Note = "single-CPU host: shard scaling cannot improve wall clock here; frames/s is a per-core throughput baseline"
	}
	for _, shards := range []int{1, 4, 16} {
		for _, sessions := range []int{1, 16, 128} {
			frames := len(phases) * sessions
			mgr := serve.New(serve.Config{Shards: shards, QueueLen: frames + 1024})
			ids := make([]string, sessions)
			for i := range ids {
				ids[i] = fmt.Sprintf("s%03d", i)
				if err := mgr.Open(ids[i], profile, core.DefaultPipelineConfig()); err != nil {
					return err
				}
			}
			t0 := time.Now()
			batch := make([]serve.Item, 0, sessions)
			for _, s := range phases {
				batch = batch[:0]
				for _, id := range ids {
					batch = append(batch, serve.Item{Session: id, Kind: serve.KindPhase, Time: s.T, Phi: s.V})
				}
				mgr.PushBatch(batch)
			}
			mgr.Flush()
			dt := time.Since(t0).Seconds()
			snap := mgr.Counters().Snapshot()
			mgr.Close()
			cell := serveBenchCell{
				Shards: shards, Sessions: sessions, Frames: frames,
				Seconds: dt, FramesPerS: float64(frames) / dt,
				Estimates: snap.Estimates, Dropped: snap.DroppedStale,
			}
			base.Results = append(base.Results, cell)
			fmt.Printf("shards=%-3d sessions=%-4d  %8.0f frames/s  (%d estimates, %d dropped)\n",
				shards, sessions, cell.FramesPerS, cell.Estimates, cell.Dropped)
		}
	}
	pi, err := runPooledIngest(env, profile)
	if err != nil {
		return err
	}
	base.PooledIngest = pi
	fmt.Printf("pooled ingest: %.1f allocs/frame (heap %.1f, saved %.1f), %.0f B/frame (heap %.0f)\n",
		pi.PoolAllocsPerFrame, pi.HeapAllocsPerFrame, pi.AllocsSavedPerFrame,
		pi.PoolBytesPerFrame, pi.HeapBytesPerFrame)

	blob, err := json.MarshalIndent(base, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(blob, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s in %.0f s\n", path, time.Since(start).Seconds())
	return nil
}

// runPooledIngest measures the full datagram→estimate ingest path —
// decode each pre-encoded CSI datagram, push it through a
// deterministic manager, let the pipeline process it — once with heap
// frames and once with pooled frames, and reports the per-frame
// allocation delta. Datagrams are encoded up front so only the decode
// and serve layers sit inside the measured window.
func runPooledIngest(env *experiment.Env, profile *core.Profile) (*pooledIngestResult, error) {
	sc, _ := driver.SweepScenario(driver.DriverA(), 1, 10, 115)
	const frames = 2000
	datagrams := make([][]byte, 0, frames)
	for i := 0; i < frames; i++ {
		// FrameAt reuses one scratch frame, so each datagram is encoded
		// before the next overwrite.
		t := float64(i) * 0.005
		b, err := wifi.EncodeCSI(nil, env.FrameAt(sc.State(t)))
		if err != nil {
			return nil, err
		}
		datagrams = append(datagrams, b)
	}
	measure := func(pooled bool) (allocsPer, bytesPer float64, err error) {
		mgr := serve.New(serve.Config{Deterministic: true, RecycleFrames: pooled})
		defer mgr.Close()
		if err := mgr.Open("ingest", profile, core.DefaultPipelineConfig()); err != nil {
			return 0, 0, err
		}
		dec := wifi.Decode
		if pooled {
			dec = wifi.DecodePooled
		}
		// Warm the session and (in pooled mode) the frame pool so the
		// measured window is steady-state, then measure the rest.
		const warm = 64
		for _, b := range datagrams[:warm] {
			pkt, err := dec(b)
			if err != nil {
				return 0, 0, err
			}
			mgr.Push(serve.Item{Session: "ingest", Kind: serve.KindFrame, Frame: pkt.CSI})
		}
		var m0, m1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m0)
		for _, b := range datagrams[warm:] {
			pkt, err := dec(b)
			if err != nil {
				return 0, 0, err
			}
			mgr.Push(serve.Item{Session: "ingest", Kind: serve.KindFrame, Frame: pkt.CSI})
		}
		runtime.ReadMemStats(&m1)
		n := float64(len(datagrams) - warm)
		return float64(m1.Mallocs-m0.Mallocs) / n, float64(m1.TotalAlloc-m0.TotalAlloc) / n, nil
	}
	heapA, heapB, err := measure(false)
	if err != nil {
		return nil, err
	}
	poolA, poolB, err := measure(true)
	if err != nil {
		return nil, err
	}
	return &pooledIngestResult{
		Frames:              frames,
		HeapAllocsPerFrame:  heapA,
		PoolAllocsPerFrame:  poolA,
		HeapBytesPerFrame:   heapB,
		PoolBytesPerFrame:   poolB,
		AllocsSavedPerFrame: heapA - poolA,
	}, nil
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
