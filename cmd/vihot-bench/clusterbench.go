package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"vihot/internal/cabin"
	"vihot/internal/cluster"
	"vihot/internal/core"
	"vihot/internal/driver"
	"vihot/internal/dsp"
	"vihot/internal/experiment"
	"vihot/internal/serve"
	"vihot/internal/stats"
)

// clusterBaseline is the JSON schema of -clusterjson: serving
// throughput direct (one in-process manager, no wire), through a
// 1-node cluster (identical work plus the full routing + codec path —
// the isolated routing overhead, budgeted ≤15% in DESIGN.md §14), and
// through a 4-node cluster; plus drain-handoff latency percentiles
// measured over a loaded member.
type clusterBaseline struct {
	GoVersion  string             `json:"go_version"`
	GOMAXPROCS int                `json:"gomaxprocs"`
	NumCPU     int                `json:"num_cpu"`
	Seed       int64              `json:"seed"`
	FramesPer  int                `json:"frames_per_session"`
	Sessions   int                `json:"sessions"`
	Shards     int                `json:"shards"`
	Repeats    int                `json:"repeats"`
	Results    []clusterBenchCell `json:"results"`
	Handoff    handoffBench       `json:"handoff"`
}

type clusterBenchCell struct {
	Mode        string  `json:"mode"`  // direct | cluster-1 | cluster-4
	Nodes       int     `json:"nodes"` // 0 for direct
	Frames      int     `json:"frames"`
	Seconds     float64 `json:"seconds"`
	FramesPerS  float64 `json:"frames_per_s"`
	Estimates   uint64  `json:"estimates"`
	OverheadPct float64 `json:"overhead_pct"` // vs the direct row; 0 for direct
}

// handoffBench is the drain-latency distribution: per-session
// close→reopen wall time on a loaded 4-node cluster.
type handoffBench struct {
	Sessions  int     `json:"sessions"`
	Drained   int     `json:"drained"`
	P50Micros float64 `json:"p50_us"`
	P95Micros float64 `json:"p95_us"`
	MaxMicros float64 `json:"max_us"`
}

// runClusterBench measures the distributed tier against the
// single-process baseline on a fixed phase workload.
func runClusterBench(path string, seed int64) error {
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

	const (
		shards   = 4
		sessions = 16
		repeats  = 3
	)
	base := clusterBaseline{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Seed:       seed,
		FramesPer:  len(phases),
		Sessions:   sessions,
		Shards:     shards,
		Repeats:    repeats,
	}
	ids := make([]string, sessions)
	for i := range ids {
		ids[i] = fmt.Sprintf("s%03d", i)
	}
	// Queues sized to hold the entire run: this bench measures the
	// routing and codec cost, not the shed policy.
	queue := len(phases)*sessions + 1024
	frames := len(phases) * sessions

	// replay pushes the whole phase workload through any PushBatch
	// sink, one batch per timestep spanning every session, and returns
	// the wall seconds of the timed window (push + flush, so queued
	// work is paid for inside the window).
	replay := func(push func([]serve.Item), flush func()) float64 {
		t0 := time.Now()
		batch := make([]serve.Item, 0, sessions)
		for _, s := range phases {
			batch = batch[:0]
			for _, id := range ids {
				batch = append(batch, serve.Item{Session: id, Kind: serve.KindPhase, Time: s.T, Phi: s.V})
			}
			push(batch)
		}
		flush()
		return time.Since(t0).Seconds()
	}

	directPass := func() (clusterBenchCell, error) {
		mgr := serve.New(serve.Config{Shards: shards, QueueLen: queue})
		defer mgr.Close()
		for _, id := range ids {
			if err := mgr.Open(id, profile, core.DefaultPipelineConfig()); err != nil {
				return clusterBenchCell{}, err
			}
		}
		dt := replay(mgr.PushBatch, mgr.Flush)
		snap := mgr.Counters().Snapshot()
		if snap.Processed != uint64(frames) {
			return clusterBenchCell{}, fmt.Errorf("direct processed %d of %d items", snap.Processed, frames)
		}
		return clusterBenchCell{
			Mode: "direct", Frames: frames, Seconds: dt,
			FramesPerS: float64(frames) / dt, Estimates: snap.Estimates,
		}, nil
	}

	clusterPass := func(n int) (clusterBenchCell, error) {
		nodes := make([]string, n)
		for i := range nodes {
			nodes[i] = fmt.Sprintf("node-%d", i)
		}
		c, err := cluster.New(cluster.Config{
			Nodes: nodes,
			Serve: serve.Config{Shards: shards, QueueLen: queue},
		})
		if err != nil {
			return clusterBenchCell{}, err
		}
		defer c.Close()
		for _, id := range ids {
			if err := c.Open(id, "bench-cab", profile); err != nil {
				return clusterBenchCell{}, err
			}
		}
		dt := replay(c.PushBatch, c.Flush)
		st := c.Stats()
		if st.Delivered != uint64(frames) {
			return clusterBenchCell{}, fmt.Errorf("cluster-%d delivered %d of %d items", n, st.Delivered, frames)
		}
		// Estimates are summed from the member managers, the same count
		// the direct row reads from its one manager.
		var estimates uint64
		for _, name := range nodes {
			estimates += c.Node(name).Manager().Counters().Snapshot().Estimates
		}
		return clusterBenchCell{
			Mode: fmt.Sprintf("cluster-%d", n), Nodes: n, Frames: frames, Seconds: dt,
			FramesPerS: float64(frames) / dt, Estimates: estimates,
		}, nil
	}

	var directRate float64
	for _, mode := range []string{"direct", "cluster-1", "cluster-4"} {
		var best clusterBenchCell
		for r := 0; r < repeats; r++ {
			var cell clusterBenchCell
			var err error
			switch mode {
			case "direct":
				cell, err = directPass()
			case "cluster-1":
				cell, err = clusterPass(1)
			default:
				cell, err = clusterPass(4)
			}
			if err != nil {
				return err
			}
			if cell.FramesPerS > best.FramesPerS {
				best = cell
			}
		}
		if mode == "direct" {
			directRate = best.FramesPerS
		} else if directRate > 0 {
			best.OverheadPct = 100 * (directRate - best.FramesPerS) / directRate
		}
		base.Results = append(base.Results, best)
		fmt.Printf("%-10s %9.0f frames/s  (overhead %+.1f%%, %d estimates)\n",
			best.Mode, best.FramesPerS, best.OverheadPct, best.Estimates)
	}

	hb, err := runHandoffBench(profile, phases, shards)
	if err != nil {
		return err
	}
	base.Handoff = hb
	fmt.Printf("handoff    p50 %.0f µs  p95 %.0f µs  max %.0f µs  (%d of %d sessions drained)\n",
		hb.P50Micros, hb.P95Micros, hb.MaxMicros, hb.Drained, hb.Sessions)

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

// runHandoffBench loads a 4-node cluster with sessions mid-stream and
// drains the busiest member, timing each session's transfer: the
// close on the source and the open by key on the new owner, both over
// the wire.
func runHandoffBench(profile *core.Profile, phases dsp.Series, shards int) (handoffBench, error) {
	const sessions = 64
	warm := phases
	if len(warm) > 200 {
		warm = warm[:200]
	}
	queue := len(warm)*sessions + 1024
	c, err := cluster.New(cluster.Config{
		Nodes:          []string{"h0", "h1", "h2", "h3"},
		Serve:          serve.Config{Shards: shards, QueueLen: queue},
		MeasureHandoff: true,
	})
	if err != nil {
		return handoffBench{}, err
	}
	defer c.Close()

	ids := make([]string, sessions)
	for i := range ids {
		ids[i] = fmt.Sprintf("drv-%03d", i)
		if err := c.Open(ids[i], "bench-cab", profile); err != nil {
			return handoffBench{}, err
		}
	}
	// Warm every session mid-stream so the drain closes live
	// pipelines, not empty shells.
	batch := make([]serve.Item, 0, sessions)
	for _, s := range warm {
		batch = batch[:0]
		for _, id := range ids {
			batch = append(batch, serve.Item{Session: id, Kind: serve.KindPhase, Time: s.T, Phi: s.V})
		}
		c.PushBatch(batch)
	}
	c.Flush()

	// Drain whichever member owns the most sessions.
	load := map[string]int{}
	for _, id := range ids {
		owner, _ := c.Owner(id)
		load[owner]++
	}
	target, best := "", 0
	for n, k := range load {
		if k > best || (k == best && n < target) {
			target, best = n, k
		}
	}
	events, err := c.DrainNode(target)
	if err != nil {
		return handoffBench{}, err
	}
	if len(events) == 0 {
		return handoffBench{}, fmt.Errorf("drained %s but moved no sessions", target)
	}
	durs := make([]float64, 0, len(events))
	for _, ev := range events {
		durs = append(durs, float64(ev.DurNS)/1e3)
	}
	p50, err := stats.Percentile(durs, 50)
	if err != nil {
		return handoffBench{}, err
	}
	p95, err := stats.Percentile(durs, 95)
	if err != nil {
		return handoffBench{}, err
	}
	max := durs[0]
	for _, d := range durs[1:] {
		if d > max {
			max = d
		}
	}
	return handoffBench{
		Sessions:  sessions,
		Drained:   len(events),
		P50Micros: p50,
		P95Micros: p95,
		MaxMicros: max,
	}, nil
}
