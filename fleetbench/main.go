// Command fleetbench is the serving stack's open-loop fleet benchmark.
// It replays the scenario corpus at the link's real-time pace into a
// serve.Manager from one receive-loop goroutine, times every estimate
// from the instant its frame was due, scores it against the ground
// truth at the instant it was emitted, and checks the manager's and
// the journal's books. See README.md.
//
// Usage:
//
//	fleetbench -workload cabin-fleet|road-facing|overload|all -seed N -seconds S -trace 0|1 [-out FILE]
//	fleetbench -compare [-bench BENCHMARK.json] old.jsonl new.jsonl
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// setupReps is how many times a run builds its inputs; setup_s is the
// median.
const setupReps = 3

// layerTrips is how many trips the traced layer replay covers.
const layerTrips = 3

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("fleetbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "cabin-fleet, road-facing, overload, or all")
	seed := fs.Int64("seed", 1, "input seed: every scenario config, stream and schedule derive from it")
	seconds := fs.Int("seconds", 10, "measured window per run, seconds")
	trace := fs.Int("trace", 0, "1 prints the per-layer metrics of a traced run instead of the end-to-end ones")
	out := fs.String("out", "", "append each result as a JSON line to this file, for -compare")
	compare := fs.Bool("compare", false, "compare two -out files: -compare old.jsonl new.jsonl")
	bench := fs.String("bench", "BENCHMARK.json", "benchmark definition -compare takes its bounds from")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: fleetbench -compare old.jsonl new.jsonl")
			return 2
		}
		if err := compareFiles(stdout, *bench, fs.Arg(0), fs.Arg(1)); err != nil {
			fmt.Fprintln(stderr, "fleetbench:", err)
			return 1
		}
		return 0
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "fleetbench: -seconds must be ≥ 1 and -trace 0 or 1")
		return 2
	}
	names := []string{*name}
	if *name == "all" {
		names = nil
		for _, w := range workloads {
			names = append(names, w.name)
		}
	}
	for _, n := range names {
		w, err := workloadByName(n)
		if err != nil {
			fmt.Fprintln(stderr, "fleetbench:", err)
			return 2
		}
		o, err := runWorkload(stdout, w, *seed, float64(*seconds), *trace == 1)
		if err != nil {
			fmt.Fprintf(stderr, "fleetbench: %s: %v\n", n, err)
			return 1
		}
		line, err := json.Marshal(o)
		if err != nil {
			fmt.Fprintln(stderr, "fleetbench:", err)
			return 1
		}
		if *out != "" {
			if err := appendResult(*out, n, *seed, *trace, o); err != nil {
				fmt.Fprintln(stderr, "fleetbench:", err)
				return 1
			}
		}
		fmt.Fprintf(stdout, "%s\n", line)
	}
	return 0
}

// runWorkload sets up, runs and gates one workload. A run that fails
// any correctness check returns an error and no metrics.
func runWorkload(w io.Writer, wl workload, seed int64, seconds float64, traced bool) (*output, error) {
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(".bench_build", "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	fmt.Fprintf(w, "fleetbench: workload=%s seed=%d seconds=%g trace=%v host_cpus=%d gomaxprocs=%d go=%s\n",
		wl.name, seed, seconds, traced, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	in, setupS, err := timeSetups(wl, seed, seconds, dir, setupReps)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	fmt.Fprintf(w, "inputs: %d slots over %s, %d streams, %d cars (store holds %d), %d trips, %d events; setup %d× median %.3f s\n",
		wl.slots, strings.Join(in.names, ","), len(in.streams), len(in.cars), storeCapacity,
		len(in.sched.trips), len(in.sched.events), setupReps, setupS)

	base, err := live(in, false, dir)
	if err != nil {
		return nil, err
	}
	if bad := gate(in, base, seed); len(bad) > 0 {
		return nil, fmt.Errorf("correctness gate failed:\n  %s", strings.Join(bad, "\n  "))
	}
	rep, e, err := endToEndReport(in, base, setupS)
	if err != nil {
		return nil, err
	}
	describe(w, "untraced", base, e)
	o := &output{Correct: true, Attempted: len(in.sched.trips)}
	if !traced {
		rep.print(w)
		o.Metrics = rep.metrics()
		return o, nil
	}

	tr, err := live(in, true, dir)
	if err != nil {
		return nil, err
	}
	if bad := gate(in, tr, seed); len(bad) > 0 {
		return nil, fmt.Errorf("correctness gate failed on the traced run:\n  %s", strings.Join(bad, "\n  "))
	}
	describe(w, "traced", tr, endToEnd(in, tr))
	ls, err := replayLayers(in, tr, sample(tr, seed+1, layerTrips), filepath.Join(dir, "replay.vhj"))
	if err != nil {
		return nil, fmt.Errorf("layer replay: %w", err)
	}
	lr, err := layerReport(w, in, base, tr, ls)
	if err != nil {
		return nil, err
	}
	lr.print(w)
	o.Metrics = lr.metrics()
	return o, nil
}

// resultLine is one -out record: a result with what produced it.
type resultLine struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Trace    int     `json:"trace"`
	Result   *output `json:"result"`
}

func appendResult(path, workload string, seed int64, trace int, o *output) error {
	b, err := json.Marshal(resultLine{Workload: workload, Seed: seed, Trace: trace, Result: o})
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
