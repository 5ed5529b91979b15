package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"vihot/internal/cabin"
	"vihot/internal/core"
	"vihot/internal/driver"
	"vihot/internal/experiment"
	"vihot/internal/profilestore"
	"vihot/internal/stats"
)

// profileBaseline is the JSON schema of -profilejson: the three
// profile-store paths that matter at fleet scale. cold_load is the
// full miss (disk read + decode + checksum + validate + fingerprint +
// insert); hot_hit is the steady-state lookup, which must stay
// allocation-free; contention_64 is 64 goroutines hammering a
// cached working set through the sharded locks.
type profileBaseline struct {
	GoVersion  string             `json:"go_version"`
	GOMAXPROCS int                `json:"gomaxprocs"`
	NumCPU     int                `json:"num_cpu"`
	Seed       int64              `json:"seed"`
	Positions  int                `json:"profile_positions"`
	Bytes      int64              `json:"profile_bytes"`
	Results    []profileBenchCell `json:"results"`
	Churn      []churnCell        `json:"churn"`
}

type profileBenchCell struct {
	Case        string  `json:"case"` // cold_load | hot_hit | contention_64
	Ops         int     `json:"ops"`
	Goroutines  int     `json:"goroutines"`
	Seconds     float64 `json:"seconds"`
	NsPerOp     float64 `json:"ns_per_op"`
	OpsPerS     float64 `json:"ops_per_s"`
	AllocsPerOp float64 `json:"allocs_per_op"`
}

// churnCell is one churn trace: a key distribution replayed against
// one LRU store.
type churnCell struct {
	Dist      string  `json:"dist"` // zipf | zipf_scan | fleet_mix
	Ops       int     `json:"ops"`
	Capacity  int     `json:"capacity"`
	Keyspace  int     `json:"keyspace"`
	HitRate   float64 `json:"hit_rate"`
	NsPerOp   float64 `json:"ns_per_op"`
	Evictions uint64  `json:"evictions"`
}

// Churn trace shape: a cache an order of magnitude smaller than the
// key population, so eviction actually has to choose.
const (
	churnOps      = 200_000
	churnCapacity = 128
	churnKeyspace = 1024
)

// churnTrace renders one deterministic key trace.
//
//	zipf      — fleet reality: a few commuter keys dominate, a long
//	            tail of occasional drivers (zipf s≈1.1 over 1024 keys).
//	zipf_scan — the same zipf traffic with a periodic one-shot sweep
//	            of never-repeated keys (fleet onboarding / backfill
//	            jobs): the classic scan-pollution stress for a
//	            recency cache.
//	fleet_mix — 70% of opens over 48 hot keys (regular cars), 30%
//	            uniform over the full tail (rentals, one-off trips).
func churnTrace(dist string, rng *stats.RNG) ([]string, error) {
	keys := make([]string, churnKeyspace)
	for i := range keys {
		keys[i] = fmt.Sprintf("driver-%04d", i)
	}
	// Zipf via inverse CDF over precomputed cumulative weights.
	cum := make([]float64, churnKeyspace)
	total := 0.0
	for r := range cum {
		total += 1.0 / math.Pow(float64(r+1), 1.1)
		cum[r] = total
	}
	zipfKey := func() string {
		u := rng.Float64() * total
		return keys[sort.SearchFloat64s(cum, u)]
	}

	trace := make([]string, 0, churnOps+churnOps/8)
	switch dist {
	case "zipf":
		for i := 0; i < churnOps; i++ {
			trace = append(trace, zipfKey())
		}
	case "zipf_scan":
		scanSeq := 0
		for i := 0; i < churnOps; i++ {
			trace = append(trace, zipfKey())
			if (i+1)%4000 == 0 {
				// A one-shot sweep of 2×capacity fresh keys: enough to
				// flush a pure-recency cache end to end.
				for j := 0; j < 2*churnCapacity; j++ {
					trace = append(trace, fmt.Sprintf("scan-%06d", scanSeq))
					scanSeq++
				}
			}
		}
	case "fleet_mix":
		for i := 0; i < churnOps; i++ {
			if rng.Bool(0.7) {
				trace = append(trace, keys[rng.Intn(48)])
			} else {
				trace = append(trace, keys[rng.Intn(churnKeyspace)])
			}
		}
	default:
		return nil, fmt.Errorf("unknown churn distribution %q", dist)
	}
	return trace, nil
}

// runChurn replays each distribution's trace against a fresh LRU
// store and appends the results to the baseline.
func runChurn(base *profileBaseline, profile *core.Profile, seed int64) error {
	loader := profilestore.LoaderFunc(func(string) (*core.Profile, error) {
		return profile, nil
	})
	for _, dist := range []string{"zipf", "zipf_scan", "fleet_mix"} {
		trace, err := churnTrace(dist, stats.NewRNG(seed))
		if err != nil {
			return err
		}
		s := profilestore.New(profilestore.Config{
			Shards:   1,
			Capacity: churnCapacity,
			Loader:   loader,
		})
		t0 := time.Now()
		for _, k := range trace {
			if _, err := s.Get(k); err != nil {
				return err
			}
		}
		dt := time.Since(t0)
		st := s.Stats()
		base.Churn = append(base.Churn, churnCell{
			Dist:      dist,
			Ops:       len(trace),
			Capacity:  churnCapacity,
			Keyspace:  churnKeyspace,
			HitRate:   st.HitRate(),
			NsPerOp:   float64(dt.Nanoseconds()) / float64(len(trace)),
			Evictions: st.Evictions,
		})
	}
	return nil
}

// runProfileBench measures the store's cold, hot, and contended
// paths plus the three churn traces, and writes the JSON baseline.
func runProfileBench(path string, seed int64) error {
	start := time.Now()
	env, err := experiment.NewEnv(cabin.DefaultConfig(), seed)
	if err != nil {
		return err
	}
	popt := experiment.DefaultProfileOptions()
	popt.Positions = 5
	popt.PerPositionS = 4
	profile, _, err := env.CollectProfile(driver.DriverA(), popt)
	if err != nil {
		return err
	}

	dir, err := os.MkdirTemp("", "vihot-profilebench-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	dl := profilestore.NewDirLoader(dir)
	const files = 256
	for i := 0; i < files; i++ {
		if err := dl.Save(fmt.Sprintf("driver-%d", i), profile); err != nil {
			return err
		}
	}

	base := profileBaseline{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Seed:       seed,
		Positions:  len(profile.Positions),
	}

	// Cold loads: capacity 1 with a rotating key keeps every Get a
	// miss that goes to disk.
	{
		s := profilestore.New(profilestore.Config{Shards: 1, Capacity: 1, Loader: dl})
		const ops = 2000
		t0 := time.Now()
		for i := 0; i < ops; i++ {
			if _, err := s.Get(fmt.Sprintf("driver-%d", i%files)); err != nil {
				return err
			}
		}
		base.Results = append(base.Results, cell("cold_load", ops, 1, time.Since(t0), 0))
		base.Bytes = s.Stats().Bytes
	}

	// Hot hits: one warmed key, measured with allocation accounting.
	{
		s := profilestore.New(profilestore.Config{Loader: dl})
		if _, err := s.Get("driver-0"); err != nil {
			return err
		}
		const ops = 2_000_000
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		for i := 0; i < ops; i++ {
			if _, err := s.Get("driver-0"); err != nil {
				return err
			}
		}
		dt := time.Since(t0)
		runtime.ReadMemStats(&m1)
		allocs := float64(m1.Mallocs-m0.Mallocs) / ops
		base.Results = append(base.Results, cell("hot_hit", ops, 1, dt, allocs))
	}

	// 64-way contention: a cached 16-key working set under 64
	// goroutines — the sharded-lock scaling story.
	{
		s := profilestore.New(profilestore.Config{Shards: 8, Capacity: 64, Loader: dl})
		keys := make([]string, 16)
		for i := range keys {
			keys[i] = fmt.Sprintf("driver-%d", i)
			if _, err := s.Get(keys[i]); err != nil {
				return err
			}
		}
		const (
			workers   = 64
			perWorker = 50_000
		)
		var (
			wg    sync.WaitGroup
			gate  = make(chan struct{})
			fails atomic.Int64
		)
		wg.Add(workers)
		for g := 0; g < workers; g++ {
			go func(g int) {
				defer wg.Done()
				<-gate
				for i := 0; i < perWorker; i++ {
					if _, err := s.Get(keys[(g+i)%len(keys)]); err != nil {
						fails.Add(1)
						return
					}
				}
			}(g)
		}
		t0 := time.Now()
		close(gate)
		wg.Wait()
		dt := time.Since(t0)
		if n := fails.Load(); n > 0 {
			return fmt.Errorf("contention bench: %d gets failed", n)
		}
		base.Results = append(base.Results, cell("contention_64", workers*perWorker, workers, dt, 0))
	}

	if err := runChurn(&base, profile, seed); err != nil {
		return err
	}

	for _, c := range base.Results {
		fmt.Printf("%-14s %10d ops  %8.0f ns/op  %12.0f ops/s  %.3f allocs/op\n",
			c.Case, c.Ops, c.NsPerOp, c.OpsPerS, c.AllocsPerOp)
	}
	for _, c := range base.Churn {
		fmt.Printf("churn %-10s hit-rate %.4f  %6.0f ns/op  evict=%d\n",
			c.Dist, c.HitRate, c.NsPerOp, c.Evictions)
	}
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

func cell(name string, ops, goroutines int, dt time.Duration, allocs float64) profileBenchCell {
	return profileBenchCell{
		Case:        name,
		Ops:         ops,
		Goroutines:  goroutines,
		Seconds:     dt.Seconds(),
		NsPerOp:     float64(dt.Nanoseconds()) / float64(ops),
		OpsPerS:     float64(ops) / dt.Seconds(),
		AllocsPerOp: allocs,
	}
}
