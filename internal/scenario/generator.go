package scenario

import (
	"fmt"
	"runtime"
	"sort"
	"sync"

	"vihot/internal/core"
	"vihot/internal/geom"
	"vihot/internal/journal"
	"vihot/internal/obs"
	"vihot/internal/serve"
	"vihot/internal/stats"
)

// MixEntry weights one scenario inside a workload mix.
type MixEntry struct {
	Config Config
	Weight float64
}

// GeneratorConfig tunes one workload-generator run.
type GeneratorConfig struct {
	// Mix is the weighted scenario mix; at least one entry.
	Mix []MixEntry
	// Sessions is the total session count, apportioned across the mix
	// by weight (largest-remainder, deterministic).
	Sessions int
	// Deterministic runs the manager in deterministic mode with
	// sequential pushes: same config ⇒ bit-identical Report. This is
	// the golden-suite mode; leave false to exercise the real
	// concurrent engine.
	Deterministic bool
	// Shards/QueueLen tune the concurrent manager (ignored when
	// Deterministic). Zero takes the serve defaults, except QueueLen
	// which defaults high enough that a replay push-storm doesn't shed.
	Shards   int
	QueueLen int
	// Metrics, if set, receives the vihot_scenario_* series (and is
	// handed to the manager for its vihot_serve_* series).
	Metrics *obs.Registry
}

// ScenarioReport is one scenario's slice of a generator run.
type ScenarioReport struct {
	Scenario  string `json:"scenario"`
	Sessions  int    `json:"sessions"`
	Items     int    `json:"items"`
	Estimates int    `json:"estimates"`
	// MedianErrDeg/P95ErrDeg/MaxErrDeg summarize the per-estimate
	// absolute yaw error against the trajectory ground truth.
	MedianErrDeg float64 `json:"median_err_deg"`
	P95ErrDeg    float64 `json:"p95_err_deg"`
	MaxErrDeg    float64 `json:"max_err_deg"`
	// FinalHealth counts sessions by their degradation state at end of
	// replay, keyed by serve.Health.String().
	FinalHealth map[string]int `json:"final_health"`
	// Transitions counts degradation state-machine transitions across
	// the scenario's sessions.
	Transitions int `json:"transitions"`
	// Trajectories counts sessions by the mix kind they drew.
	Trajectories map[string]int `json:"trajectories"`
}

// Report is a full generator run summary.
type Report struct {
	Sessions  int                   `json:"sessions"`
	Scenarios []ScenarioReport      `json:"scenarios"`
	Counters  serve.CounterSnapshot `json:"counters"`
}

// Apportion splits n sessions across the mix weights with the
// largest-remainder method — deterministic, exact total, and stable
// under reordering-free repetition. Exported for the cmds, which need
// the same split to label their own sessions.
func Apportion(weights []float64, n int) []int {
	counts := make([]int, len(weights))
	if n <= 0 || len(weights) == 0 {
		return counts
	}
	total := 0.0
	for _, w := range weights {
		total += w
	}
	if total <= 0 {
		return counts
	}
	type rem struct {
		idx  int
		frac float64
	}
	rems := make([]rem, len(weights))
	assigned := 0
	for i, w := range weights {
		exact := w / total * float64(n)
		counts[i] = int(exact)
		assigned += counts[i]
		rems[i] = rem{i, exact - float64(counts[i])}
	}
	sort.SliceStable(rems, func(a, b int) bool { return rems[a].frac > rems[b].frac })
	for i := 0; assigned < n; i++ {
		counts[rems[i%len(rems)].idx]++
		assigned++
	}
	return counts
}

// Generate runs the workload: renders every session's stream, replays
// the whole mix through a serve.Manager at the configured session
// count, and reports per-scenario accuracy and health breakdowns.
func Generate(gc GeneratorConfig) (*Report, error) {
	if len(gc.Mix) == 0 {
		return nil, fmt.Errorf("scenario: empty mix")
	}
	if gc.Sessions <= 0 {
		gc.Sessions = len(gc.Mix)
	}
	weights := make([]float64, len(gc.Mix))
	for i, e := range gc.Mix {
		if err := e.Config.Validate(); err != nil {
			return nil, err
		}
		w := e.Weight
		if w == 0 {
			w = 1
		}
		if w < 0 || !finite(w) {
			return nil, fmt.Errorf("scenario: mix weight %v for %q", e.Weight, e.Config.Name)
		}
		weights[i] = w
	}
	counts := Apportion(weights, gc.Sessions)

	// Profiles: one per scenario with sessions, collected in that
	// scenario's own cabin and shared immutably across its sessions.
	profiles := make([]*core.Profile, len(gc.Mix))
	for i, e := range gc.Mix {
		if counts[i] == 0 {
			continue
		}
		p, err := e.Config.CollectProfile()
		if err != nil {
			return nil, err
		}
		profiles[i] = p
	}

	// Render every stream. Rendering dominates wall time (it is the
	// cabin's electromagnetics), so it fans out across GOMAXPROCS
	// workers; stream content depends only on (config, session index),
	// never on build order.
	type job struct{ mix, session int }
	var jobs []job
	for i, n := range counts {
		for j := 0; j < n; j++ {
			jobs = append(jobs, job{i, j})
		}
	}
	streams := make([]*Stream, len(jobs))
	workers := runtime.GOMAXPROCS(0)
	if workers > len(jobs) && len(jobs) > 0 {
		workers = len(jobs)
	}
	var (
		wg       sync.WaitGroup
		jobCh    = make(chan int)
		buildErr error
		errOnce  sync.Once
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range jobCh {
				j := jobs[k]
				cfg := gc.Mix[j.mix].Config
				id := fmt.Sprintf("%s/%03d", cfg.Name, j.session)
				st, err := cfg.BuildStream(id, j.session)
				if err != nil {
					errOnce.Do(func() { buildErr = err })
					return
				}
				streams[k] = st
			}
		}()
	}
	for k := range jobs {
		jobCh <- k
	}
	close(jobCh)
	wg.Wait()
	if buildErr != nil {
		return nil, buildErr
	}

	// Replay through the manager.
	var (
		mu        sync.Mutex
		estimates = map[string][]core.Estimate{}
		trans     = map[string]int{}
	)
	queue := gc.QueueLen
	if queue == 0 {
		queue = 1 << 16 // replay pushes arrive in storms, not at link rate
	}
	mgr := serve.New(serve.Config{
		Deterministic: gc.Deterministic,
		Shards:        gc.Shards,
		QueueLen:      queue,
		Metrics:       gc.Metrics,
		OnEstimate: func(id string, est core.Estimate) {
			mu.Lock()
			estimates[id] = append(estimates[id], est)
			mu.Unlock()
		},
		OnEvent: func(rec journal.Record) {
			if rec.Kind == journal.KindHealth {
				mu.Lock()
				trans[rec.Session]++
				mu.Unlock()
			}
		},
	})
	defer mgr.Close()
	byMix := make([][]*Stream, len(gc.Mix))
	k := 0
	for i, n := range counts {
		for j := 0; j < n; j++ {
			byMix[i] = append(byMix[i], streams[k])
			k++
		}
	}
	for i := range gc.Mix {
		for _, st := range byMix[i] {
			if err := mgr.Open(st.ID, profiles[i], core.DefaultPipelineConfig()); err != nil {
				return nil, err
			}
		}
	}
	if gc.Deterministic {
		for _, st := range streams {
			for _, it := range st.Items {
				mgr.Push(it)
			}
		}
	} else {
		var pushers sync.WaitGroup
		for _, st := range streams {
			pushers.Add(1)
			go func(st *Stream) {
				defer pushers.Done()
				const batch = 64
				for i := 0; i < len(st.Items); i += batch {
					hi := i + batch
					if hi > len(st.Items) {
						hi = len(st.Items)
					}
					mgr.PushBatch(st.Items[i:hi])
				}
			}(st)
		}
		pushers.Wait()
		mgr.Flush()
	}

	// Final health must be read before CloseDrain purges the sessions.
	finalHealth := map[string]serve.Health{}
	for _, st := range streams {
		if h, ok := mgr.Health(st.ID); ok {
			finalHealth[st.ID] = h
		}
	}
	mgr.CloseDrain()
	snap := mgr.Counters().Snapshot()

	// Score per scenario.
	m := newGenMetrics(gc.Metrics)
	rep := &Report{Sessions: gc.Sessions, Counters: snap}
	for i, e := range gc.Mix {
		sr := ScenarioReport{
			Scenario:     e.Config.Name,
			Sessions:     counts[i],
			FinalHealth:  map[string]int{},
			Trajectories: map[string]int{},
		}
		var errs []float64
		for _, st := range byMix[i] {
			sr.Items += len(st.Items)
			sr.Trajectories[st.Trajectory]++
			mu.Lock()
			ests := estimates[st.ID]
			nTrans := trans[st.ID]
			mu.Unlock()
			sr.Estimates += len(ests)
			sr.Transitions += nTrans
			for _, est := range ests {
				d := geom.AngleDistDeg(est.Yaw, st.Truth.HeadYaw.At(est.Time))
				errs = append(errs, d)
				m.observeErr(sr.Scenario, d)
			}
			if h, ok := finalHealth[st.ID]; ok {
				sr.FinalHealth[h.String()]++
			}
		}
		if len(errs) > 0 {
			sr.MedianErrDeg = stats.Median(errs)
			sr.P95ErrDeg, _ = stats.Percentile(errs, 95)
			sr.MaxErrDeg = stats.Max(errs)
		}
		m.record(sr)
		rep.Scenarios = append(rep.Scenarios, sr)
	}
	return rep, nil
}

// genMetrics registers the vihot_scenario_* series. All methods are
// nil-safe so the generator wires them unconditionally.
type genMetrics struct {
	reg *obs.Registry
}

func newGenMetrics(r *obs.Registry) genMetrics { return genMetrics{reg: r} }

// observeErr records one estimate's absolute yaw error.
func (g genMetrics) observeErr(scenarioName string, errDeg float64) {
	if g.reg == nil {
		return
	}
	g.reg.Histogram("vihot_scenario_error_deg",
		"per-estimate absolute yaw error against scenario ground truth",
		obs.LinearBuckets(0, 5, 19), "scenario", scenarioName).Observe(errDeg)
}

// record publishes one scenario's summary gauges and counters.
func (g genMetrics) record(sr ScenarioReport) {
	if g.reg == nil {
		return
	}
	g.reg.Counter("vihot_scenario_sessions_total",
		"sessions replayed, by scenario", "scenario", sr.Scenario).Add(uint64(sr.Sessions))
	g.reg.Counter("vihot_scenario_estimates_total",
		"estimates produced, by scenario", "scenario", sr.Scenario).Add(uint64(sr.Estimates))
	g.reg.Gauge("vihot_scenario_median_err_deg",
		"median absolute yaw error of the last run, by scenario", "scenario", sr.Scenario).Set(sr.MedianErrDeg)
	g.reg.Gauge("vihot_scenario_p95_err_deg",
		"95th-percentile absolute yaw error of the last run, by scenario", "scenario", sr.Scenario).Set(sr.P95ErrDeg)
	for state, n := range sr.FinalHealth {
		g.reg.Gauge("vihot_scenario_final_health",
			"sessions ending the run in each degradation state, by scenario",
			"scenario", sr.Scenario, "state", state).Set(float64(n))
	}
}
