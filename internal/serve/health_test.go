package serve_test

import (
	"math"
	"sync"
	"testing"

	"vihot/internal/camera"
	"vihot/internal/core"
	"vihot/internal/imu"
	"vihot/internal/journal"
	"vihot/internal/serve"
)

// transition is one recorded degradation-state change.
type transition struct {
	t        float64
	from, to serve.Health
}

// healthLog collects the KindHealth events and the estimates a
// manager publishes. Each estimate
// is tagged with the session's health read through m.Health inside
// the sink: the state machine publishes a transition before it emits
// on the same goroutine, so that is the state the estimate left under.
type healthLog struct {
	m     *serve.Manager
	mu    sync.Mutex
	trans map[string][]transition
	ests  map[string][]estAt
}

type estAt struct {
	est  core.Estimate
	h    serve.Health
	conf float64
}

func newHealthLog() *healthLog {
	return &healthLog{trans: map[string][]transition{}, ests: map[string][]estAt{}}
}

func (l *healthLog) onEvent(rec journal.Record) {
	if rec.Kind != journal.KindHealth {
		return
	}
	l.mu.Lock()
	l.trans[rec.Session] = append(l.trans[rec.Session],
		transition{t: rec.T, from: serve.Health(rec.From), to: serve.Health(rec.To)})
	l.mu.Unlock()
}

func (l *healthLog) onEst(id string, est core.Estimate) {
	h, _ := l.m.Health(id)
	l.mu.Lock()
	l.ests[id] = append(l.ests[id], estAt{est: est, h: h, conf: h.Confidence()})
	l.mu.Unlock()
}

// gapStream builds a synthetic single-session stream with a CSI
// blackout over [csiGapLo, csiGapHi): 500 Hz phases outside the gap,
// 100 Hz IMU and ~30 Hz camera throughout, over [0, dur]. The phase
// value is a slow sine — the state machine does not care whether the
// tracker matches anything.
func gapStream(id string, dur, csiGapLo, csiGapHi float64) []serve.Item {
	var items []serve.Item
	n := int(dur * 1000)
	for i := 0; i <= n; i++ {
		t := float64(i) * 0.001
		if i%2 == 0 && (t < csiGapLo || t >= csiGapHi) {
			items = append(items, serve.Item{
				Session: id, Kind: serve.KindPhase,
				Time: t, Phi: 0.3 * math.Sin(2*math.Pi*0.4*t),
			})
		}
		if i%10 == 0 {
			items = append(items, serve.Item{
				Session: id, Kind: serve.KindIMU,
				IMU: imu.Reading{Time: t},
			})
		}
		if i%33 == 0 {
			items = append(items, serve.Item{
				Session: id, Kind: serve.KindCamera,
				Camera: camera.Estimate{Time: t, Yaw: 0.5, Valid: true},
			})
		}
	}
	return items
}

// TestHealthStateMachineTransitions walks one session through a full
// CSI blackout and back: HEALTHY → DEGRADED → COASTING → STALE →
// DEGRADED (recovering) → HEALTHY, with camera-sourced coasting while
// COASTING, silence while STALE, and a tracker reset on resume.
func TestHealthStateMachineTransitions(t *testing.T) {
	f := getFixture(t)
	log := newHealthLog()
	m := serve.New(serve.Config{
		Deterministic: true,
		OnEvent:       log.onEvent,
		OnEstimate:    log.onEst,
	})
	log.m = m
	defer m.Close()
	if err := m.Open("s", f.profile, core.DefaultPipelineConfig()); err != nil {
		t.Fatal(err)
	}

	for _, it := range gapStream("s", 4.6, 2.0, 4.0) {
		m.Push(it)
	}

	want := []struct{ from, to serve.Health }{
		{serve.Healthy, serve.Degraded},  // CSI gap > 0.25 s
		{serve.Degraded, serve.Coasting}, // gap > 0.75 s
		{serve.Coasting, serve.Stale},    // gap > 1.5 s
		{serve.Stale, serve.Degraded},    // CSI resumed; recovery hold-down
		{serve.Degraded, serve.Healthy},  // 0.5 s of clean flow
	}
	got := log.trans["s"]
	if len(got) != len(want) {
		t.Fatalf("recorded %d transitions %+v, want %d", len(got), got, len(want))
	}
	for i, w := range want {
		if got[i].from != w.from || got[i].to != w.to {
			t.Fatalf("transition %d = %s→%s at t=%.3f, want %s→%s",
				i, got[i].from, got[i].to, got[i].t, w.from, w.to)
		}
		if i > 0 && got[i].t < got[i-1].t {
			t.Fatalf("transition times regressed: %+v", got)
		}
	}

	snap := m.Counters().Snapshot()
	if snap.ToDegraded != 2 || snap.ToCoasting != 1 || snap.ToStale != 1 || snap.Recoveries != 1 {
		t.Fatalf("transition counters = %+v", snap)
	}
	if snap.TrackerResets != 1 {
		t.Fatalf("TrackerResets = %d, want 1 (blackout spans the window)", snap.TrackerResets)
	}
	if snap.Coasted == 0 {
		t.Fatal("no coasted estimates during a 0.75 s coasting episode with a live camera")
	}

	coasts := 0
	for _, e := range log.ests["s"] {
		if e.h == serve.Stale {
			t.Fatalf("estimate emitted while STALE: %+v", e)
		}
		if e.h == serve.Coasting {
			coasts++
			if e.est.Source != core.SourceCamera {
				t.Fatalf("coasted estimate with a fresh camera used source %s", e.est.Source)
			}
			if e.conf != serve.Coasting.Confidence() {
				t.Fatalf("coasting confidence = %v, want %v", e.conf, serve.Coasting.Confidence())
			}
		}
	}
	if uint64(coasts) != snap.Coasted {
		t.Fatalf("sink saw %d coasted estimates, counters say %d", coasts, snap.Coasted)
	}

	if h, ok := m.Health("s"); !ok || h != serve.Healthy {
		t.Fatalf("final Health = %v/%v, want healthy/true", h, ok)
	}
	if _, ok := m.Health("ghost"); ok {
		t.Fatal("Health reported an unknown session")
	}
}

// TestHealthForecastCoasting starves the camera as well as the CSI:
// coasting must fall back to the tracker forecast anchored on the last
// real estimate, and cap its horizon.
func TestHealthForecastCoasting(t *testing.T) {
	f := getFixture(t)
	log := newHealthLog()
	m := serve.New(serve.Config{
		Deterministic: true,
		OnEvent:       log.onEvent,
		OnEstimate:    log.onEst,
	})
	log.m = m
	defer m.Close()
	if err := m.Open("s", f.profile, core.DefaultPipelineConfig()); err != nil {
		t.Fatal(err)
	}

	// Real CSI from the fixture so the pipeline emits genuine estimates
	// before the blackout; then IMU-only ticks (no camera at all).
	fed := 0
	for _, it := range f.streams["driver-a"] {
		if it.Kind != serve.KindPhase || it.Time > 4.0 {
			continue
		}
		m.Push(serve.Item{Session: "s", Kind: serve.KindPhase, Time: it.Time, Phi: it.Phi})
		fed++
	}
	if fed == 0 {
		t.Fatal("fixture stream had no phases under 4 s")
	}
	for i := 1; i <= 110; i++ {
		m.Push(serve.Item{Session: "s", Kind: serve.KindIMU,
			IMU: imu.Reading{Time: 4.0 + float64(i)*0.01}})
	}

	snap := m.Counters().Snapshot()
	var sawForecast bool
	for _, e := range log.ests["s"] {
		if e.h != serve.Coasting {
			continue
		}
		if e.est.Source != core.SourceCoast {
			t.Fatalf("camera-less coasting used source %s", e.est.Source)
		}
		sawForecast = true
	}
	if snap.Coasted == 0 || !sawForecast {
		t.Fatalf("no forecast-coasted estimates (Coasted=%d)", snap.Coasted)
	}
}

// TestStaleWhileSensorLeadsCSI pins the one way a session turns STALE
// while CSI still flows. The CSI gap is measured from the session
// clock, which is the latest timestamp of any sensor, so one IMU
// reading 2 s ahead of the CSI stream makes every following CSI
// sample look 2 s late. The pipeline keeps producing estimates; serve
// must count them in SuppressedStale and deliver none until the CSI
// catches up to within the stale threshold, after which the session
// only coasts.
func TestStaleWhileSensorLeadsCSI(t *testing.T) {
	f := getFixture(t)
	log := newHealthLog()
	m := serve.New(serve.Config{
		Deterministic: true,
		OnEvent:       log.onEvent,
		OnEstimate:    log.onEst,
	})
	log.m = m
	defer m.Close()
	if err := m.Open("s", f.profile, core.DefaultPipelineConfig()); err != nil {
		t.Fatal(err)
	}
	phases := func(lo, hi int) { // 500 Hz samples i*2 ms for i in [lo, hi)
		for i := lo; i < hi; i++ {
			ts := float64(i) * 0.002
			m.Push(serve.Item{Session: "s", Kind: serve.KindPhase,
				Time: ts, Phi: 0.3 * math.Sin(2*math.Pi*0.4*ts)})
		}
	}
	phases(0, 1000)
	m.Push(serve.Item{Session: "s", Kind: serve.KindIMU, IMU: imu.Reading{Time: 4.0}})
	phases(1000, 1500)

	snap := m.Counters().Snapshot()
	if snap.SuppressedStale == 0 {
		t.Fatalf("SuppressedStale = 0 with CSI 2 s behind the session clock: %+v", snap)
	}
	if snap.ToStale != 1 {
		t.Fatalf("ToStale = %d, want 1", snap.ToStale)
	}
	for _, e := range log.ests["s"] {
		if e.h == serve.Stale {
			t.Fatalf("estimate delivered while STALE: %+v", e)
		}
	}
	if h, _ := m.Health("s"); h != serve.Coasting {
		t.Fatalf("final Health = %s, want coasting (CSI still 1 s behind the IMU)", h)
	}
}

// TestServeTimestampGuards covers the serve-level admission rules: the
// monotone-CSI mirror, non-finite rejection, and the forward-jump
// guard that keeps a corrupted far-future timestamp from wedging the
// session clock.
func TestServeTimestampGuards(t *testing.T) {
	f := getFixture(t)
	m := serve.New(serve.Config{Deterministic: true})
	defer m.Close()
	if err := m.Open("s", f.profile, core.DefaultPipelineConfig()); err != nil {
		t.Fatal(err)
	}

	push := func(it serve.Item) { it.Session = "s"; m.Push(it) }
	push(serve.Item{Kind: serve.KindPhase, Time: 1, Phi: 0})               // accepted
	push(serve.Item{Kind: serve.KindPhase, Time: 1, Phi: 0})               // duplicate
	push(serve.Item{Kind: serve.KindPhase, Time: 0.5, Phi: 0})             // backwards
	push(serve.Item{Kind: serve.KindPhase, Time: math.NaN()})              // non-finite time
	push(serve.Item{Kind: serve.KindPhase, Time: 1.001, Phi: math.Inf(1)}) // non-finite phase
	push(serve.Item{Kind: serve.KindPhase, Time: 100, Phi: 0})             // far-future jump
	push(serve.Item{Kind: serve.KindIMU, IMU: imu.Reading{Time: math.NaN()}})
	push(serve.Item{Kind: serve.KindCamera, Camera: camera.Estimate{Time: math.Inf(1), Valid: true}})
	push(serve.Item{Kind: serve.KindPhase, Time: 1.002, Phi: 0}) // still accepted: clock not wedged

	snap := m.Counters().Snapshot()
	if snap.RejectedTime != 7 {
		t.Fatalf("RejectedTime = %d, want 7", snap.RejectedTime)
	}
	if snap.Processed != 9 {
		t.Fatalf("Processed = %d, want 9", snap.Processed)
	}
	if h, ok := m.Health("s"); !ok || h != serve.Healthy {
		t.Fatalf("guards disturbed health: %v/%v", h, ok)
	}
}
