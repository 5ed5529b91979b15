package serve_test

import (
	"fmt"
	"sync"
	"testing"

	"vihot/internal/cabin"
	"vihot/internal/camera"
	"vihot/internal/core"
	"vihot/internal/csi"
	"vihot/internal/driver"
	"vihot/internal/experiment"
	"vihot/internal/imu"
	"vihot/internal/serve"
	"vihot/internal/stats"
)

// fixture is a shared small profile plus per-session item streams:
// three drivers' scenarios rendered once into the exact interleaved
// sample sequences the manager will ingest.
type fixture struct {
	profile *core.Profile
	streams map[string][]serve.Item
}

var (
	fixOnce sync.Once
	fix     *fixture
	fixErr  error
)

func getFixture(t *testing.T) *fixture {
	t.Helper()
	fixOnce.Do(func() { fix, fixErr = buildFixture() })
	if fixErr != nil {
		t.Fatal(fixErr)
	}
	return fix
}

func buildFixture() (*fixture, error) {
	env, err := experiment.NewEnv(cabin.DefaultConfig(), 11)
	if err != nil {
		return nil, err
	}
	popt := experiment.DefaultProfileOptions()
	popt.Positions = 4
	popt.PerPositionS = 3
	profile, _, err := env.CollectProfile(driver.DriverA(), popt)
	if err != nil {
		return nil, err
	}

	f := &fixture{profile: profile, streams: map[string][]serve.Item{}}
	profiles := []driver.Profile{driver.DriverA(), driver.DriverB(), driver.DriverC()}
	for i, dp := range profiles {
		id := fmt.Sprintf("driver-%c", 'a'+i)
		items, err := renderStream(env, dp, id, i == 1)
		if err != nil {
			return nil, err
		}
		f.streams[id] = items
	}
	return f, nil
}

// renderStream synthesizes one driver's interleaved sample stream:
// CSI (as sanitized phases, or raw frames for one session to exercise
// worker-side sanitizing), 100 Hz IMU, and 30 FPS camera estimates.
func renderStream(env *experiment.Env, dp driver.Profile, id string, rawFrames bool) ([]serve.Item, error) {
	sc := driver.DrivingScenario(env.RNG.Fork(), dp, 8, driver.GlanceOptions{
		Steering:       true,
		PositionJitter: 0.008,
	})
	phone := imu.NewPhoneIMU(env.RNG.Fork())
	cam := camera.NewTracker(env.RNG.Fork())

	var items []serve.Item
	nextIMU := 0.0
	for _, t := range env.Timing.ArrivalTimes(env.RNG.Fork(), sc.Duration) {
		for nextIMU <= t {
			items = append(items, serve.Item{
				Session: id, Kind: serve.KindIMU,
				IMU: phone.Sample(nextIMU, sc.CarYawRateDPS(nextIMU), sc.SpeedMPS),
			})
			lag := cam.Latency()
			if est, ok := cam.Sample(nextIMU, sc.HeadYaw.At(nextIMU-lag), sc.TrueYawRateDPS(nextIMU-lag)); ok {
				items = append(items, serve.Item{Session: id, Kind: serve.KindCamera, Camera: est})
			}
			nextIMU += 0.01
		}
		if rawFrames {
			items = append(items, serve.Item{Session: id, Kind: serve.KindFrame, Frame: env.FrameAt(sc.State(t))})
		} else {
			phi, err := env.PhaseAt(sc.State(t))
			if err != nil {
				return nil, err
			}
			items = append(items, serve.Item{Session: id, Kind: serve.KindPhase, Time: t, Phi: phi})
		}
	}
	return items, nil
}

// serialRun is the ground truth: one Pipeline per session, Push called
// inline in stream order — exactly what a single-threaded deployment
// would do.
func serialRun(t *testing.T, f *fixture) map[string][]core.Estimate {
	t.Helper()
	out := map[string][]core.Estimate{}
	for id, items := range f.streams {
		pl, err := core.NewPipeline(f.profile, core.DefaultPipelineConfig())
		if err != nil {
			t.Fatal(err)
		}
		for _, it := range items {
			switch it.Kind {
			case serve.KindIMU:
				pl.PushIMU(it.IMU)
			case serve.KindCamera:
				pl.PushCamera(it.Camera)
			case serve.KindFrame:
				phi, err := csi.Sanitize(it.Frame, 0, 1)
				if err != nil {
					continue
				}
				if est, ok := pl.PushCSI(it.Frame.Time, phi); ok {
					out[id] = append(out[id], est)
				}
			case serve.KindPhase:
				if est, ok := pl.PushCSI(it.Time, it.Phi); ok {
					out[id] = append(out[id], est)
				}
			}
		}
		if len(out[id]) == 0 {
			t.Fatalf("serial run produced no estimates for %s", id)
		}
	}
	return out
}

// estimateCollector is a concurrency-safe OnEstimate sink.
type estimateCollector struct {
	mu  sync.Mutex
	got map[string][]core.Estimate
}

func newCollector() *estimateCollector {
	return &estimateCollector{got: map[string][]core.Estimate{}}
}

func (c *estimateCollector) sink(id string, est core.Estimate) {
	c.mu.Lock()
	c.got[id] = append(c.got[id], est)
	c.mu.Unlock()
}

// managerRun feeds the fixture through a Manager. push selects how the
// streams are submitted (from the calling goroutine or concurrently).
func managerRun(t *testing.T, f *fixture, cfg serve.Config, push func(m *serve.Manager)) map[string][]core.Estimate {
	t.Helper()
	col := newCollector()
	cfg.OnEstimate = col.sink
	m := serve.New(cfg)
	defer m.Close()
	for id := range f.streams {
		if err := m.Open(id, f.profile, core.DefaultPipelineConfig()); err != nil {
			t.Fatal(err)
		}
	}
	push(m)
	m.Flush()
	snap := m.Counters().Snapshot()
	if snap.DroppedStale != 0 {
		t.Fatalf("equivalence run shed %d items; queues must be large enough", snap.DroppedStale)
	}
	return col.got
}

func assertSameEstimates(t *testing.T, mode string, want, got map[string][]core.Estimate) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: sessions with estimates = %d, want %d", mode, len(got), len(want))
	}
	for id, w := range want {
		g := got[id]
		if len(g) != len(w) {
			t.Fatalf("%s/%s: %d estimates, want %d", mode, id, len(g), len(w))
		}
		for i := range w {
			if g[i] != w[i] {
				t.Fatalf("%s/%s: estimate %d = %+v, want %+v", mode, id, i, g[i], w[i])
			}
		}
	}
}

// TestSessionManagerEquivalence proves the tentpole property: sharded,
// batched execution is estimate-for-estimate identical to calling
// Pipeline.Push serially — in deterministic mode, in concurrent mode
// with a single pusher, and in concurrent mode with one pusher
// goroutine per session.
func TestSessionManagerEquivalence(t *testing.T) {
	f := getFixture(t)
	want := serialRun(t, f)

	// interleave builds one global round-robin batch sequence, the
	// PushBatch shape a receiver loop would produce.
	interleave := func() [][]serve.Item {
		var batches [][]serve.Item
		idx := map[string]int{}
		for {
			var batch []serve.Item
			for id, items := range f.streams {
				i := idx[id]
				hi := i + 16
				if hi > len(items) {
					hi = len(items)
				}
				batch = append(batch, items[i:hi]...)
				idx[id] = hi
			}
			if len(batch) == 0 {
				return batches
			}
			batches = append(batches, batch)
		}
	}

	t.Run("deterministic", func(t *testing.T) {
		got := managerRun(t, f, serve.Config{Deterministic: true}, func(m *serve.Manager) {
			for _, b := range interleave() {
				m.PushBatch(b)
			}
		})
		assertSameEstimates(t, "deterministic", want, got)
	})

	t.Run("concurrent-batched", func(t *testing.T) {
		got := managerRun(t, f, serve.Config{Shards: 3, QueueLen: 1 << 17}, func(m *serve.Manager) {
			for _, b := range interleave() {
				m.PushBatch(b)
			}
		})
		assertSameEstimates(t, "concurrent-batched", want, got)
	})

	t.Run("concurrent-per-session-pushers", func(t *testing.T) {
		got := managerRun(t, f, serve.Config{Shards: 4, QueueLen: 1 << 17}, func(m *serve.Manager) {
			var wg sync.WaitGroup
			for _, items := range f.streams {
				wg.Add(1)
				go func(items []serve.Item) {
					defer wg.Done()
					for i := 0; i < len(items); i += 32 {
						hi := i + 32
						if hi > len(items) {
							hi = len(items)
						}
						m.PushBatch(items[i:hi])
					}
				}(items)
			}
			wg.Wait()
		})
		assertSameEstimates(t, "concurrent-per-session-pushers", want, got)
	})
}

// TestSessionManagerErrors covers the session registry edge cases.
func TestSessionManagerErrors(t *testing.T) {
	f := getFixture(t)
	m := serve.New(serve.Config{Shards: 2})
	defer m.Close()

	if err := m.Open("", f.profile, core.DefaultPipelineConfig()); err == nil {
		t.Fatal("empty session id accepted")
	}
	if err := m.Open("s1", f.profile, core.DefaultPipelineConfig()); err != nil {
		t.Fatal(err)
	}
	if err := m.Open("s1", f.profile, core.DefaultPipelineConfig()); err == nil {
		t.Fatal("duplicate session id accepted")
	}
	if err := m.Open("s2", nil, core.DefaultPipelineConfig()); err == nil {
		t.Fatal("nil profile accepted")
	}
	if m.Sessions() != 1 {
		t.Fatalf("Sessions() = %d, want 1", m.Sessions())
	}
	if err := m.CloseSession("nope"); err == nil {
		t.Fatal("closing unknown session succeeded")
	}

	// Items for a session that was never opened are counted, not lost
	// silently — and must not wedge the worker.
	m.Push(serve.Item{Session: "ghost", Kind: serve.KindPhase, Time: 1, Phi: 0})
	m.Flush()
	if snap := m.Counters().Snapshot(); snap.DroppedUnknown != 1 {
		t.Fatalf("DroppedUnknown = %d, want 1", snap.DroppedUnknown)
	}

	if err := m.CloseSession("s1"); err != nil {
		t.Fatal(err)
	}
	if m.Sessions() != 0 {
		t.Fatalf("Sessions() = %d, want 0", m.Sessions())
	}

	m.Close()
	if err := m.Open("s3", f.profile, core.DefaultPipelineConfig()); err == nil {
		t.Fatal("Open after Close succeeded")
	}
}

// TestSessionManagerStress hammers a small-queue manager from many
// goroutines into many sessions — the go test -race workload of the
// tier-1 verify instructions. Half the pushers use Push and half
// PushBatch, and one corrupt-kind and one unknown-session item ride
// along, so every accounting branch runs concurrently. It checks
// counter conservation after a drain, not estimate values: with a
// 64-item queue, shedding is the point.
func TestSessionManagerStress(t *testing.T) {
	f := getFixture(t)
	col := newCollector()
	m := serve.New(serve.Config{Shards: 8, QueueLen: 64, OnEstimate: col.sink})
	defer m.Close()

	const nSessions = 24
	ids := make([]string, nSessions)
	for i := range ids {
		ids[i] = fmt.Sprintf("s%02d", i)
		if err := m.Open(ids[i], f.profile, core.DefaultPipelineConfig()); err != nil {
			t.Fatal(err)
		}
	}

	const (
		nPushers  = 8
		perPusher = 4000
	)
	var wg sync.WaitGroup
	for p := 0; p < nPushers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			rng := stats.NewRNG(int64(1000 + p))
			// Each pusher owns a disjoint slice of sessions so the
			// per-session single-writer rule holds even under stress.
			mine := ids[p*nSessions/nPushers : (p+1)*nSessions/nPushers]
			clocks := make([]float64, len(mine))
			phases := make([]float64, len(mine))
			var batch []serve.Item
			for i := 0; i < perPusher; i++ {
				k := int(rng.Uniform(0, float64(len(mine))))
				if k == len(mine) {
					k--
				}
				clocks[k] += 0.002
				phases[k] += rng.Normal(0, 0.05)
				it := serve.Item{Session: mine[k], Kind: serve.KindPhase, Time: clocks[k], Phi: phases[k]}
				if i%7 == 0 {
					it = serve.Item{Session: mine[k], Kind: serve.KindIMU,
						IMU: imu.Reading{Time: clocks[k], GyroZ: rng.Normal(0, 2)}}
				}
				if p == 0 && i == perPusher/2 {
					m.Push(serve.Item{Session: mine[k], Kind: serve.ItemKind(200)})
				}
				if p%2 == 0 {
					m.Push(it)
				} else if batch = append(batch, it); len(batch) == 32 {
					m.PushBatch(batch)
					batch = batch[:0]
				}
				if i%1024 == 0 {
					m.Counters().Snapshot()
				}
			}
			m.PushBatch(batch)
		}(p)
	}
	// Concurrent observers: snapshots and flushes must be safe while
	// pushers run.
	done := make(chan struct{})
	go func() {
		for {
			select {
			case <-done:
				return
			default:
				m.Counters().Snapshot()
				m.Sessions()
			}
		}
	}()
	wg.Wait()
	close(done)
	// Pushed after the pushers stop, so no later push can shed it: it
	// must reach a worker and count as DroppedUnknown.
	m.Push(serve.Item{Session: "ghost", Kind: serve.KindPhase, Time: 1, Phi: 0})
	m.CloseDrain()

	snap := m.Counters().Snapshot()
	if got, want := snap.Total(), uint64(nPushers*perPusher+2); got != want {
		t.Fatalf("items counted in = %d, want %d", got, want)
	}
	conservation(t, snap)
	if snap.RejectedKind != 1 || snap.DroppedUnknown < 1 {
		t.Fatalf("accounting branches unexercised: RejectedKind=%d DroppedUnknown=%d",
			snap.RejectedKind, snap.DroppedUnknown)
	}
	col.mu.Lock()
	var sunk uint64
	for _, ests := range col.got {
		sunk += uint64(len(ests))
	}
	col.mu.Unlock()
	if sunk != snap.Estimates {
		t.Fatalf("sink saw %d estimates, counters say %d", sunk, snap.Estimates)
	}
	t.Logf("stress: in=%d dropped=%d estimates=%d", snap.Total(), snap.DroppedStale, snap.Estimates)
}
