package serve_test

import (
	"errors"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vihot/internal/core"
	"vihot/internal/profilestore"
	"vihot/internal/serve"
)

// slowLoader hands out one profile after a deliberate delay, counting
// calls — the delay widens the cold-key race window so a storm of
// OpenByKey calls really does pile onto one in-flight load.
type slowLoader struct {
	p     *core.Profile
	calls atomic.Int64
}

func (sl *slowLoader) Load(key string) (*core.Profile, error) {
	sl.calls.Add(1)
	time.Sleep(20 * time.Millisecond)
	return sl.p, nil
}

// TestOpenByKeyColdStormSharesProfile proves the serving half of the
// shared-profile contract under -race: 64 sessions racing to open one
// cold driver key cause exactly one loader read, and every session's
// pipeline references the identical profile instance (same pointer,
// same fingerprint) — one profile of memory for the whole fleet key.
func TestOpenByKeyColdStormSharesProfile(t *testing.T) {
	fix := getFixture(t)
	sl := &slowLoader{p: fix.profile}
	store := profilestore.New(profilestore.Config{Loader: sl})
	mgr := serve.New(serve.Config{Shards: 4, Profiles: store})
	defer mgr.Close()

	const storm = 64
	var (
		wg   sync.WaitGroup
		gate = make(chan struct{})
		errs [storm]error
	)
	wg.Add(storm)
	for i := 0; i < storm; i++ {
		go func(i int) {
			defer wg.Done()
			<-gate
			errs[i] = mgr.OpenByKey(sessID(i), "driver-a", core.DefaultPipelineConfig())
		}(i)
	}
	close(gate)
	wg.Wait()

	for i := range errs {
		if errs[i] != nil {
			t.Fatalf("open %d: %v", i, errs[i])
		}
	}
	if calls := sl.calls.Load(); calls != 1 {
		t.Errorf("loader calls = %d, want exactly 1 for one cold key", calls)
	}
	if n := mgr.Sessions(); n != storm {
		t.Fatalf("sessions = %d, want %d", n, storm)
	}
	ref, ok := mgr.Profile(sessID(0))
	if !ok || ref == nil {
		t.Fatal("session 0 has no profile")
	}
	fp := ref.Fingerprint()
	for i := 1; i < storm; i++ {
		p, ok := mgr.Profile(sessID(i))
		if !ok {
			t.Fatalf("session %d missing", i)
		}
		if p != ref {
			t.Fatalf("session %d tracks a different profile instance", i)
		}
		if p.Fingerprint() != fp {
			t.Fatalf("session %d fingerprint diverged", i)
		}
	}

	// The shared instance must actually serve traffic: feed every
	// session the same short stream and require estimates from all.
	stream := fix.streams["driver-a"]
	if len(stream) > 400 {
		stream = stream[:400]
	}
	var estimates sync.Map
	mgr2 := serve.New(serve.Config{
		Shards:   4,
		Profiles: store,
		OnEstimate: func(id string, est core.Estimate) {
			v, _ := estimates.LoadOrStore(id, new(atomic.Int64))
			v.(*atomic.Int64).Add(1)
		},
	})
	defer mgr2.Close()
	const active = 8
	for i := 0; i < active; i++ {
		if err := mgr2.OpenByKey(sessID(i), "driver-a", core.DefaultPipelineConfig()); err != nil {
			t.Fatal(err)
		}
	}
	for _, it := range stream {
		for i := 0; i < active; i++ {
			it.Session = sessID(i)
			mgr2.Push(it)
		}
	}
	mgr2.Flush()
	for i := 0; i < active; i++ {
		v, ok := estimates.Load(sessID(i))
		if !ok || v.(*atomic.Int64).Load() == 0 {
			t.Errorf("session %d produced no estimates over the shared profile", i)
		}
	}
}

// TestOpenByKeyReloadSharesMatchView: two OpenByKey calls for one
// key, with the key evicted in between, track one profile instance
// and so one match view — the second open builds no grids — and emit
// bit-identical estimates over one stream.
func TestOpenByKeyReloadSharesMatchView(t *testing.T) {
	fix := getFixture(t)
	// Every load hands out a fresh copy, built before any open is
	// measured.
	copies := make(chan *core.Profile, 3)
	for range cap(copies) {
		copies <- fix.profile.Clone()
	}
	var loads atomic.Int64
	store := profilestore.New(profilestore.Config{Shards: 1, Capacity: 1,
		Loader: profilestore.LoaderFunc(func(string) (*core.Profile, error) {
			loads.Add(1)
			return <-copies, nil
		}),
	})
	col := newCollector()
	mgr := serve.New(serve.Config{Deterministic: true, Profiles: store, OnEstimate: col.sink})
	defer mgr.Close()
	cfg := core.DefaultPipelineConfig()

	if err := mgr.OpenByKey("s1", "car", cfg); err != nil {
		t.Fatal(err)
	}
	if _, err := store.Get("other"); err != nil { // capacity 1: evicts "car"
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := mgr.OpenByKey("s2", "car", cfg)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if n := loads.Load(); n != 3 {
		t.Fatalf("loader calls = %d, want 3: the reload must still load", n)
	}
	p1, _ := mgr.Profile("s1")
	p2, _ := mgr.Profile("s2")
	if p1 != p2 {
		t.Fatal("sessions over one key track two profile instances after a reload")
	}
	viewBytes := uint64(0)
	for _, pos := range fix.profile.Positions {
		viewBytes += 8 * uint64(len(pos.PhiGrid))
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= viewBytes {
		t.Errorf("the second open allocated %d B, at least a view's %d B of grids", got, viewBytes)
	}

	items := fix.streams["driver-a"]
	for _, id := range []string{"s1", "s2"} {
		for _, it := range items {
			it.Session = id
			mgr.Push(it)
		}
	}
	want, got := col.got["s1"], col.got["s2"]
	if len(want) < 100 || len(got) != len(want) {
		t.Fatalf("estimates: s1 %d, s2 %d", len(want), len(got))
	}
	for k := range want {
		w, g := want[k], got[k]
		if math.Float64bits(g.Time) != math.Float64bits(w.Time) ||
			math.Float64bits(g.Yaw) != math.Float64bits(w.Yaw) ||
			math.Float64bits(g.MatchDist) != math.Float64bits(w.MatchDist) ||
			g.Source != w.Source || g.Position != w.Position {
			t.Fatalf("estimate %d = %+v, want %+v", k, g, w)
		}
	}
}

func sessID(i int) string {
	return "sess-" + string(rune('a'+i%26)) + string(rune('0'+i/26))
}

func TestOpenByKeyWithoutStore(t *testing.T) {
	mgr := serve.New(serve.Config{Deterministic: true})
	defer mgr.Close()
	if err := mgr.OpenByKey("s", "k", core.DefaultPipelineConfig()); !errors.Is(err, serve.ErrNoProfileStore) {
		t.Errorf("err = %v, want ErrNoProfileStore", err)
	}
	if err := mgr.OpenByKey("", "k", core.DefaultPipelineConfig()); !errors.Is(err, serve.ErrNoSessionID) {
		t.Errorf("empty id err = %v, want ErrNoSessionID", err)
	}
}

// TestOpenByKeyFleet is the fleet-open acceptance test at the serving
// layer: N sequential opens over M distinct driver styles cost exactly
// M loader calls, and every session of a style tracks the instance its
// key handed out first.
func TestOpenByKeyFleet(t *testing.T) {
	fix := getFixture(t)
	const (
		fleet    = 48
		distinct = 4
	)
	var calls atomic.Int64
	store := profilestore.New(profilestore.Config{
		Loader: profilestore.LoaderFunc(func(key string) (*core.Profile, error) {
			calls.Add(1)
			return fix.profile.Clone(), nil
		}),
	})
	mgr := serve.New(serve.Config{Shards: 4, Profiles: store})
	defer mgr.Close()

	for i := 0; i < fleet; i++ {
		key := "style-" + string(rune('a'+i%distinct))
		if err := mgr.OpenByKey(sessID(i), key, core.DefaultPipelineConfig()); err != nil {
			t.Fatalf("open %d: %v", i, err)
		}
	}
	if n := calls.Load(); n != distinct {
		t.Errorf("loader calls = %d, want exactly %d for %d sessions", n, distinct, fleet)
	}
	if n := mgr.Sessions(); n != fleet {
		t.Fatalf("sessions = %d, want %d", n, fleet)
	}
	for i := distinct; i < fleet; i++ {
		p, ok := mgr.Profile(sessID(i))
		ref, _ := mgr.Profile(sessID(i % distinct))
		if !ok || p != ref {
			t.Fatalf("session %d does not share its style's profile instance", i)
		}
	}
}

// TestOpenByKeyPerOpenErrors: a bad open (empty ID, broken profile,
// duplicate session) fails alone; the opens around it serve.
func TestOpenByKeyPerOpenErrors(t *testing.T) {
	fix := getFixture(t)
	boom := errors.New("profile service down")
	store := profilestore.New(profilestore.Config{
		Loader: profilestore.LoaderFunc(func(key string) (*core.Profile, error) {
			if key == "bad" {
				return nil, boom
			}
			return fix.profile, nil
		}),
	})
	mgr := serve.New(serve.Config{Deterministic: true, Profiles: store})
	defer mgr.Close()

	for _, tc := range []struct {
		id, key string
		want    error
	}{
		{"s1", "good", nil},
		{"", "good", serve.ErrNoSessionID},
		{"s2", "bad", boom},
		{"s1", "good", serve.ErrDuplicateID},
		{"s3", "good", nil},
	} {
		err := mgr.OpenByKey(tc.id, tc.key, core.DefaultPipelineConfig())
		if tc.want == nil && err != nil || tc.want != nil && !errors.Is(err, tc.want) {
			t.Errorf("open %q by %q: err = %v, want %v", tc.id, tc.key, err, tc.want)
		}
	}
	if n := mgr.Sessions(); n != 2 {
		t.Errorf("sessions = %d, want 2 (s1, s3)", n)
	}
}

func TestOpenByKeyLoaderFailure(t *testing.T) {
	boom := errors.New("profile service down")
	store := profilestore.New(profilestore.Config{
		Loader: profilestore.LoaderFunc(func(key string) (*core.Profile, error) {
			return nil, boom
		}),
	})
	mgr := serve.New(serve.Config{Deterministic: true, Profiles: store})
	defer mgr.Close()
	if err := mgr.OpenByKey("s", "k", core.DefaultPipelineConfig()); !errors.Is(err, boom) {
		t.Errorf("err = %v, want the loader's error", err)
	}
	if mgr.Sessions() != 0 {
		t.Error("failed open leaked a session")
	}
	if _, ok := mgr.Profile("s"); ok {
		t.Error("failed open registered a profile")
	}
}

// TestSharedProfileConcurrentOpens races session opens over shared
// profile instances against pushes, closes and collections, so that
// the trackers' shared match view is built, adopted, dropped and
// rebuilt concurrently. Long-lived sessions (half Open, half
// OpenByKey, all over one instance) must emit exactly a
// deterministic replay's estimates; short churned sessions over a
// second instance, whose view dies between them, must emit a prefix
// of theirs. The books must balance after CloseDrain.
func TestSharedProfileConcurrentOpens(t *testing.T) {
	fix := getFixture(t)
	shared, churned := fix.profile.Clone(), fix.profile.Clone()
	store := profilestore.New(profilestore.Config{
		Loader: profilestore.LoaderFunc(func(key string) (*core.Profile, error) {
			if key == "churned" {
				return churned, nil
			}
			return shared, nil
		}),
	})
	col := newCollector()
	mgr := serve.New(serve.Config{Shards: 4, QueueLen: 1 << 15, Profiles: store, OnEstimate: col.sink})
	cfg := core.DefaultPipelineConfig()

	const (
		long, churners, rounds = 8, 4, 6
		longItems, churnItems  = 1500, 300
	)
	streams := []string{"driver-a", "driver-b", "driver-c"}
	stream := func(i, n int) []serve.Item {
		items := fix.streams[streams[i%len(streams)]]
		return items[:min(n, len(items))]
	}
	open := func(id, key string, byKey bool) error {
		if byKey {
			return mgr.OpenByKey(id, key, cfg)
		}
		p := shared
		if key == "churned" {
			p = churned
		}
		return mgr.Open(id, p, cfg)
	}
	push := func(id string, items []serve.Item) {
		for _, it := range items {
			it.Session = id
			mgr.Push(it)
		}
	}

	var (
		wg     sync.WaitGroup
		gate   = make(chan struct{})
		pushed atomic.Uint64
		errs   = make(chan error, long+churners*rounds)
		stop   = make(chan struct{})
		gcDone = make(chan struct{})
	)
	for i := 0; i < long; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-gate
			id := "long-" + sessID(i)
			if err := open(id, "shared", i%2 == 1); err != nil {
				errs <- err
				return
			}
			items := stream(i, longItems)
			push(id, items)
			pushed.Add(uint64(len(items)))
		}(i)
	}
	for c := 0; c < churners; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			<-gate
			for r := 0; r < rounds; r++ {
				id := "churn-" + sessID(c*rounds+r)
				if err := open(id, "churned", (c+r)%2 == 1); err != nil {
					errs <- err
					return
				}
				items := stream(c+r, churnItems)
				push(id, items)
				pushed.Add(uint64(len(items)))
				if err := mgr.CloseSession(id); err != nil {
					errs <- err
					return
				}
			}
		}(c)
	}
	// Collections drop the churned instance's view whenever no churn
	// session is open, so later opens rebuild it.
	go func() {
		defer close(gcDone)
		for {
			select {
			case <-stop:
				return
			default:
				runtime.GC()
				time.Sleep(time.Millisecond)
			}
		}
	}()
	close(gate)
	wg.Wait()
	close(stop)
	<-gcDone
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	mgr.CloseDrain()

	snap := mgr.Counters().Snapshot()
	conservation(t, snap)
	if snap.Total() != pushed.Load() {
		t.Fatalf("Total() = %d, want %d pushed", snap.Total(), pushed.Load())
	}
	if snap.DroppedStale != 0 || snap.DroppedClosed != 0 {
		t.Fatalf("run shed items: %+v", snap)
	}

	// The replay: each session alone through a deterministic manager
	// over a fresh instance, so its view is rebuilt from scratch.
	replay := func(items []serve.Item) []core.Estimate {
		rc := newCollector()
		rm := serve.New(serve.Config{Deterministic: true, OnEstimate: rc.sink})
		defer rm.Close()
		if err := rm.Open("r", fix.profile.Clone(), cfg); err != nil {
			t.Fatal(err)
		}
		for _, it := range items {
			it.Session = "r"
			rm.Push(it)
		}
		return rc.got["r"]
	}
	want := map[string][]core.Estimate{}
	got := map[string][]core.Estimate{}
	matched := 0
	for i := 0; i < long; i++ {
		id := "long-" + sessID(i)
		want[id], got[id] = replay(stream(i, longItems)), col.got[id]
		for _, e := range want[id] {
			if e.Source == core.SourceCSI {
				matched++
			}
		}
	}
	if matched == 0 {
		t.Fatal("no CSI-matched estimates: the run never read the shared view")
	}
	assertSameEstimates(t, "shared-view", want, got)
	for c := 0; c < churners; c++ {
		for r := 0; r < rounds; r++ {
			id := "churn-" + sessID(c*rounds+r)
			w, g := replay(stream(c+r, churnItems)), col.got[id]
			if len(g) > len(w) {
				t.Fatalf("%s: %d estimates, replay has %d", id, len(g), len(w))
			}
			for k := range g {
				if g[k] != w[k] {
					t.Fatalf("%s: estimate %d = %+v, want %+v", id, k, g[k], w[k])
				}
			}
		}
	}
}
