package profilestore

import (
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"vihot/internal/core"
	"vihot/internal/dsp"
	"vihot/internal/obs"
)

// writeLegacyGob emits the pre-envelope on-disk encoding, for
// migration-path coverage.
func writeLegacyGob(w io.Writer, p *core.Profile) error {
	return gob.NewEncoder(w).Encode(p)
}

// synthProfile builds a small deterministic profile; seed varies the
// content so distinct keys get distinct fingerprints.
func synthProfile(t testing.TB, positions int, seed float64) *core.Profile {
	t.Helper()
	var recs []core.SweepRecording
	for i := 0; i < positions; i++ {
		rec := core.SweepRecording{Position: i, Fingerprint: float64(i)*0.5 - 1 + seed*0.01}
		for ts := 0.0; ts < 4; ts += 0.005 {
			theta := 80 * math.Sin(2*math.Pi*ts/4)
			phi := rec.Fingerprint + 0.8*math.Sin(theta*math.Pi/180)
			rec.Phase = append(rec.Phase, dsp.Sample{T: ts, V: phi})
			rec.Orientation = append(rec.Orientation, dsp.Sample{T: ts, V: theta})
		}
		recs = append(recs, rec)
	}
	p, err := core.BuildProfile(recs, 100)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// countingLoader serves synthetic profiles and counts Load calls.
type countingLoader struct {
	calls atomic.Int64
	t     testing.TB
	fail  map[string]error
}

func (cl *countingLoader) Load(key string) (*core.Profile, error) {
	cl.calls.Add(1)
	if err, ok := cl.fail[key]; ok {
		return nil, err
	}
	seed := 0.0
	for _, c := range key {
		seed += float64(c)
	}
	return synthProfile(cl.t, 2, seed), nil
}

func TestStoreHitMissLRUEviction(t *testing.T) {
	cl := &countingLoader{t: t}
	s := New(Config{Shards: 1, Capacity: 2, Loader: cl})

	a1, err := s.Get("a")
	if err != nil {
		t.Fatal(err)
	}
	a2, err := s.Get("a")
	if err != nil {
		t.Fatal(err)
	}
	if a1 != a2 {
		t.Error("repeat Get returned a different instance")
	}
	if _, err := s.Get("b"); err != nil {
		t.Fatal(err)
	}
	// Touch "a" so "b" is the LRU victim when "c" arrives.
	if _, err := s.Get("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get("c"); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Evictions != 1 {
		t.Errorf("evictions = %d, want 1", st.Evictions)
	}
	if s.Len() != 2 {
		t.Errorf("len = %d, want 2", s.Len())
	}
	// "a" must have survived (3 loads total: a, b, c; a re-Get hits).
	if _, err := s.Get("a"); err != nil {
		t.Fatal(err)
	}
	if got := cl.calls.Load(); got != 3 {
		t.Errorf("loader calls = %d, want 3 (a survived, b evicted)", got)
	}
	// "b" was evicted: next Get reloads.
	if _, err := s.Get("b"); err != nil {
		t.Fatal(err)
	}
	if got := cl.calls.Load(); got != 4 {
		t.Errorf("loader calls = %d, want 4 after evicted reload", got)
	}
	st = s.Stats()
	if st.Hits < 3 || st.Misses != st.Loads {
		t.Errorf("stats off: %+v", st)
	}
	if st.Bytes <= 0 || st.Profiles != 2 {
		t.Errorf("sizing off: %+v", st)
	}
}

// TestProfileStoreSharedColdKey is the acceptance test for the
// singleflight + shared-immutable contract: a 64-goroutine storm of
// Gets for one cold key triggers exactly one loader call, and every
// caller receives the same instance with the same fingerprint. Run
// under -race this also proves the flight handoff is properly
// synchronized.
func TestProfileStoreSharedColdKey(t *testing.T) {
	const storm = 64
	cl := &countingLoader{t: t}
	s := New(Config{Capacity: 8, Loader: cl, Metrics: obs.NewRegistry()})

	var (
		start sync.WaitGroup
		done  sync.WaitGroup
		gate  = make(chan struct{})
		got   [storm]*core.Profile
		fps   [storm]uint64
		errs  [storm]error
	)
	start.Add(storm)
	done.Add(storm)
	for i := 0; i < storm; i++ {
		go func(i int) {
			defer done.Done()
			start.Done()
			<-gate
			p, fp, err := s.Resolve("driver-7")
			got[i], fps[i], errs[i] = p, fp, err
		}(i)
	}
	start.Wait()
	close(gate)
	done.Wait()

	for i := 0; i < storm; i++ {
		if errs[i] != nil {
			t.Fatalf("goroutine %d: %v", i, errs[i])
		}
		if got[i] == nil {
			t.Fatalf("goroutine %d: nil profile", i)
		}
		if got[i] != got[0] {
			t.Fatalf("goroutine %d received a different instance", i)
		}
		if fps[i] != fps[0] {
			t.Fatalf("goroutine %d received fingerprint %016x, want %016x", i, fps[i], fps[0])
		}
	}
	if calls := cl.calls.Load(); calls != 1 {
		t.Errorf("loader calls = %d, want exactly 1 for one cold key", calls)
	}
	if fps[0] != got[0].Fingerprint() {
		t.Error("cached fingerprint disagrees with recompute")
	}
	st := s.Stats()
	if st.Loads != 1 {
		t.Errorf("Stats.Loads = %d, want 1", st.Loads)
	}
	if st.Hits+st.Misses != storm {
		t.Errorf("hits+misses = %d, want %d", st.Hits+st.Misses, storm)
	}
}

// TestStoreConcurrentMixedKeys hammers many keys from many goroutines
// with a capacity small enough to force constant eviction — the
// -race workout for the LRU list and flight table. Every Get is
// served, the shards' slots sum to exactly Capacity (also when it is
// not a multiple of Shards), and the store never caches more.
func TestStoreConcurrentMixedKeys(t *testing.T) {
	for _, tc := range []struct{ shards, capacity, keys int }{
		{4, 8, 24},
		{8, 10, 200},
		{3, 10, 200},
	} {
		t.Run(fmt.Sprintf("shards=%d,capacity=%d", tc.shards, tc.capacity), func(t *testing.T) {
			cl := &countingLoader{t: t}
			s := New(Config{Shards: tc.shards, Capacity: tc.capacity, Loader: cl})
			slots := 0
			for _, sh := range s.shards {
				slots += sh.capacity
			}
			if slots != tc.capacity {
				t.Errorf("shard slots sum to %d, want %d", slots, tc.capacity)
			}
			var wg sync.WaitGroup
			for g := 0; g < 16; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := 0; i < 200; i++ {
						key := fmt.Sprintf("driver-%d", (g+i)%tc.keys)
						p, err := s.Get(key)
						if err != nil || p == nil {
							t.Errorf("get %s: %v", key, err)
							return
						}
					}
				}(g)
			}
			wg.Wait()
			if n := s.Len(); n > tc.capacity {
				t.Errorf("len = %d exceeds capacity %d", n, tc.capacity)
			}
		})
	}
}

func TestLoadErrorsPropagateAndAreNotCached(t *testing.T) {
	boom := errors.New("disk on fire")
	cl := &countingLoader{t: t, fail: map[string]error{"bad": boom}}
	s := New(Config{Loader: cl})
	if _, err := s.Get("bad"); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped loader error", err)
	}
	// The failure is not negative-cached: a later Get retries the
	// loader (which now succeeds).
	delete(cl.fail, "bad")
	if _, err := s.Get("bad"); err != nil {
		t.Fatalf("retry after transient failure: %v", err)
	}
	if calls := cl.calls.Load(); calls != 2 {
		t.Errorf("loader calls = %d, want 2 (fail, then retry)", calls)
	}
	if st := s.Stats(); st.LoadErrors != 1 {
		t.Errorf("LoadErrors = %d, want 1", st.LoadErrors)
	}
}

func TestStoreWithoutLoader(t *testing.T) {
	s := New(Config{})
	if _, err := s.Get("x"); !errors.Is(err, ErrNoLoader) {
		t.Errorf("err = %v, want ErrNoLoader", err)
	}
	p := synthProfile(t, 1, 0)
	if err := s.Put("x", p); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get("x")
	if err != nil || got != p {
		t.Fatalf("Put/Get = %v, %v (want the published instance)", got, err)
	}
	if !s.Invalidate("x") {
		t.Error("Invalidate missed a present key")
	}
	if s.Invalidate("x") {
		t.Error("Invalidate reported a dropped key as present")
	}
	if _, err := s.Get(""); !errors.Is(err, ErrEmptyKey) {
		t.Errorf("empty key err = %v", err)
	}
}

// TestEvictionLeavesOpenSessionsIntact pins the lifetime rule: an
// evicted profile stays fully usable by holders; only the store's
// reference is dropped.
func TestEvictionLeavesOpenSessionsIntact(t *testing.T) {
	cl := &countingLoader{t: t}
	s := New(Config{Shards: 1, Capacity: 1, Loader: cl})
	held, err := s.Get("held")
	if err != nil {
		t.Fatal(err)
	}
	fp := held.Fingerprint()
	if _, err := s.Get("evictor"); err != nil { // capacity 1: evicts "held"
		t.Fatal(err)
	}
	if s.Stats().Evictions != 1 {
		t.Fatalf("eviction did not happen: %+v", s.Stats())
	}
	// The held instance still tracks and still fingerprints the same.
	if held.Fingerprint() != fp {
		t.Error("evicted profile changed under the holder")
	}
	if _, err := core.NewTracker(held, core.DefaultConfig()); err != nil {
		t.Errorf("evicted profile rejected by tracker: %v", err)
	}
}

func TestStoreMetricsExposition(t *testing.T) {
	reg := obs.NewRegistry()
	cl := &countingLoader{t: t}
	s := New(Config{Capacity: 1, Shards: 1, Loader: cl, Metrics: reg})
	if _, err := s.Get("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get("b"); err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	want := []string{
		"vihot_profilestore_hits_total 1",
		"vihot_profilestore_misses_total 2",
		"vihot_profilestore_evictions_total 1",
		"vihot_profilestore_loads_total 2",
		"vihot_profilestore_load_errors_total 0",
		"vihot_profilestore_bytes ",
		"vihot_profilestore_profiles 1",
		"vihot_profilestore_load_seconds_count 2",
	}
	for _, series := range want {
		if !strings.Contains(text, series) {
			t.Errorf("exposition missing %q", series)
		}
	}
	// The series above match only unlabelled (no policy label), and
	// the store exposes no other family: no admission-filter counters.
	families := map[string]bool{}
	for _, line := range strings.Split(text, "\n") {
		name, _, _ := strings.Cut(line, " ")
		name, _, _ = strings.Cut(name, "{")
		if !strings.HasPrefix(name, "vihot_profilestore_") {
			continue
		}
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			name = strings.TrimSuffix(name, suffix)
		}
		families[name] = true
	}
	for _, w := range want {
		name, _, _ := strings.Cut(w, " ")
		delete(families, strings.TrimSuffix(name, "_count"))
	}
	if len(families) != 0 {
		t.Errorf("unexpected profile-store series: %v", families)
	}
}

func TestDirLoader(t *testing.T) {
	dir := t.TempDir()
	dl := NewDirLoader(dir)
	p := synthProfile(t, 2, 1)
	if err := dl.Save("alice", p); err != nil {
		t.Fatal(err)
	}
	got, err := dl.Load("alice")
	if err != nil {
		t.Fatal(err)
	}
	if got.Fingerprint() != p.Fingerprint() {
		t.Error("fingerprint changed across save/load")
	}
	if _, err := dl.Load("nobody"); !errors.Is(err, ErrNotFound) {
		t.Errorf("missing profile err = %v, want ErrNotFound", err)
	}
	for _, bad := range []string{"", ".", "..", "a/b", `a\b`, "x\x00y"} {
		if _, err := dl.Load(bad); err == nil {
			t.Errorf("key %q accepted", bad)
		}
	}
	// A corrupt file surfaces the decode error, not a silent miss.
	if err := os.WriteFile(filepath.Join(dir, "mangled"+ProfileExt),
		[]byte("ViHP garbage after the magic"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := dl.Load("mangled"); !errors.Is(err, core.ErrCorruptProfile) {
		t.Errorf("corrupt file err = %v, want ErrCorruptProfile", err)
	}
}

// TestDirLoaderOverwriteRoundTrip: re-profiling a driver replaces the
// file under the exact dl.Path-validated name — atomically, with no
// temp litter beside it — and the next Load sees the new profile.
func TestDirLoaderOverwriteRoundTrip(t *testing.T) {
	dir := t.TempDir()
	dl := NewDirLoader(dir)
	p1 := synthProfile(t, 2, 7)
	p2 := synthProfile(t, 3, 8)

	if err := dl.Save("alice", p1); err != nil {
		t.Fatal(err)
	}
	path, err := dl.Path("alice")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("saved profile not at dl.Path: %v", err)
	}
	if err := dl.Save("alice", p2); err != nil {
		t.Fatal(err)
	}
	got, err := dl.Load("alice")
	if err != nil {
		t.Fatal(err)
	}
	if got.Fingerprint() != p2.Fingerprint() {
		t.Error("overwrite did not replace the profile")
	}
	// Straight from the validated path too, not just through Load.
	direct, err := core.LoadProfile(path)
	if err != nil {
		t.Fatal(err)
	}
	if direct.Fingerprint() != p2.Fingerprint() {
		t.Error("dl.Path file does not hold the overwritten profile")
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 || ents[0].Name() != "alice"+ProfileExt {
		names := make([]string, len(ents))
		for i, e := range ents {
			names[i] = e.Name()
		}
		t.Errorf("directory not clean after overwrite: %v", names)
	}
}

// TestStoreThroughDirLoader is the end-to-end cold path: profiles on
// disk in both encodings resolve through one store.
func TestStoreThroughDirLoader(t *testing.T) {
	dir := t.TempDir()
	dl := NewDirLoader(dir)
	v1 := synthProfile(t, 2, 3)
	if err := dl.Save("modern", v1); err != nil {
		t.Fatal(err)
	}
	// A legacy-gob profile dropped into the same directory.
	legacy := synthProfile(t, 2, 4)
	lf, err := os.Create(filepath.Join(dir, "vintage"+ProfileExt))
	if err != nil {
		t.Fatal(err)
	}
	if err := writeLegacyGob(lf, legacy); err != nil {
		t.Fatal(err)
	}
	if err := lf.Close(); err != nil {
		t.Fatal(err)
	}
	s := New(Config{Loader: dl})
	for key, want := range map[string]uint64{
		"modern":  v1.Fingerprint(),
		"vintage": legacy.Fingerprint(),
	} {
		_, fp, err := s.Resolve(key)
		if err != nil {
			t.Fatalf("%s: %v", key, err)
		}
		if fp != want {
			t.Errorf("%s fingerprint = %016x, want %016x", key, fp, want)
		}
	}
}
