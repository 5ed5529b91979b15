package profilestore

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"weak"

	"vihot/internal/core"
)

// cloneLoader serves a fresh deep copy of each key's content per
// Load, as a disk read would, and counts the calls.
type cloneLoader struct {
	content map[string]*core.Profile
	calls   atomic.Int64
}

func newCloneLoader(t testing.TB, keys ...string) *cloneLoader {
	cl := &cloneLoader{content: map[string]*core.Profile{}}
	for i, k := range keys {
		cl.content[k] = synthProfile(t, 2, float64(i))
	}
	return cl
}

func (cl *cloneLoader) Load(key string) (*core.Profile, error) {
	cl.calls.Add(1)
	p, ok := cl.content[key]
	if !ok {
		return nil, fmt.Errorf("no profile %q", key)
	}
	return p.Clone(), nil
}

// liveEntry returns the instance the store's live table lists under
// key, and whether it lists an entry at all.
func liveEntry(s *Store, key string) (*core.Profile, bool) {
	sh := s.shardFor(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	r, ok := sh.live[key]
	return r.p.Value(), ok
}

// collect runs the GC until w's instance is gone and done reports
// true, failing the test after a deadline.
func collect(t *testing.T, w weak.Pointer[core.Profile], done func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		runtime.GC()
		if w.Value() == nil && done() {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("after GC: instance live %v, condition %v", w.Value() != nil, done())
		}
		time.Sleep(time.Millisecond)
	}
}

// getWeak resolves key and returns only a weak reference to the
// instance, so the caller's frame keeps nothing reachable.
func getWeak(t *testing.T, s *Store, key string) weak.Pointer[core.Profile] {
	t.Helper()
	p, err := s.Get(key)
	if err != nil {
		t.Fatal(err)
	}
	return weak.Make(p)
}

func mustGet(t *testing.T, s *Store, key string) *core.Profile {
	t.Helper()
	p, err := s.Get(key)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestReloadAdoptsLiveInstance: a key evicted while a caller still
// holds its instance reloads to that same instance. The loader still
// runs, and the books count a miss and a load as before.
func TestReloadAdoptsLiveInstance(t *testing.T) {
	cl := newCloneLoader(t, "a", "b")
	s := New(Config{Shards: 1, Capacity: 1, Loader: cl})
	held := mustGet(t, s, "a")
	mustGet(t, s, "b") // capacity 1: evicts "a"
	if p := mustGet(t, s, "a"); p != held {
		t.Error("reload of an evicted, still-held key returned a second instance")
	}
	if got := cl.calls.Load(); got != 3 {
		t.Errorf("loader calls = %d, want 3: every miss still loads", got)
	}
	if st := s.Stats(); st.Misses != 3 || st.Loads != 3 || st.Hits != 0 || st.Evictions != 2 {
		t.Errorf("stats %+v, want 3 misses, 3 loads, 0 hits, 2 evictions", st)
	}
	if again := mustGet(t, s, "a"); again != held {
		t.Error("the adopted instance is not the cached one")
	}
}

// TestLiveTablePinsNothing: once the last holder drops an evicted
// instance, the GC reclaims it and its entry leaves the table; the
// next reload registers the fresh instance.
func TestLiveTablePinsNothing(t *testing.T) {
	cl := newCloneLoader(t, "a", "b")
	s := New(Config{Shards: 1, Capacity: 1, Loader: cl})
	w := getWeak(t, s, "a")
	mustGet(t, s, "b") // evicts "a"; nothing else holds it
	collect(t, w, func() bool {
		_, listed := liveEntry(s, "a")
		return !listed
	})
	p := mustGet(t, s, "a")
	if live, _ := liveEntry(s, "a"); live != p {
		t.Error("the fresh instance is not the listed one")
	}
	if got := cl.calls.Load(); got != 3 {
		t.Errorf("loader calls = %d, want 3", got)
	}
}

// TestInvalidateForgetsLiveInstance: after Invalidate, a reload of
// equal content is a new instance even while the old one is held, and
// later reloads re-adopt the new one.
func TestInvalidateForgetsLiveInstance(t *testing.T) {
	cl := newCloneLoader(t, "a", "b")
	s := New(Config{Shards: 1, Capacity: 1, Loader: cl})
	old := mustGet(t, s, "a")
	if !s.Invalidate("a") {
		t.Fatal("Invalidate missed a cached key")
	}
	fresh := mustGet(t, s, "a")
	if fresh == old {
		t.Fatal("reload after Invalidate re-adopted the invalidated instance")
	}
	if !fresh.BitEqual(old) {
		t.Fatal("loader content changed")
	}
	mustGet(t, s, "b") // evicts "a"
	if p := mustGet(t, s, "a"); p != fresh {
		t.Error("reload after eviction did not re-adopt the post-Invalidate instance")
	}
	runtime.KeepAlive(old)
}

// TestRewrittenProfileIsNotAdopted: a profile file rewritten with new
// content reloads as a new instance of that content, even while the
// old instance is held, and that instance is the one later reloads
// re-adopt.
func TestRewrittenProfileIsNotAdopted(t *testing.T) {
	dl := NewDirLoader(t.TempDir())
	v1, v2 := synthProfile(t, 2, 1), synthProfile(t, 2, 2)
	for key, p := range map[string]*core.Profile{"alice": v1, "bob": v1} {
		if err := dl.Save(key, p); err != nil {
			t.Fatal(err)
		}
	}
	s := New(Config{Shards: 1, Capacity: 1, Loader: dl})
	old := mustGet(t, s, "alice")
	mustGet(t, s, "bob") // evicts "alice"
	if err := dl.Save("alice", v2); err != nil {
		t.Fatal(err)
	}
	p := mustGet(t, s, "alice")
	if p == old {
		t.Fatal("a rewritten profile re-adopted the old instance")
	}
	if !p.BitEqual(v2) || p.Fingerprint() != v2.Fingerprint() {
		t.Error("reload does not hold the rewritten content")
	}
	if !old.BitEqual(v1) {
		t.Error("the held instance changed")
	}
	mustGet(t, s, "bob") // evicts "alice" again
	if q := mustGet(t, s, "alice"); q != p {
		t.Error("reload did not re-adopt the rewritten content's instance")
	}
}

// TestDeadInstanceKeepsNewerEntry: the cleanup of an instance the
// table no longer lists must not delete the newer instance's entry.
func TestDeadInstanceKeepsNewerEntry(t *testing.T) {
	cl := newCloneLoader(t, "a", "b")
	s := New(Config{Shards: 1, Capacity: 1, Loader: cl})
	hold := []*core.Profile{mustGet(t, s, "a")}
	w := weak.Make(hold[0])
	s.Invalidate("a")
	// One goroutine runs every cleanup in turn. Block it first, so the
	// old instance's cleanup runs only after the newer one is listed.
	release := make(chan struct{})
	blocker := weak.Make(func() *[64]byte {
		b := new([64]byte)
		runtime.AddCleanup(b, func(ch chan struct{}) { <-ch }, release)
		return b
	}())
	for deadline := time.Now().Add(10 * time.Second); blocker.Value() != nil; runtime.GC() {
		if time.Now().After(deadline) {
			close(release)
			t.Fatal("the blocker was never collected")
		}
	}
	hold[0] = nil
	collect(t, w, func() bool { return true })
	held := mustGet(t, s, "a")
	close(release)
	for end := time.Now().Add(50 * time.Millisecond); time.Now().Before(end); {
		runtime.GC()
		if live, _ := liveEntry(s, "a"); live != held {
			t.Fatal("a dead instance's cleanup unlisted the live one")
		}
		time.Sleep(time.Millisecond)
	}
	mustGet(t, s, "b") // evicts "a"
	if p := mustGet(t, s, "a"); p != held {
		t.Error("reload did not re-adopt the listed instance")
	}
}

// TestPutRegistersAsIs: Put caches and lists its own instance, never
// swapping it for a live equal one, and a later reload re-adopts it.
func TestPutRegistersAsIs(t *testing.T) {
	cl := newCloneLoader(t, "a", "b")
	s := New(Config{Shards: 1, Capacity: 1, Loader: cl})
	loaded := mustGet(t, s, "a")
	put := loaded.Clone()
	if err := s.Put("a", put); err != nil {
		t.Fatal(err)
	}
	if p := mustGet(t, s, "a"); p != put {
		t.Fatal("Put's instance was swapped for a live equal one")
	}
	mustGet(t, s, "b") // evicts "a"
	if p := mustGet(t, s, "a"); p != put {
		t.Error("reload did not re-adopt the Put instance")
	}
	runtime.KeepAlive(loaded)
}

// TestAdoptionStorm races Gets, holds, evictions, Invalidates and
// collections over a few keys (run under -race: the profilestore
// package is in the race matrix). Every result must hold its key's
// content; once every holder lets go, the live tables list exactly
// the cached instances.
func TestAdoptionStorm(t *testing.T) {
	keys := []string{"k0", "k1", "k2", "k3", "k4", "k5"}
	cl := newCloneLoader(t, keys...)
	ref := map[string]*core.Profile{}
	for _, k := range keys {
		ref[k], _ = cl.Load(k)
	}
	s := New(Config{Shards: 2, Capacity: 2, Loader: cl})

	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			var held []*core.Profile
			for i := 0; i < 300; i++ {
				key := keys[rng.Intn(len(keys))]
				if g == 0 && i%5 == 0 {
					s.Invalidate(key)
					continue
				}
				p, err := s.Get(key)
				if err != nil {
					t.Errorf("get %s: %v", key, err)
					return
				}
				if !p.BitEqual(ref[key]) {
					t.Errorf("get %s: wrong content", key)
					return
				}
				held = append(held, p)
				if len(held) > 4 {
					held = held[1:]
				}
			}
		}(g)
	}
	stop, gcDone := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(gcDone)
		for {
			select {
			case <-stop:
				return
			default:
				runtime.GC()
			}
		}
	}()
	wg.Wait()
	close(stop)
	<-gcDone

	cachedOnly := func() bool {
		for _, sh := range s.shards {
			sh.mu.Lock()
			ok := len(sh.live) == len(sh.items)
			for k, e := range sh.items {
				if sh.live[k].p.Value() != e.p {
					ok = false
				}
			}
			sh.mu.Unlock()
			if !ok {
				return false
			}
		}
		return true
	}
	deadline := time.Now().Add(10 * time.Second)
	for !cachedOnly() {
		if time.Now().After(deadline) {
			t.Fatal("the live tables still list instances only dropped holders used")
		}
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
}
