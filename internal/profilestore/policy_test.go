package profilestore

import (
	"fmt"
	"sync"
	"testing"

	"vihot/internal/core"
)

// seqLoader records the order keys were loaded in — the observable
// trace every eviction decision leaves behind (an evicted key's next
// Get must reload).
type seqLoader struct {
	t   testing.TB
	mu  sync.Mutex
	seq []string
}

func (sl *seqLoader) Load(key string) (*core.Profile, error) {
	sl.mu.Lock()
	sl.seq = append(sl.seq, key)
	sl.mu.Unlock()
	seed := 0.0
	for _, c := range key {
		seed += float64(c)
	}
	return synthProfile(sl.t, 2, seed), nil
}

// refLRU is an independent model of the pre-v2 store's exact
// semantics: hit = move to front, miss = load + insert front, evict
// tail past capacity; Put = insert/replace + move front; Invalidate =
// drop. Deliberately written as a dumb slice so it shares no code
// with the intrusive-list implementation it checks.
type refLRU struct {
	cap   int
	order []string // front = most recent
	seq   []string // predicted loader-call sequence
}

func (r *refLRU) find(key string) int {
	for i, k := range r.order {
		if k == key {
			return i
		}
	}
	return -1
}

func (r *refLRU) front(key string) {
	if i := r.find(key); i >= 0 {
		r.order = append(r.order[:i], r.order[i+1:]...)
	}
	r.order = append([]string{key}, r.order...)
}

func (r *refLRU) get(key string) {
	if r.find(key) >= 0 {
		r.front(key)
		return
	}
	r.seq = append(r.seq, key)
	r.front(key)
	for len(r.order) > r.cap {
		r.order = r.order[:len(r.order)-1]
	}
}

func (r *refLRU) put(key string) {
	r.front(key)
	for len(r.order) > r.cap {
		r.order = r.order[:len(r.order)-1]
	}
}

func (r *refLRU) invalidate(key string) {
	if i := r.find(key); i >= 0 {
		r.order = append(r.order[:i], r.order[i+1:]...)
	}
}

// TestLRUTraceMatchesReference pins the store's eviction order to the
// pre-v2 store bit for bit: a seeded mixed Get/Put/Invalidate trace
// must produce exactly the loader-call sequence the reference model
// predicts — same misses, same victims, same order.
func TestLRUTraceMatchesReference(t *testing.T) {
	const (
		capacity = 6
		keyspace = 17
		ops      = 4000
	)
	sl := &seqLoader{t: t}
	s := New(Config{Shards: 1, Capacity: capacity, Loader: sl})
	ref := &refLRU{cap: capacity}

	rng := uint64(0x9e3779b97f4a7c15) // fixed seed: the trace is the test
	next := func(n int) int {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return int(rng % uint64(n))
	}
	put := synthProfile(t, 1, 42)
	for i := 0; i < ops; i++ {
		key := fmt.Sprintf("k%02d", next(keyspace))
		switch op := next(20); {
		case op < 17: // Get dominates, like production
			if _, err := s.Get(key); err != nil {
				t.Fatal(err)
			}
			ref.get(key)
		case op < 19:
			if err := s.Put(key, put); err != nil {
				t.Fatal(err)
			}
			ref.put(key)
		default:
			s.Invalidate(key)
			ref.invalidate(key)
		}
	}
	if len(sl.seq) != len(ref.seq) {
		t.Fatalf("loader calls = %d, reference predicts %d", len(sl.seq), len(ref.seq))
	}
	for i := range ref.seq {
		if sl.seq[i] != ref.seq[i] {
			t.Fatalf("load %d = %s, reference predicts %s (eviction order diverged)",
				i, sl.seq[i], ref.seq[i])
		}
	}
	if s.Len() != len(ref.order) {
		t.Errorf("len = %d, reference holds %d", s.Len(), len(ref.order))
	}
}

// gatedLoader blocks each Load until released, so a test can hold a
// load in flight while it races other operations against it.
type gatedLoader struct {
	t       testing.TB
	started chan string
	release chan struct{}
	calls   map[string]int
	mu      sync.Mutex
}

func newGatedLoader(t testing.TB) *gatedLoader {
	return &gatedLoader{
		t:       t,
		started: make(chan string, 16),
		release: make(chan struct{}, 16),
		calls:   map[string]int{},
	}
}

func (gl *gatedLoader) Load(key string) (*core.Profile, error) {
	gl.mu.Lock()
	gl.calls[key]++
	gl.mu.Unlock()
	gl.started <- key
	<-gl.release
	return synthProfile(gl.t, 1, 1), nil
}

func (gl *gatedLoader) count(key string) int {
	gl.mu.Lock()
	defer gl.mu.Unlock()
	return gl.calls[key]
}

// TestInvalidateDuringLoad is the satellite race test: an Invalidate
// issued while the key's load is in flight must not be undone when
// the load lands — waiters get the instance, the cache does not.
// Run under -race (the profilestore package is in the race matrix).
func TestInvalidateDuringLoad(t *testing.T) {
	gl := newGatedLoader(t)
	s := New(Config{Shards: 1, Capacity: 4, Loader: gl})

	var (
		got  *core.Profile
		gerr error
		done = make(chan struct{})
	)
	go func() {
		defer close(done)
		got, gerr = s.Get("stale")
	}()
	<-gl.started // the load is now in flight

	if s.Invalidate("stale") {
		t.Error("Invalidate reported a not-yet-cached key as present")
	}
	gl.release <- struct{}{}
	<-done
	if gerr != nil || got == nil {
		t.Fatalf("in-flight waiter: %v", gerr)
	}

	// The invalidated load must not have been cached: the next Get
	// goes back to the loader.
	redo := make(chan struct{})
	go func() {
		defer close(redo)
		if _, err := s.Get("stale"); err != nil {
			t.Errorf("reload after invalidate: %v", err)
		}
	}()
	<-gl.started
	gl.release <- struct{}{}
	<-redo
	if n := gl.count("stale"); n != 2 {
		t.Errorf("loader calls = %d, want 2: the invalidated load was resurrected", n)
	}
	if s.Len() != 1 {
		t.Errorf("len = %d, want 1 (only the post-invalidate load cached)", s.Len())
	}
}

// TestConcurrentInvalidateGetHammer drives Gets and Invalidates at
// one key from many goroutines — pure -race fodder for the flight
// marking.
func TestConcurrentInvalidateGetHammer(t *testing.T) {
	cl := &countingLoader{t: t}
	s := New(Config{Shards: 2, Capacity: 4, Loader: cl})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				key := fmt.Sprintf("k%d", i%3)
				if g%4 == 0 && i%7 == 0 {
					s.Invalidate(key)
					continue
				}
				if p, err := s.Get(key); err != nil || p == nil {
					t.Errorf("get %s: %v", key, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestPoliciesHonorCapacity checks that the store's eviction policy
// holds every shard to its slots on both insertion paths at once:
// loader-backed Gets and caller Puts race over more keys than fit.
// The profiles gauge must agree with the cached count, and a final
// sweep over every key must leave the store exactly full.
func TestPoliciesHonorCapacity(t *testing.T) {
	const (
		shards   = 3
		capacity = 10
		keys     = 60
	)
	cl := &countingLoader{t: t}
	s := New(Config{Shards: shards, Capacity: capacity, Loader: cl})
	profiles := make([]*core.Profile, keys)
	for k := range profiles {
		profiles[k] = synthProfile(t, 2, float64(k))
	}
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := (g*7 + i) % keys
				key := fmt.Sprintf("driver-%d", k)
				if g%2 == 0 {
					if err := s.Put(key, profiles[k]); err != nil {
						t.Errorf("put %s: %v", key, err)
						return
					}
					continue
				}
				if p, err := s.Get(key); err != nil || p == nil {
					t.Errorf("get %s: %v", key, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for i, sh := range s.shards {
		if n := len(sh.items); n > sh.capacity {
			t.Errorf("shard %d holds %d profiles, capacity %d", i, n, sh.capacity)
		}
	}
	if n, st := s.Len(), s.Stats(); n > capacity || st.Profiles != n {
		t.Errorf("len = %d, profiles gauge = %d, capacity %d", n, st.Profiles, capacity)
	}

	for k := 0; k < keys; k++ {
		if err := s.Put(fmt.Sprintf("driver-%d", k), profiles[k]); err != nil {
			t.Fatal(err)
		}
	}
	if n := s.Len(); n != capacity {
		t.Errorf("after a sweep over %d keys len = %d, want exactly %d", keys, n, capacity)
	}
}

// TestHotHitAllocFree pins the hot path's zero-allocation contract in
// the tier-1 suite: a warm Get is one shard lock, one map probe, one
// list splice and one atomic add.
func TestHotHitAllocFree(t *testing.T) {
	cl := &countingLoader{t: t}
	s := New(Config{Loader: cl})
	if _, err := s.Get("hot"); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(1000, func() {
		if p, err := s.Get("hot"); err != nil || p == nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("warm Get: %v allocs/op, want 0", n)
	}
}
