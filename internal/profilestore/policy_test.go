package profilestore

import (
	"fmt"
	"sync"
	"testing"

	"vihot/internal/core"
)

// allPolicies enumerates the policy matrix for shared subtests.
var allPolicies = []Policy{PolicyLRU, PolicyLFU}

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

// TestParsePolicy pins the flag values vihot-serve's -profile-policy
// accepts: the empty default and the two policy names round-trip, and
// anything else is refused.
func TestParsePolicy(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Policy
		ok   bool
	}{
		{"", PolicyLRU, true},
		{"lru", PolicyLRU, true},
		{"lfu", PolicyLFU, true},
		{"2q", PolicyLRU, false},
		{"bogus", PolicyLRU, false},
	} {
		got, err := ParsePolicy(tc.in)
		if (err == nil) != tc.ok || got != tc.want {
			t.Errorf("ParsePolicy(%q) = %v, %v; want %v, ok=%v", tc.in, got, err, tc.want, tc.ok)
		}
		if tc.ok && tc.in != "" && got.String() != tc.in {
			t.Errorf("ParsePolicy(%q).String() = %q", tc.in, got.String())
		}
	}
}

// TestLRUTraceMatchesReference pins Config.Policy's default to the
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

// TestLFUKeepsFrequentKeys: under LFU a profile with hit history
// survives churn that would evict it under LRU.
func TestLFUKeepsFrequentKeys(t *testing.T) {
	cl := &countingLoader{t: t}
	s := New(Config{Shards: 1, Capacity: 3, Policy: PolicyLFU, Loader: cl})

	for i := 0; i < 5; i++ {
		if _, err := s.Get("hot"); err != nil {
			t.Fatal(err)
		}
	}
	// Churn through one-shot keys: each insert evicts the
	// least-frequent entry, which is never "hot".
	for i := 0; i < 10; i++ {
		if _, err := s.Get(fmt.Sprintf("scan-%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	before := cl.calls.Load()
	if _, err := s.Get("hot"); err != nil {
		t.Fatal(err)
	}
	if cl.calls.Load() != before {
		t.Error("LFU evicted the frequent key during a one-shot scan")
	}
}

// TestLFUTieBreaksLeastRecent: equal use counts evict the
// least-recently-admitted first.
func TestLFUTieBreaksLeastRecent(t *testing.T) {
	cl := &countingLoader{t: t}
	s := New(Config{Shards: 1, Capacity: 3, Policy: PolicyLFU, Loader: cl})
	for _, k := range []string{"a", "b", "c"} { // all frequency 1
		if _, err := s.Get(k); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Get("d"); err != nil { // evicts the oldest: "a"
		t.Fatal(err)
	}
	before := cl.calls.Load()
	for _, k := range []string{"b", "c"} {
		if _, err := s.Get(k); err != nil {
			t.Fatal(err)
		}
	}
	if cl.calls.Load() != before {
		t.Error("b or c reloaded: wrong tie-break victim")
	}
	if _, err := s.Get("a"); err != nil {
		t.Fatal(err)
	}
	if cl.calls.Load() != before+1 {
		t.Error("a was not the eviction victim")
	}
}

// TestAdmissionDoorkeeper: with the filter armed and the shard full,
// a first-touch key is served but not cached; its second touch is
// admitted and only then may it evict.
func TestAdmissionDoorkeeper(t *testing.T) {
	cl := &countingLoader{t: t}
	s := New(Config{Shards: 1, Capacity: 2, Admission: true, Loader: cl})
	for _, k := range []string{"a", "b"} { // below capacity: admitted freely
		if _, err := s.Get(k); err != nil {
			t.Fatal(err)
		}
	}

	p, err := s.Get("c") // full shard, first touch: rejected
	if err != nil || p == nil {
		t.Fatalf("rejected load must still serve the caller: %v", err)
	}
	if s.Len() != 2 {
		t.Fatalf("len = %d after rejected admission, want 2", s.Len())
	}
	st := s.Stats()
	if st.AdmissionRejected != 1 || st.Evictions != 0 {
		t.Fatalf("stats after first touch: %+v", st)
	}
	// The established profiles were not displaced.
	before := cl.calls.Load()
	for _, k := range []string{"a", "b"} {
		if _, err := s.Get(k); err != nil {
			t.Fatal(err)
		}
	}
	if cl.calls.Load() != before {
		t.Error("a or b reloaded: rejection still evicted")
	}

	if _, err := s.Get("c"); err != nil { // second touch: admitted
		t.Fatal(err)
	}
	st = s.Stats()
	if st.DoorkeeperAdmits != 1 || st.Evictions != 1 {
		t.Fatalf("stats after second touch: %+v", st)
	}
	before = cl.calls.Load()
	if _, err := s.Get("c"); err != nil {
		t.Fatal(err)
	}
	if cl.calls.Load() != before {
		t.Error("admitted key missed the cache")
	}
}

// TestAdmissionPutBypasses: Put is an explicit publish and never
// consults the doorkeeper — cluster replication depends on this.
func TestAdmissionPutBypasses(t *testing.T) {
	cl := &countingLoader{t: t}
	s := New(Config{Shards: 1, Capacity: 2, Admission: true, Loader: cl})
	for _, k := range []string{"a", "b"} {
		if _, err := s.Get(k); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Put("pushed", synthProfile(t, 1, 9)); err != nil {
		t.Fatal(err)
	}
	before := cl.calls.Load()
	if _, err := s.Get("pushed"); err != nil {
		t.Fatal(err)
	}
	if cl.calls.Load() != before {
		t.Error("Put result missed the cache: admission filtered an explicit publish")
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
// Exercised for every policy under -race (the profilestore package is
// in the race matrix).
func TestInvalidateDuringLoad(t *testing.T) {
	for _, pol := range allPolicies {
		t.Run(pol.String(), func(t *testing.T) {
			gl := newGatedLoader(t)
			s := New(Config{Shards: 1, Capacity: 4, Policy: pol, Loader: gl})

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

			// The invalidated load must not have been cached: the next
			// Get goes back to the loader.
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
		})
	}
}

// TestConcurrentInvalidateGetHammer drives Gets and Invalidates at
// one key from many goroutines — pure -race fodder for the flight
// marking, across the policy matrix.
func TestConcurrentInvalidateGetHammer(t *testing.T) {
	for _, pol := range allPolicies {
		t.Run(pol.String(), func(t *testing.T) {
			cl := &countingLoader{t: t}
			s := New(Config{Shards: 2, Capacity: 4, Policy: pol, Loader: cl})
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
		})
	}
}

// TestPoliciesHonorCapacity runs the existing mixed-key hammer across
// the policy/admission matrix: whatever the strategy, the cache never
// exceeds capacity and every Get is served.
func TestPoliciesHonorCapacity(t *testing.T) {
	for _, pol := range allPolicies {
		for _, adm := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/admission=%v", pol, adm), func(t *testing.T) {
				cl := &countingLoader{t: t}
				s := New(Config{Shards: 4, Capacity: 8, Policy: pol, Admission: adm, Loader: cl})
				var wg sync.WaitGroup
				for g := 0; g < 16; g++ {
					wg.Add(1)
					go func(g int) {
						defer wg.Done()
						for i := 0; i < 200; i++ {
							key := fmt.Sprintf("driver-%d", (g+i)%24)
							p, err := s.Get(key)
							if err != nil || p == nil {
								t.Errorf("get %s: %v", key, err)
								return
							}
						}
					}(g)
				}
				wg.Wait()
				if s.Len() > 8 {
					t.Errorf("len = %d exceeds capacity", s.Len())
				}
			})
		}
	}
}
