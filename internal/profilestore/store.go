// Package profilestore resolves driver profiles by key (driver or
// cabin ID) through a sharded LRU cache of immutable,
// fingerprinted *core.Profile instances — the profile lifecycle layer
// a fleet server needs between "millions of drivers on disk" and
// "thousands of open tracking sessions in RAM".
//
// # Sharing model
//
// The store hands out the cached *core.Profile itself, never a copy.
// That is safe because profiles are immutable once published (see the
// core.Profile contract): N sessions opened for one driver all track
// against one instance, and the cache costs one profile of memory per
// distinct driver, not per session. The trackers over one instance
// also share its recentred match grids, which core keeps only while a
// tracker is open, so an idle cached profile costs the profile alone.
// Eviction only drops the store's reference — sessions already holding
// the profile keep it alive (the GC, not the cache, owns lifetime), so
// evicting a hot driver can never invalidate an open session.
//
// # Re-adoption
//
// A reload must not split a driver's sessions across two instances.
// Each shard keeps a weak table from key to the newest instance
// published under it, with its fingerprint. When a load's result is
// bit-equal to that instance (core.Profile.BitEqual) and the instance
// is still live, the store returns and caches it, and the fresh copy
// becomes garbage: however often a key is evicted, the sessions over
// one driver share one profile and one match view. The loader still
// runs on every miss, so a rewritten profile file is picked up. A
// cleanup on each instance deletes its entry once the GC collects it,
// so the table pins nothing; Invalidate forgets the entry at once.
//
// # Eviction
//
// Each shard keeps one intrusive recency list: a hit splices the entry
// to the front, a new entry goes in at the front, and an insert past
// the shard's capacity evicts the tail. LRU is the only policy because
// the store serves one known access pattern — one profile per car
// seat, touched at trip open, far off the per-frame path — and on the
// fleet benchmark LFU and a second-touch admission filter each saved
// one cold load in 33 trip opens, well inside every bound (DESIGN.md
// §15).
//
// # Concurrency
//
// Keys hash onto independent shards (FNV-1a, like serve's session
// routing), each guarded by its own mutex, so unrelated drivers never
// contend. The hot hit path is one shard lock, one map probe, and an
// intrusive-list splice: zero allocations (TestHotHitAllocFree). Cold
// keys dedupe loads singleflight-style: the first Get for a key starts
// the loader, concurrent Gets for the same key park on that flight's
// done channel, and all of them receive the one loaded instance — N
// racing opens cost one disk read, never N. GetMany extends the same
// dedup across a batch: a fleet open of N sessions over M distinct
// keys performs exactly M loader calls, cold loads overlapping.
//
// # Metrics
//
// With Config.Metrics set the store exports
// vihot_profilestore_{hits,misses,evictions,loads,load_errors}_total,
// the vihot_profilestore_bytes / _profiles gauges, and a
// vihot_profilestore_load_seconds latency histogram. Without it the
// same counters back Stats() from a private registry.
package profilestore

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"
	"weak"

	"vihot/internal/core"
	"vihot/internal/obs"
)

// Errors returned by the store.
var (
	// ErrNoLoader means the store was built without a Loader and a Get
	// missed the cache.
	ErrNoLoader = errors.New("profilestore: no loader configured")
	// ErrEmptyKey rejects "" as a profile key.
	ErrEmptyKey = errors.New("profilestore: empty profile key")
)

// Loader fetches the profile for a key on a cache miss. Load runs
// outside all shard locks and may be called concurrently for
// *different* keys; the store guarantees at most one in-flight Load
// per key. The returned profile is published as immutable and shared
// — a loader must hand over ownership, never retain and mutate it.
type Loader interface {
	Load(key string) (*core.Profile, error)
}

// LoaderFunc adapts a function to the Loader interface.
type LoaderFunc func(key string) (*core.Profile, error)

// Load implements Loader.
func (f LoaderFunc) Load(key string) (*core.Profile, error) { return f(key) }

// Config tunes a Store. The zero value of every field selects a
// default.
type Config struct {
	// Shards is the number of independent cache shards. Default 8.
	Shards int
	// Capacity is the maximum number of cached profiles across all
	// shards. Default 256. The slots are split across the shards and
	// sum to exactly Capacity (the first Capacity%Shards shards hold
	// one extra); a shard past its slots evicts its least recently
	// used profile, so a skewed key distribution can leave the store
	// holding fewer than Capacity profiles, never more.
	Capacity int
	// Loader resolves cache misses. Optional: a store without one is a
	// pure cache fed by Put, and Get on a cold key fails ErrNoLoader.
	Loader Loader
	// Metrics, if set, registers the store's series there for
	// scraping. Stats() works either way.
	Metrics *obs.Registry
}

// entry is one cached profile plus its intrusive recency links.
// prev/next are only touched under the owning shard's lock.
type entry struct {
	key        string
	p          *core.Profile
	fp         uint64
	bytes      int64
	prev, next *entry
}

// list is one intrusive doubly-linked entry list (head = most
// recently used, tail = eviction end).
type list struct {
	head, tail *entry
}

// pushFront links e at the head. e must be unlinked.
func (l *list) pushFront(e *entry) {
	e.next = l.head
	if l.head != nil {
		l.head.prev = e
	}
	l.head = e
	if l.tail == nil {
		l.tail = e
	}
}

// remove unlinks e.
func (l *list) remove(e *entry) {
	if e.prev != nil {
		e.prev.next = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	}
	if l.head == e {
		l.head = e.next
	}
	if l.tail == e {
		l.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

// moveToFront splices a linked e to the head.
func (l *list) moveToFront(e *entry) {
	if l.head == e {
		return
	}
	l.remove(e)
	l.pushFront(e)
}

// popTail unlinks and returns the tail, nil when empty.
func (l *list) popTail() *entry {
	e := l.tail
	if e != nil {
		l.remove(e)
	}
	return e
}

// flight is one in-progress load that concurrent Gets for the same
// key share. invalidated is guarded by the owning shard's mutex: an
// Invalidate racing the load marks it so the result is delivered to
// waiters but never cached.
type flight struct {
	done        chan struct{}
	p           *core.Profile
	fp          uint64
	err         error
	invalidated bool
}

// shard is an independent slice of the keyspace: a map for O(1)
// probes, the recency list, the in-flight load table, and the table of
// live instances.
type shard struct {
	mu       sync.Mutex
	items    map[string]*entry
	lru      list
	capacity int
	inflight map[string]*flight
	live     map[string]liveRef
}

// liveRef is a weak reference to the newest instance published under
// a key, with its fingerprint. It outlives the cache entry as long as
// some session holds the instance, and pins nothing.
type liveRef struct {
	p  weak.Pointer[core.Profile]
	fp uint64
}

// liveKey names one live-table entry, the argument of its cleanup.
type liveKey struct {
	key string
	p   weak.Pointer[core.Profile]
}

// adoptLocked returns the live instance registered under key if it
// holds exactly p's content, so a reload of an evicted key hands out
// the instance its sessions already share. Otherwise it registers p
// and returns it. Caller holds sh.mu.
func (sh *shard) adoptLocked(key string, p *core.Profile, fp uint64) *core.Profile {
	if r, ok := sh.live[key]; ok && r.fp == fp {
		if q := r.p.Value(); q != nil && q.BitEqual(p) {
			return q
		}
	}
	sh.registerLocked(key, p, fp)
	return p
}

// registerLocked makes p the live instance under key. A cleanup on p
// deletes the entry once p is collected, unless a newer instance
// replaced it. Caller holds sh.mu.
func (sh *shard) registerLocked(key string, p *core.Profile, fp uint64) {
	w := weak.Make(p)
	if sh.live[key].p == w {
		return
	}
	sh.live[key] = liveRef{w, fp}
	runtime.AddCleanup(p, sh.forget, liveKey{key, w})
}

// forget removes a dead instance's entry unless a newer one replaced
// it.
func (sh *shard) forget(k liveKey) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.live[k.key].p == k.p {
		delete(sh.live, k.key)
	}
}

// Store is the concurrency-safe profile resolver. Build with New.
type Store struct {
	shards []*shard
	loader Loader

	hits       *obs.Counter
	misses     *obs.Counter
	evictions  *obs.Counter
	loads      *obs.Counter
	loadErrors *obs.Counter
	bytes      *obs.Gauge
	profiles   *obs.Gauge
	loadSec    *obs.Histogram
}

// New builds a Store.
func New(cfg Config) *Store {
	if cfg.Shards < 1 {
		cfg.Shards = 8
	}
	if cfg.Capacity < 1 {
		cfg.Capacity = 256
	}
	if cfg.Capacity < cfg.Shards {
		// Fewer slots than shards would zero some shards' capacity;
		// shrink the shard count instead so Capacity stays honest.
		cfg.Shards = cfg.Capacity
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	s := &Store{
		loader: cfg.Loader,
		hits: reg.Counter("vihot_profilestore_hits_total",
			"profile lookups served from cache"),
		misses: reg.Counter("vihot_profilestore_misses_total",
			"profile lookups that missed the cache"),
		evictions: reg.Counter("vihot_profilestore_evictions_total",
			"profiles evicted by cache pressure"),
		loads: reg.Counter("vihot_profilestore_loads_total",
			"loader invocations (deduplicated across concurrent misses)"),
		loadErrors: reg.Counter("vihot_profilestore_load_errors_total",
			"loader invocations that failed"),
		bytes: reg.Gauge("vihot_profilestore_bytes",
			"approximate heap bytes of cached profile grids"),
		profiles: reg.Gauge("vihot_profilestore_profiles",
			"profiles currently cached"),
		loadSec: reg.Histogram("vihot_profilestore_load_seconds",
			"wall-clock latency of one loader invocation", obs.LatencyBuckets()),
	}
	for i := 0; i < cfg.Shards; i++ {
		capacity := cfg.Capacity / cfg.Shards
		if i < cfg.Capacity%cfg.Shards {
			capacity++ // the remainder's slots: the shards sum to Capacity
		}
		s.shards = append(s.shards, &shard{
			items:    make(map[string]*entry),
			capacity: capacity,
			inflight: make(map[string]*flight),
			live:     make(map[string]liveRef),
		})
	}
	return s
}

// shardFor routes a key to its shard (FNV-1a, allocation-free).
func (s *Store) shardFor(key string) *shard {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return s.shards[h%uint32(len(s.shards))]
}

// profileBytes approximates a profile's heap footprint: the grids
// dominate, headers are noise.
func profileBytes(p *core.Profile) int64 {
	n := int64(16) // MatchRateHz + slice header, roughly
	for _, pos := range p.Positions {
		n += 32 + 8*int64(len(pos.PhiGrid)+len(pos.ThetaGrid))
	}
	return n
}

// Get resolves key to its profile: cache hit, joining an in-flight
// load, or a fresh loader call — whichever the moment requires. All
// concurrent callers for one cold key receive the same instance from
// one loader invocation.
func (s *Store) Get(key string) (*core.Profile, error) {
	p, _, err := s.Resolve(key)
	return p, err
}

// Resolve is Get plus the cached content fingerprint, saving the
// caller the O(grid) recompute when it wants to label a session with
// the profile generation it tracks against.
func (s *Store) Resolve(key string) (*core.Profile, uint64, error) {
	if key == "" {
		return nil, 0, ErrEmptyKey
	}
	p, fp, f, owned, err := s.acquire(key)
	if err != nil {
		return nil, 0, err
	}
	if f == nil {
		return p, fp, nil
	}
	if owned {
		s.runLoad(key, f)
	} else {
		// Someone else is loading this key: park on their flight.
		<-f.done
	}
	return f.p, f.fp, f.err
}

// acquire is the shared front half of Resolve and GetMany: under the
// shard lock it returns a cache hit, or the flight to wait on (owned
// = this caller must run the load), or the no-loader error.
func (s *Store) acquire(key string) (*core.Profile, uint64, *flight, bool, error) {
	sh := s.shardFor(key)
	sh.mu.Lock()
	if e, ok := sh.items[key]; ok {
		sh.lru.moveToFront(e)
		// Capture under the lock: a concurrent Put may replace e's
		// instance the moment we release it.
		p, fp := e.p, e.fp
		sh.mu.Unlock()
		s.hits.Add(1)
		return p, fp, nil, false, nil
	}
	s.misses.Add(1)
	if f, ok := sh.inflight[key]; ok {
		sh.mu.Unlock()
		return nil, 0, f, false, nil
	}
	if s.loader == nil {
		sh.mu.Unlock()
		return nil, 0, nil, false, fmt.Errorf("%w (key %q)", ErrNoLoader, key)
	}
	f := &flight{done: make(chan struct{})}
	sh.inflight[key] = f
	sh.mu.Unlock()
	return nil, 0, f, true, nil
}

// runLoad executes the loader for an owned flight and publishes the
// result to the cache and every waiter. It runs outside the shard
// lock: a slow disk stalls only Gets for this key, and hits for other
// keys on the same shard proceed unhindered.
func (s *Store) runLoad(key string, f *flight) {
	start := time.Now()
	p, err := s.loader.Load(key)
	s.loadSec.Observe(time.Since(start).Seconds())
	s.loads.Add(1)
	if err == nil && p == nil {
		err = fmt.Errorf("profilestore: loader returned nil profile for key %q", key)
	}
	sh := s.shardFor(key)
	if err != nil {
		s.loadErrors.Add(1)
		f.err = fmt.Errorf("profilestore: load %q: %w", key, err)
		sh.mu.Lock()
		delete(sh.inflight, key) // errors are not cached: next Get retries
		sh.mu.Unlock()
		close(f.done)
		return
	}
	f.p, f.fp = p, p.Fingerprint()
	sh.mu.Lock()
	delete(sh.inflight, key)
	if !f.invalidated {
		// An Invalidate that raced this load wins: waiters get the
		// instance, but it is neither adopted, registered nor cached —
		// the next Get loads fresh.
		f.p = sh.adoptLocked(key, p, f.fp)
		s.insertLocked(sh, key, f.p, f.fp)
	}
	sh.mu.Unlock()
	close(f.done)
}

// Put publishes a profile under key, bypassing the loader — for
// warming a cache at startup or registering a freshly built profile.
// The store takes the instance as-is (no copy); the caller must treat
// it as immutable from this point on. An existing entry for key is
// replaced (sessions holding the old instance keep it), and p becomes
// the instance later reloads of key may re-adopt.
func (s *Store) Put(key string, p *core.Profile) error {
	if key == "" {
		return ErrEmptyKey
	}
	if p == nil || len(p.Positions) == 0 {
		return core.ErrEmptyProfile
	}
	fp := p.Fingerprint()
	sh := s.shardFor(key)
	sh.mu.Lock()
	sh.registerLocked(key, p, fp)
	s.insertLocked(sh, key, p, fp)
	sh.mu.Unlock()
	return nil
}

// insertLocked adds or replaces the entry for key at the front of the
// recency list and evicts from the tail down to capacity. Caller
// holds sh.mu.
func (s *Store) insertLocked(sh *shard, key string, p *core.Profile, fp uint64) {
	if e, ok := sh.items[key]; ok {
		s.bytes.Add(float64(-e.bytes))
		e.p, e.fp, e.bytes = p, fp, profileBytes(p)
		s.bytes.Add(float64(e.bytes))
		sh.lru.moveToFront(e)
		return
	}
	e := &entry{key: key, p: p, fp: fp, bytes: profileBytes(p)}
	sh.items[key] = e
	sh.lru.pushFront(e)
	s.bytes.Add(float64(e.bytes))
	s.profiles.Add(1)
	for len(sh.items) > sh.capacity {
		victim := sh.lru.popTail()
		delete(sh.items, victim.key)
		s.bytes.Add(float64(-victim.bytes))
		s.profiles.Add(-1)
		s.evictions.Add(1)
	}
}

// Invalidate drops key from the cache (a re-profiled driver, say) and
// reports whether a cached entry was present. Sessions already
// tracking against the dropped instance are unaffected; the next Get
// loads a fresh instance, never re-adopting theirs. A load in flight
// for key is marked: its waiters still
// receive the instance they asked for, but the result is not cached,
// so the invalidation can never be undone by a racing load.
func (s *Store) Invalidate(key string) bool {
	sh := s.shardFor(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if f, ok := sh.inflight[key]; ok {
		f.invalidated = true
	}
	delete(sh.live, key)
	e, ok := sh.items[key]
	if !ok {
		return false
	}
	sh.lru.remove(e)
	delete(sh.items, key)
	s.bytes.Add(float64(-e.bytes))
	s.profiles.Add(-1)
	return true
}

// Len returns the number of cached profiles.
func (s *Store) Len() int {
	n := 0
	for _, sh := range s.shards {
		sh.mu.Lock()
		n += len(sh.items)
		sh.mu.Unlock()
	}
	return n
}

// Stats is one observation of the store's counters (see the Counters
// consistency note in internal/obs: monotone per field, not a
// consistent cut).
type Stats struct {
	Hits       uint64
	Misses     uint64
	Evictions  uint64
	Loads      uint64
	LoadErrors uint64
	Bytes      int64 // approximate cached grid bytes
	Profiles   int   // cached profile count
}

// HitRate is hits/(hits+misses), 0 when no lookups happened.
func (st Stats) HitRate() float64 {
	if st.Hits+st.Misses == 0 {
		return 0
	}
	return float64(st.Hits) / float64(st.Hits+st.Misses)
}

// Stats returns the current counter values.
func (s *Store) Stats() Stats {
	return Stats{
		Hits:       s.hits.Value(),
		Misses:     s.misses.Value(),
		Evictions:  s.evictions.Value(),
		Loads:      s.loads.Value(),
		LoadErrors: s.loadErrors.Value(),
		Bytes:      int64(s.bytes.Value()),
		Profiles:   int(s.profiles.Value()),
	}
}
