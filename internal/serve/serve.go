// Package serve is the concurrent multi-session tracking engine: many
// independent driver Pipelines running behind one facade, sharded
// across worker goroutines so a single receiver process can track a
// whole fleet of cabins.
//
// # Concurrency model
//
// A Manager owns N shards. Every session is assigned permanently to
// the shard hash(sessionID) mod N, and each shard is serviced by
// exactly one worker goroutine that owns its sessions' Pipelines plus
// one dtw.Matcher of scratch shared by all of them (see the ownership
// rules on dtw.Matcher and core.Tracker.SetMatcher). Because only the
// owning worker ever touches a pipeline, the DTW hot path runs with no
// locks at all; the only synchronization is the shard's bounded ingest
// queue.
//
// Ordering guarantees: items pushed for one session from one goroutine
// are processed in push order — they land on one shard's FIFO queue
// and one worker drains it. Items for different sessions on different
// shards have no relative ordering. Pushing one session's stream from
// multiple goroutines concurrently forfeits that session's ordering
// (the queue serializes arbitrarily), so don't.
//
// Load shedding: each shard queue is bounded. When a push finds the
// queue full the oldest queued item — the stalest frame, the one least
// likely to still matter for a live estimate — is dropped and counted
// in Counters.DroppedStale. CSI at 500 Hz is redundant; a tracker
// absorbs gaps the same way it absorbs CSMA jitter.
//
// The OnEstimate sink is invoked from worker goroutines: serially for
// any one session, concurrently across sessions on different shards.
// It must therefore be safe for concurrent use keyed by session.
//
// Profile resolution: Open takes a caller-supplied *core.Profile;
// OpenByKey resolves one through the Config.Profiles store instead.
// Either way the profile is shared by reference across every session
// opened over it — profiles are immutable (core.Profile's contract),
// so sharing needs no locks. The recentred grids the trackers scan
// are shared the same way: core builds them once per profile instance
// and keeps them while any session over it is open. A driver therefore
// costs one profile and one such view of memory, not one per session.
// Evicting a profile from the store never affects sessions already
// holding it.
//
// # Deterministic mode
//
// Config.Deterministic disables the workers entirely: Push and
// PushBatch process items synchronously on the caller's goroutine, in
// submission order, with no queueing and no drops. Per-session results
// are estimate-for-estimate identical to the concurrent mode (proved
// by TestSessionManagerEquivalence) because pipelines are confined to
// one goroutine either way and matcher scratch carries no state; the
// mode exists so tests and replay tools get a totally ordered
// execution. A deterministic Manager is not safe for concurrent use.
package serve

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"vihot/internal/camera"
	"vihot/internal/core"
	"vihot/internal/csi"
	"vihot/internal/dtw"
	"vihot/internal/imu"
	"vihot/internal/journal"
	"vihot/internal/obs"
	"vihot/internal/profilestore"
)

// Errors returned by the Manager.
var (
	ErrClosed         = errors.New("serve: manager closed")
	ErrDuplicateID    = errors.New("serve: session already open")
	ErrUnknownSession = errors.New("serve: unknown session")
	ErrNoSessionID    = errors.New("serve: empty session id")
	ErrNoProfileStore = errors.New("serve: no profile store configured")
)

// Config tunes a Manager. The zero value selects the defaults.
type Config struct {
	// Shards is the number of worker goroutines (and session shards).
	// Default 4.
	Shards int
	// QueueLen is the per-shard bounded queue capacity in items.
	// Default 4096. When a queue is full the oldest item is shed.
	QueueLen int
	// Deterministic runs every push synchronously on the caller's
	// goroutine: no workers, no queues, no drops. For tests and
	// replay; see the package comment.
	Deterministic bool
	// OnEstimate receives every estimate any session produces. Called
	// serially per session, concurrently across shards; nil discards
	// estimates (Counters still tally them).
	OnEstimate func(session string, est core.Estimate)

	// Profiles, if set, lets OpenByKey resolve driver profiles by key
	// through the store's sharded cache instead of requiring callers
	// to load and hand over a *core.Profile themselves. Sessions
	// opened for the same key share one immutable profile instance
	// (see the core.Profile immutability contract); concurrent opens
	// for a cold key collapse to a single loader read inside the
	// store. Optional: Open keeps working without it.
	Profiles *profilestore.Store

	// SessionTTLS, when > 0, enables stream-time idle-session reaping:
	// a session whose own clock lags its shard's stream clock (the max
	// admitted timestamp across the shard's sessions) by more than
	// this many seconds is evicted, exactly as if CloseSession had
	// been called. Sessions opened but never fed are granted one full
	// TTL from the first sweep that sees them. The sweep runs on the
	// stream's own timeline — the clocks the health machine already
	// maintains — so it reads no wall clocks and reaps at identical
	// points across deterministic replays. Zero, a negative value or
	// NaN disables reaping.
	SessionTTLS float64
	// OnEvent, if set, receives every session event that is not an
	// estimate — health transitions (journal.KindHealth), idle-TTL
	// reaps (KindReap) and explicit CloseSession calls (KindClose) —
	// as the very record the journal writes. Transitions and reaps
	// arrive serially per shard, concurrently across shards, with one
	// sweep's reaps in sorted session order; closes arrive on the
	// CloseSession caller's goroutine. Close and CloseDrain publish no
	// events.
	OnEvent func(rec journal.Record)

	// Journal, if set, receives one durable record per delivered
	// estimate, health transition, idle-TTL reap, and explicit
	// CloseSession — the write-behind journal a crashed receiver
	// recovers warm-restart state from (journal.Recover). Appends are
	// non-blocking by the journal's contract: a slow disk sheds
	// records (counted in JournalDropped), never stalls a worker.
	// Flush, and so CloseDrain, commits the tail batch. The manager
	// does not own the writer — the caller closes it after CloseDrain,
	// which writes the clean-shutdown trailer.
	Journal *journal.Writer

	// RecycleFrames transfers ownership of every pushed KindFrame
	// frame to the manager: once the frame has been sanitized or
	// dropped (queue shed, unknown session, closed manager, abandoned
	// backlog) it is released to the csi frame pool for reuse by
	// wifi.DecodePooled. Callers must push frames drawn from that pool
	// (or otherwise unshared) and must not retain or re-push them.
	// Off by default: the manager then never touches frames it did
	// not allocate, and replaying one item slice twice stays legal.
	RecycleFrames bool

	// Metrics, if set, registers the manager's metrics there (traffic
	// counters, session gauge, per-stage latency and queue-dwell
	// histograms) for scraping — typically via obs.NewMux. If nil the
	// counters still work (Counters/Snapshot read them) but stage
	// timing is disabled: the manager reads no wall clocks at all, so
	// deterministic runs stay byte-identical. Stage timing reads the
	// clock once per stage boundary — enqueue, dequeue, sanitized
	// (KindFrame only) and tracked, as Pipeline.PushCSI returns — plus
	// twice around a DTW match, so the dwell, sanitize and track spans
	// tile; track covers health bookkeeping, tracker and fusion blend.
	Metrics *obs.Registry
	// Trace, if set, records the same per-item spans (dwell, sanitize,
	// match, track) into the tracer's ring for JSON export.
	// Independent of Metrics; either enables stage timing.
	Trace *obs.Tracer
}

// ItemKind discriminates what an Item carries.
type ItemKind uint8

// Item kinds.
const (
	KindPhase  ItemKind = iota // a sanitized CSI phase sample
	KindFrame                  // a raw CSI frame; the worker sanitizes
	KindIMU                    // a phone IMU reading
	KindCamera                 // a fallback-camera estimate
)

// Item is one ingested sample addressed to a session. Exactly the
// fields implied by Kind are meaningful.
type Item struct {
	Session string
	Kind    ItemKind
	Time    float64         // KindPhase
	Phi     float64         // KindPhase
	Frame   *csi.Frame      // KindFrame
	IMU     imu.Reading     // KindIMU
	Camera  camera.Estimate // KindCamera

	// enqNS is the enqueue instant (an obs.Now stamp), taken only
	// when instrumentation is on, so workers can report queue dwell.
	enqNS int64
}

// Counters tallies a Manager's traffic. Every field is a
// registry-backed obs.Counter updated with atomic adds — no shared
// lock sits between shards — so a Snapshot is monotone per field but
// not a cross-field consistent cut. When Config.Metrics is set these
// are the same series a scrape sees (DESIGN.md §9 names them); when it
// is not, they live in a private registry and Snapshot is the only
// reader.
type Counters struct {
	phasesIn        *obs.Counter
	framesIn        *obs.Counter
	imuIn           *obs.Counter
	cameraIn        *obs.Counter
	processed       *obs.Counter
	estimates       *obs.Counter
	droppedStale    *obs.Counter
	droppedUnknown  *obs.Counter
	sanitizeErrors  *obs.Counter
	rejectedTime    *obs.Counter
	suppressedStale *obs.Counter
	coasted         *obs.Counter
	toDegraded      *obs.Counter
	toCoasting      *obs.Counter
	toStale         *obs.Counter
	recoveries      *obs.Counter
	trackerResets   *obs.Counter
	rejectedKind    *obs.Counter
	rejectedClosed  *obs.Counter
	droppedClosed   *obs.Counter
	reaped          *obs.Counter
	closed          *obs.Counter
	journalAppended *obs.Counter
	journalDropped  *obs.Counter

	// jw, when journaling is configured, is where Snapshot reads the
	// asynchronous write/sync failure count from — errors happen on
	// the journal's writer goroutine, long after the append that
	// caused them returned.
	jw *journal.Writer
}

// CounterSnapshot is one observation of the counters. Conservation:
// every item the manager took accounting responsibility for is
// eventually processed, dropped, or was rejected at the door for a
// corrupt kind, so after a Flush (or CloseDrain) with no concurrent
// pushers,
//
//	Total() == Processed + DroppedStale + DroppedUnknown +
//	           DroppedClosed + RejectedKind
//
// where DroppedClosed is zero unless a hard Close abandoned a
// backlog, and Estimates equals the number of OnEstimate invocations
// (pipeline estimates that were not stale-suppressed, plus Coasted).
// RejectedClosed items were refused before any accounting and are
// deliberately outside Total: a closed manager accepts no
// responsibility for them.
type CounterSnapshot struct {
	PhasesIn       uint64 // KindPhase items accepted into a queue
	FramesIn       uint64 // KindFrame items accepted into a queue
	IMUIn          uint64 // KindIMU items accepted into a queue
	CameraIn       uint64 // KindCamera items accepted into a queue
	Processed      uint64 // items that reached their session's pipeline stage
	Estimates      uint64 // estimates delivered across all sessions
	DroppedStale   uint64 // items shed because a shard queue was full
	DroppedUnknown uint64 // items addressed to sessions never opened (or already closed/reaped)
	DroppedClosed  uint64 // queued items abandoned by a hard Close
	SanitizeErrors uint64 // KindFrame items whose sanitizer rejected the frame
	RejectedTime   uint64 // items rejected for non-finite, non-monotone, or far-future timestamps
	RejectedKind   uint64 // items refused at push: an unknown Item.Kind, or a KindFrame item with a nil Frame
	RejectedClosed uint64 // items refused at push because the manager was closed
	SessionsReaped uint64 // sessions evicted by the idle-TTL sweep
	SessionsClosed uint64 // sessions removed by explicit CloseSession

	// Durability traffic (Config.Journal; zero when journaling is
	// off). With journaling on for the whole run, after a drain:
	//
	//	JournalAppended + JournalDropped ==
	//	    Estimates + ToDegraded + ToCoasting + ToStale +
	//	    Recoveries + SessionsReaped + SessionsClosed
	//
	// JournalErrors counts asynchronous write/sync failures inside the
	// journal itself — records that were appended (so they sit on the
	// left of the identity) but may not have reached the disk.
	JournalAppended uint64 // records accepted by the write-behind journal
	JournalDropped  uint64 // records shed at append (queue full or journal closed)
	JournalErrors   uint64 // asynchronous journal write/sync failures

	// Degradation state machine traffic (see the Health type).
	SuppressedStale uint64 // pipeline estimates discarded because the session was STALE
	Coasted         uint64 // camera/forecast estimates emitted while COASTING
	ToDegraded      uint64 // transitions into DEGRADED
	ToCoasting      uint64 // transitions into COASTING
	ToStale         uint64 // transitions into STALE
	Recoveries      uint64 // transitions back into HEALTHY
	TrackerResets   uint64 // tracker restarts after a CSI blackout
}

// Total returns the number of items the manager is accountable for:
// everything accepted into a queue (the four kind counters) plus the
// items refused at push time for a corrupt Kind. RejectedClosed items
// are excluded — see the CounterSnapshot conservation note.
func (s CounterSnapshot) Total() uint64 {
	return s.PhasesIn + s.FramesIn + s.IMUIn + s.CameraIn + s.RejectedKind
}

// Snapshot returns the current counter values.
func (c *Counters) Snapshot() CounterSnapshot {
	return CounterSnapshot{
		PhasesIn:        c.phasesIn.Value(),
		FramesIn:        c.framesIn.Value(),
		IMUIn:           c.imuIn.Value(),
		CameraIn:        c.cameraIn.Value(),
		Processed:       c.processed.Value(),
		Estimates:       c.estimates.Value(),
		DroppedStale:    c.droppedStale.Value(),
		DroppedUnknown:  c.droppedUnknown.Value(),
		SanitizeErrors:  c.sanitizeErrors.Value(),
		RejectedTime:    c.rejectedTime.Value(),
		SuppressedStale: c.suppressedStale.Value(),
		Coasted:         c.coasted.Value(),
		ToDegraded:      c.toDegraded.Value(),
		ToCoasting:      c.toCoasting.Value(),
		ToStale:         c.toStale.Value(),
		Recoveries:      c.recoveries.Value(),
		TrackerResets:   c.trackerResets.Value(),
		RejectedKind:    c.rejectedKind.Value(),
		RejectedClosed:  c.rejectedClosed.Value(),
		DroppedClosed:   c.droppedClosed.Value(),
		SessionsReaped:  c.reaped.Value(),
		SessionsClosed:  c.closed.Value(),
		JournalAppended: c.journalAppended.Value(),
		JournalDropped:  c.journalDropped.Value(),
		JournalErrors:   journalErrors(c.jw),
	}
}

// journalErrors reads the configured journal's asynchronous failure
// count; zero without a journal.
func journalErrors(w *journal.Writer) uint64 {
	if w == nil {
		return 0
	}
	return w.Stats().Errors
}

// session is one driver's pipeline plus its degradation-state-machine
// bookkeeping. Everything except the published `health` atomic is
// touched only by its shard's worker goroutine (or the caller in
// deterministic mode).
type session struct {
	id string
	pl *core.Pipeline

	// health mirrors h for lock-free Manager.Health reads.
	health atomic.Uint32

	// clockBits mirrors now (as math.Float64bits) for close records,
	// which are built on the CloseSession caller's goroutine while the
	// shard worker may still be advancing the clock. The mirror is
	// maintained only when mirror is set (a Journal or OnEvent reads
	// close records), so the uninstrumented hot path pays nothing for
	// it.
	clockBits atomic.Uint64
	mirror    bool

	h       Health
	now     float64 // session clock: max admitted item timestamp
	haveNow bool

	lastCSI float64 // last accepted (sanitized, in-order) CSI sample
	haveCSI bool
	lastIMU float64
	haveIMU bool
	lastCam float64 // last valid camera estimate
	haveCam bool
	camYaw  float64 // yaw of that estimate, for camera coasting

	recovering   bool    // CSI resumed after coasting-or-worse; holding at DEGRADED
	recoverStart float64 // when flow resumed

	lastEst   core.Estimate // last emitted pipeline estimate, for forecast coasting
	hasEst    bool
	nextCoast float64 // coasted-output throttle

	// reapRef anchors the idle-TTL sweep for a session that has never
	// admitted an item (so has no clock of its own): the shard stream
	// time at which a sweep first saw it. Worker-only, like the rest.
	reapRef float64
	haveRef bool

	// st stamps the item in process when instrumented; the tracker's
	// match observer writes into it.
	st stamps
}

// shard is one worker's world: a bounded FIFO ring of items plus the
// sessions (and shared matcher scratch) the worker owns.
type shard struct {
	mu     sync.Mutex
	cond   *sync.Cond
	ring   []Item
	head   int // index of the oldest queued item
	count  int
	closed bool
	busy   bool // worker is processing a drained chunk

	// recycle mirrors Config.RecycleFrames so enqueue can release the
	// frames of items it sheds without reaching back to the Manager.
	recycle bool

	// sessions is written by Open/CloseSession/reap under mu and read
	// by the worker under mu; pipeline internals are worker-only.
	sessions map[string]*session
	matcher  *dtw.Matcher

	// Stream clock for the idle-TTL sweep: the max admitted timestamp
	// across the shard's sessions, plus the next stream time a sweep
	// is due at. Touched only by the goroutine that processes items
	// (the worker, or the caller in deterministic mode).
	clock     float64
	haveClock bool
	nextSweep float64
}

// enqueue appends items under one lock and one worker wakeup,
// shedding the stalest queued items when the ring is full. The wakeup
// fires only on the empty→non-empty edge: a worker with work in hand
// never sleeps, so re-signalling it per item would only burn futex
// calls on the ingest path.
//
// A closed shard's worker has exited (or is about to abandon the
// ring), so enqueue refuses the whole batch instead of queueing into
// a dead shard: closed=true, nothing queued, nothing counted here —
// the caller counts the rejection.
func (sh *shard) enqueue(items []Item) (dropped int, closed bool) {
	sh.mu.Lock()
	if sh.closed {
		sh.mu.Unlock()
		return 0, true
	}
	wasEmpty := sh.count == 0
	for _, it := range items {
		if sh.count == len(sh.ring) {
			// Shed the stalest queued item to make room. The shed
			// slot is exactly where the new item lands, so no zeroing
			// is needed — but a manager-owned frame must be released
			// now or it leaks to nowhere.
			if sh.recycle {
				if f := sh.ring[sh.head].Frame; f != nil {
					csi.PutFrame(f)
				}
			}
			sh.head = (sh.head + 1) % len(sh.ring)
			sh.count--
			dropped++
		}
		sh.ring[(sh.head+sh.count)%len(sh.ring)] = it
		sh.count++
	}
	if wasEmpty && sh.count > 0 {
		sh.cond.Broadcast()
	}
	sh.mu.Unlock()
	return dropped, false
}

func (sh *shard) push(it Item) (dropped, closed bool) {
	var one [1]Item
	one[0] = it
	d, c := sh.enqueue(one[:])
	return d > 0, c
}

// Manager runs many independent tracking sessions behind one facade.
// See the package comment for the concurrency model.
type Manager struct {
	cfg      Config
	shards   []*shard
	counters Counters
	obs      *managerObs // nil unless Metrics or Trace configured
	sessOpen *obs.Gauge
	wg       sync.WaitGroup

	mu     sync.Mutex
	closed bool
	nOpen  int
}

// New builds a Manager and, unless cfg.Deterministic, starts its
// workers. Close must be called to release them.
func New(cfg Config) *Manager {
	if cfg.Shards < 1 {
		cfg.Shards = 4
	}
	if cfg.Deterministic {
		cfg.Shards = 1
	}
	if cfg.QueueLen < 1 {
		cfg.QueueLen = 4096
	}
	m := &Manager{cfg: cfg}
	// The counters always exist (Snapshot is part of the API); without
	// a caller-supplied registry they live in a private one. Stage
	// timing, dwell tracking, and spans exist only on request.
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	m.counters = newCounters(reg)
	m.counters.jw = cfg.Journal
	m.sessOpen = reg.Gauge("vihot_serve_sessions_open", "currently open tracking sessions")
	if cfg.Metrics != nil || cfg.Trace != nil {
		m.obs = newManagerObs(cfg.Metrics, cfg.Trace)
	}
	for i := 0; i < cfg.Shards; i++ {
		sh := &shard{
			ring:     make([]Item, cfg.QueueLen),
			recycle:  cfg.RecycleFrames,
			sessions: make(map[string]*session),
			matcher:  dtw.NewMatcher(256),
		}
		sh.cond = sync.NewCond(&sh.mu)
		m.shards = append(m.shards, sh)
	}
	if !cfg.Deterministic {
		for _, sh := range m.shards {
			m.wg.Add(1)
			go m.worker(sh)
		}
	}
	return m
}

// shardHash is FNV-1a inlined so routing a frame allocates nothing.
func shardHash(id string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(id); i++ {
		h ^= uint32(id[i])
		h *= 16777619
	}
	return h
}

// shardIdx maps a session ID to its owning shard index.
func (m *Manager) shardIdx(id string) int {
	return int(shardHash(id) % uint32(len(m.shards)))
}

// shardFor maps a session ID to its owning shard.
func (m *Manager) shardFor(id string) *shard {
	return m.shards[m.shardIdx(id)]
}

// Counters exposes the traffic counters.
func (m *Manager) Counters() *Counters { return &m.counters }

// Sessions returns the number of open sessions.
func (m *Manager) Sessions() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.nOpen
}

// Open creates a tracking session over a caller-supplied driver
// profile. The session is pinned to one shard; its pipeline shares
// the shard worker's DTW scratch. The profile is adopted by
// reference, never copied — it must honour the core.Profile
// immutability contract, and the same instance may back any number of
// sessions (OpenByKey arranges exactly that through the store).
func (m *Manager) Open(id string, profile *core.Profile, cfg core.PipelineConfig) error {
	if id == "" {
		return ErrNoSessionID
	}
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return ErrClosed
	}
	m.mu.Unlock()
	pl, err := core.NewPipeline(profile, cfg)
	if err != nil {
		return fmt.Errorf("serve: open %q: %w", id, err)
	}
	sh := m.shardFor(id)
	sh.mu.Lock()
	// Close marks every shard closed under its own mutex, so checking
	// here (not just m.closed in the caller) makes registration atomic
	// with shutdown: a session can never land on a shard whose worker
	// has already been told to exit and so would never drain it.
	if sh.closed {
		sh.mu.Unlock()
		return ErrClosed
	}
	if _, ok := sh.sessions[id]; ok {
		sh.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrDuplicateID, id)
	}
	// The pipeline's tracker adopts the shard's shared scratch before
	// any worker touches it; results are unchanged (matcher state does
	// not carry between calls).
	pl.Tracker().SetMatcher(sh.matcher)
	s := &session{id: id, pl: pl, mirror: m.cfg.Journal != nil || m.cfg.OnEvent != nil}
	if m.obs != nil {
		// The observer runs on the shard worker that owns the pipeline,
		// inside process, which reports the stamps once the item is done.
		pl.Tracker().SetMatchObserver(func(start, end time.Time) {
			s.st.matchStart, s.st.matchEnd = obs.Stamp(start), obs.Stamp(end)
		})
	}
	sh.sessions[id] = s
	// Bookkeeping nests inside sh.mu (lock order: shard before
	// manager, never the reverse) so the count and gauge move
	// atomically with the registration — Close's purge can therefore
	// never observe the session without its count, or vice versa.
	m.mu.Lock()
	m.nOpen++
	m.mu.Unlock()
	m.sessOpen.Add(1)
	sh.mu.Unlock()
	return nil
}

// OpenByKey creates a tracking session over the profile the
// configured store resolves for key (driver/cabin ID). Cold keys cost
// one loader read no matter how many sessions race to open them, hot
// keys are a lock-and-probe, and every session for one key references
// the same immutable profile instance and the match view core builds
// for it — a fleet holding one profile per driver, not per session.
// That holds across evictions too: a key reloaded while sessions still
// track its old instance re-adopts that instance if the content is
// unchanged. Requires Config.Profiles.
func (m *Manager) OpenByKey(id, key string, cfg core.PipelineConfig) error {
	if id == "" {
		return ErrNoSessionID
	}
	if m.cfg.Profiles == nil {
		return ErrNoProfileStore
	}
	p, err := m.cfg.Profiles.Get(key)
	if err != nil {
		return fmt.Errorf("serve: open %q by key %q: %w", id, key, err)
	}
	return m.Open(id, p, cfg)
}

// KeyedOpen names one session of a batch open: the session ID and the
// profile key it tracks against.
type KeyedOpen struct {
	ID  string // session ID
	Key string // profile key (driver/cabin ID)
}

// OpenSessionsByKey opens a fleet of sessions in one call: every
// distinct profile key resolves through a single Profiles.GetMany —
// so N sessions over M driver styles cost exactly M loader calls,
// cold loads overlapping, duplicates shared — and each session then
// opens over its shared immutable instance. The returned slice aligns
// with opens: errs[i] is nil when opens[i] is serving. Per-session
// failures (a broken profile, a duplicate ID) fail that session only.
// The PR 4 cold-storm guarantee holds across calls too: batches and
// concurrent OpenByKey storms for one key join one in-flight load.
// Requires Config.Profiles.
func (m *Manager) OpenSessionsByKey(opens []KeyedOpen, cfg core.PipelineConfig) []error {
	errs := make([]error, len(opens))
	if len(opens) == 0 {
		return errs
	}
	if m.cfg.Profiles == nil {
		for i := range errs {
			errs[i] = ErrNoProfileStore
		}
		return errs
	}
	keys := make([]string, len(opens))
	for i, o := range opens {
		keys[i] = o.Key
	}
	ps, perrs := m.cfg.Profiles.GetMany(keys)
	for i, o := range opens {
		if o.ID == "" {
			errs[i] = ErrNoSessionID
			continue
		}
		if perrs[i] != nil {
			errs[i] = fmt.Errorf("serve: open %q by key %q: %w", o.ID, o.Key, perrs[i])
			continue
		}
		errs[i] = m.Open(o.ID, ps[i], cfg)
	}
	return errs
}

// Profile returns the profile instance a session tracks against and
// whether the session exists. The pointer identifies the shared
// instance (sessions opened via one store key return the very same
// profile); treat it as read-only.
func (m *Manager) Profile(id string) (*core.Profile, bool) {
	sh := m.shardFor(id)
	sh.mu.Lock()
	s, ok := sh.sessions[id]
	sh.mu.Unlock()
	if !ok {
		return nil, false
	}
	return s.pl.Profile(), true
}

// CloseSession removes a session. Items still queued for it are
// discarded as they drain (counted in DroppedUnknown, their pooled
// frames released when Config.RecycleFrames is set).
func (m *Manager) CloseSession(id string) error {
	sh := m.shardFor(id)
	sh.mu.Lock()
	s, ok := sh.sessions[id]
	delete(sh.sessions, id)
	if ok {
		m.mu.Lock()
		m.nOpen--
		m.mu.Unlock()
		m.sessOpen.Add(-1)
	}
	sh.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownSession, id)
	}
	m.publish(journal.Record{Kind: journal.KindClose, Session: id,
		T: math.Float64frombits(s.clockBits.Load()), Health: uint8(s.health.Load())})
	return nil
}

// recycle returns a manager-owned frame to the csi pool. It is a
// no-op unless Config.RecycleFrames transferred frame ownership to
// the manager; nil frames are ignored either way.
func (m *Manager) recycle(f *csi.Frame) {
	if m.cfg.RecycleFrames && f != nil {
		csi.PutFrame(f)
	}
}

// Push ingests one item. In concurrent mode it enqueues (shedding the
// shard's stalest item when full) and returns immediately; in
// deterministic mode it processes the item before returning. Items
// with an unknown Kind, and KindFrame items with no Frame, are refused
// and counted in RejectedKind; pushes against a closed manager are
// refused and counted in RejectedClosed.
func (m *Manager) Push(it Item) {
	if malformed(&it) {
		// A corrupt kind byte means no case of process() could count
		// or route the item, and a frame item without a frame has
		// nothing to sanitize — refuse it while the accounting can
		// still see it, so Total() conserves (DESIGN.md §11).
		m.counters.rejectedKind.Add(1)
		m.recycle(it.Frame)
		return
	}
	sh := m.shardFor(it.Session)
	if m.cfg.Deterministic {
		m.mu.Lock()
		closed := m.closed
		m.mu.Unlock()
		if closed {
			m.counters.rejectedClosed.Add(1)
			m.recycle(it.Frame)
			return
		}
		m.count(it)
		sh.mu.Lock()
		s := sh.sessions[it.Session]
		sh.mu.Unlock()
		m.process(sh, s, it)
		m.afterProcess(sh, s)
		return
	}
	if m.obs != nil {
		it.enqNS = obs.Now()
	}
	dropped, closed := sh.push(it)
	if closed {
		m.counters.rejectedClosed.Add(1)
		m.recycle(it.Frame)
		return
	}
	m.count(it)
	if dropped {
		m.counters.droppedStale.Add(1)
	}
}

// malformed reports whether process() could not handle the item: its
// Kind is unknown, or it is a KindFrame item with no Frame to sanitize.
func malformed(it *Item) bool {
	return it.Kind > KindCamera || (it.Kind == KindFrame && it.Frame == nil)
}

// rejectBadKinds strips malformed items, counting each in
// RejectedKind. The common all-valid batch is returned as-is; a batch
// with rejects is compacted into a fresh slice so the caller's backing
// array is never reordered.
func (m *Manager) rejectBadKinds(items []Item) []Item {
	bad := 0
	for i := range items {
		if malformed(&items[i]) {
			bad++
		}
	}
	if bad == 0 {
		return items
	}
	kept := make([]Item, 0, len(items)-bad)
	for i := range items {
		if malformed(&items[i]) {
			m.counters.rejectedKind.Add(1)
			m.recycle(items[i].Frame)
			continue
		}
		kept = append(kept, items[i])
	}
	return kept
}

// enqueueShard routes one shard's slice of a batch through enqueue
// and settles the accounting: accepted items are counted by kind,
// sheds in DroppedStale, and a closed-shard refusal in RejectedClosed
// (with the manager-owned frames released).
func (m *Manager) enqueueShard(sh *shard, items []Item) {
	d, closed := sh.enqueue(items)
	if closed {
		m.counters.rejectedClosed.Add(uint64(len(items)))
		for i := range items {
			m.recycle(items[i].Frame)
		}
		return
	}
	for i := range items {
		m.count(items[i])
	}
	if d > 0 {
		m.counters.droppedStale.Add(uint64(d))
	}
}

// PushBatch ingests a batch with one queue lock per destination shard
// rather than one per item — the cheap ingest path a receiver loop
// should batch into. Relative order is preserved per shard (hence per
// session); the batch is not atomic across shards. Malformed items and
// closed-manager refusals are counted exactly as in Push.
func (m *Manager) PushBatch(items []Item) {
	if len(items) == 0 {
		return
	}
	if m.cfg.Deterministic {
		for i := range items {
			m.Push(items[i])
		}
		return
	}
	items = m.rejectBadKinds(items)
	if len(items) == 0 {
		return
	}
	m.stampBatch(items)
	if len(m.shards) == 1 {
		m.enqueueShard(m.shards[0], items)
		return
	}
	// Group by shard, preserving in-batch order within each group.
	idx := make([]int, len(items))
	for i := range items {
		idx[i] = m.shardIdx(items[i].Session)
	}
	byShard := make([]Item, 0, len(items))
	for si, sh := range m.shards {
		byShard = byShard[:0]
		for i := range items {
			if idx[i] == si {
				byShard = append(byShard, items[i])
			}
		}
		if len(byShard) == 0 {
			continue
		}
		m.enqueueShard(sh, byShard)
	}
}

// stampBatch marks a batch's enqueue instant for queue-dwell
// tracking: one clock read covers the whole batch, since its items
// enter their queues together.
func (m *Manager) stampBatch(items []Item) {
	if m.obs == nil {
		return
	}
	now := obs.Now()
	for i := range items {
		items[i].enqNS = now
	}
}

func (m *Manager) count(it Item) {
	switch it.Kind {
	case KindPhase:
		m.counters.phasesIn.Add(1)
	case KindFrame:
		m.counters.framesIn.Add(1)
	case KindIMU:
		m.counters.imuIn.Add(1)
	case KindCamera:
		m.counters.cameraIn.Add(1)
	}
}

// drainChunk is how many items a worker claims per queue lock.
const drainChunk = 256

// maxForwardJumpS bounds how far ahead of the session clock a single
// item may jump. UDP has no payload integrity beyond its 16-bit
// checksum; a bit flip in a wire timestamp usually decodes to a huge
// but finite float64, and adopting one would slam every staleness
// watchdog past its threshold and leave the session clock wedged in
// the far future, rejecting all legitimate traffic forever. Five
// seconds is two orders of magnitude above any legitimate inter-item
// gap a live stream produces.
const maxForwardJumpS = 5.0

// admitTime validates an item timestamp against the session clock —
// finite, and not implausibly far in the future. Rejections count in
// RejectedTime.
func (m *Manager) admitTime(s *session, t float64) bool {
	if math.IsNaN(t) || math.IsInf(t, 0) || (s.haveNow && t > s.now+maxForwardJumpS) {
		m.counters.rejectedTime.Add(1)
		return false
	}
	return true
}

// worker services one shard's ring until Close.
func (m *Manager) worker(sh *shard) {
	defer m.wg.Done()
	var (
		chunk    []Item
		resolved []*session
	)
	for {
		sh.mu.Lock()
		for sh.count == 0 && !sh.closed {
			// Idle: let Flush observe the empty, not-busy state.
			sh.busy = false
			sh.cond.Broadcast()
			sh.cond.Wait()
		}
		if sh.closed {
			// Hard close: abandon whatever is still queued. Every
			// abandoned item is counted (DroppedClosed) so Total()
			// conserves, its slot zeroed so the ring pins nothing, and
			// its pooled frame released. CloseDrain never reaches here
			// with a backlog — it flushes first.
			n := sh.count
			for i := 0; i < n; i++ {
				j := (sh.head + i) % len(sh.ring)
				if sh.recycle {
					if f := sh.ring[j].Frame; f != nil {
						csi.PutFrame(f)
					}
				}
				sh.ring[j] = Item{}
			}
			sh.head, sh.count = 0, 0
			if n > 0 {
				m.counters.droppedClosed.Add(uint64(n))
			}
			sh.cond.Broadcast()
			sh.mu.Unlock()
			return
		}
		n := sh.count
		if n > drainChunk {
			n = drainChunk
		}
		chunk = chunk[:0]
		for i := 0; i < n; i++ {
			j := (sh.head + i) % len(sh.ring)
			chunk = append(chunk, sh.ring[j])
			// Zero the drained slot: a stale copy left behind would pin
			// its *csi.Frame (up to QueueLen per shard) until the slot
			// happened to be overwritten.
			sh.ring[j] = Item{}
		}
		sh.head = (sh.head + n) % len(sh.ring)
		sh.count -= n
		sh.busy = true
		sh.mu.Unlock()

		// Resolve sessions for the whole chunk under one lock; the
		// registry mutates only on Open/CloseSession/reap, and pipeline
		// processing below runs lock-free (worker-owned state only).
		resolved = resolved[:0]
		sh.mu.Lock()
		for i := range chunk {
			resolved = append(resolved, sh.sessions[chunk[i].Session])
		}
		sh.mu.Unlock()
		for i := range chunk {
			m.process(sh, resolved[i], chunk[i])
			m.afterProcess(sh, resolved[i])
			chunk[i] = Item{} // release the frame pointer promptly
			resolved[i] = nil // and the session
		}
	}
}

// process runs one item through its session's pipeline and the
// degradation state machine. Only the shard's owning goroutine calls
// this for a given shard. Each sensor item observes the session clock
// twice: once before it updates its sensor's freshness — so the
// starvation episode an arrival gap proves is recorded even when the
// very same item ends it — and once after, so recovery starts on the
// item that delivers it.
func (m *Manager) process(sh *shard, s *session, it Item) {
	if s == nil {
		m.counters.droppedUnknown.Add(1)
		m.recycle(it.Frame)
		return
	}
	m.counters.processed.Add(1)
	// An instrumented manager stamps the item's stage boundaries into
	// st and reports them once, whichever way the item leaves.
	var st *stamps
	if m.obs != nil {
		st = &s.st
		*st = stamps{enq: it.enqNS, deq: obs.Now()}
		defer m.obs.item(s.id, streamTime(it), st)
	}
	switch it.Kind {
	case KindIMU:
		t := it.IMU.Time
		if !m.admitTime(s, t) {
			return
		}
		m.observe(s, t)
		s.pl.PushIMU(it.IMU)
		if it.IMU.Finite() {
			s.lastIMU, s.haveIMU = t, true
		}
		m.observe(s, t)
		m.maybeCoast(s, t)
		return
	case KindCamera:
		t := it.Camera.Time
		if !m.admitTime(s, t) {
			return
		}
		m.observe(s, t)
		s.pl.PushCamera(it.Camera)
		if it.Camera.Valid && !math.IsNaN(it.Camera.Yaw) && !math.IsInf(it.Camera.Yaw, 0) {
			s.lastCam, s.haveCam, s.camYaw = t, true, it.Camera.Yaw
		}
		m.observe(s, t)
		m.maybeCoast(s, t)
		return
	case KindFrame:
		ft := it.Frame.Time
		phi, err := csi.Sanitize(it.Frame, 0, 1)
		if st != nil {
			st.sanitized = obs.Now()
		}
		// The sanitizer is the last reader of the raw frame either way:
		// from here on only (ft, phi) matter, so a pooled frame goes
		// back for reuse before the pipeline even runs.
		m.recycle(it.Frame)
		it.Frame = nil
		if err != nil {
			m.counters.sanitizeErrors.Add(1)
			if t := ft; !math.IsNaN(t) && !math.IsInf(t, 0) &&
				(!s.haveNow || t <= s.now+maxForwardJumpS) {
				// The frame proves the link is alive at its timestamp
				// even though it carried no usable CSI.
				m.observe(s, t)
			}
			return
		}
		it.Time, it.Phi = ft, phi
	}
	// CSI tail: KindPhase items and sanitized KindFrame items.
	if !m.admitTime(s, it.Time) {
		return
	}
	if math.IsNaN(it.Phi) || math.IsInf(it.Phi, 0) {
		m.counters.rejectedTime.Add(1)
		return
	}
	if s.haveCSI && it.Time <= s.lastCSI {
		// Mirror of the pipeline's monotone rule, counted here so wire
		// duplication and reordering are visible in the snapshot.
		m.counters.rejectedTime.Add(1)
		return
	}
	m.observe(s, it.Time)
	m.noteCSIResumed(s, it.Time)
	s.lastCSI, s.haveCSI = it.Time, true
	m.observe(s, it.Time)
	est, ok := s.pl.PushCSI(it.Time, it.Phi)
	if st != nil {
		st.tracked = obs.Now()
	}
	if !ok {
		return
	}
	if s.h == Stale {
		// A stale session stays silent, even while CSI flows. The CSI
		// gap is measured from the session clock, the latest timestamp
		// of any sensor, so an IMU or camera item that leads the CSI
		// stream by more than staleAfterS holds the session STALE until
		// the CSI catches up (TestStaleWhileSensorLeadsCSI).
		m.counters.suppressedStale.Add(1)
		return
	}
	s.lastEst, s.hasEst = est, true
	m.emit(s, est)
}

// Flush blocks until every shard queue is empty and every worker is
// idle — every item pushed before the call has been fully processed
// (assuming no concurrent pushers keep the queues fed) — and then
// until Config.Journal has written every record those items made
// (journal.Writer.Commit: a write failure stays for the journal's
// owner to read from its Flush or Close). Deterministic mode, which
// processes each item inside Push, only commits the journal.
func (m *Manager) Flush() {
	if !m.cfg.Deterministic {
		for _, sh := range m.shards {
			sh.mu.Lock()
			for (sh.count > 0 || sh.busy) && !sh.closed {
				sh.cond.Wait()
			}
			sh.mu.Unlock()
		}
	}
	if m.cfg.Journal != nil {
		m.cfg.Journal.Commit()
	}
}

// Close is the hard stop: intake is rejected (RejectedClosed) from
// the moment each shard is marked, workers abandon whatever backlog
// remains (counted in DroppedClosed, pooled frames released, ring
// slots zeroed) and exit, and every session is purged so nOpen and
// the sessions-open gauge read zero. Use CloseDrain for a graceful
// end that processes the backlog first. Close is idempotent and safe
// to call concurrently with pushers.
func (m *Manager) Close() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.closed = true
	m.mu.Unlock()
	for _, sh := range m.shards {
		sh.mu.Lock()
		sh.closed = true
		sh.cond.Broadcast()
		sh.mu.Unlock()
	}
	if !m.cfg.Deterministic {
		m.wg.Wait()
	}
	m.purgeSessions()
}

// CloseDrain is the graceful shutdown: wait for every queued item to
// be processed, then Close. With no concurrent pushers (the caller
// has stopped its receive loops — the only sane precondition for a
// drain) DroppedClosed stays zero and the conservation identity
//
//	Total() == Processed + DroppedStale + DroppedUnknown + RejectedKind
//
// holds exactly on the final snapshot. No-op if already closed.
func (m *Manager) CloseDrain() {
	m.mu.Lock()
	closed := m.closed
	m.mu.Unlock()
	if closed {
		return
	}
	m.Flush()
	m.Close()
}

// purgeSessions empties every shard's registry after the workers have
// exited, reconciling nOpen and the gauge with the evictions — the
// invariant "closed manager ⇒ sessions_open reads 0" the acceptance
// tests scrape for. Bookkeeping nests inside sh.mu exactly as in
// Open, so a racing Open either lands before the purge (and is
// purged, counted both ways) or observes sh.closed and is refused.
func (m *Manager) purgeSessions() {
	for _, sh := range m.shards {
		sh.mu.Lock()
		n := len(sh.sessions)
		for id := range sh.sessions {
			delete(sh.sessions, id)
		}
		if n > 0 {
			m.mu.Lock()
			m.nOpen -= n
			m.mu.Unlock()
			m.sessOpen.Add(-float64(n))
		}
		sh.mu.Unlock()
	}
}
