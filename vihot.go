// Package vihot is a from-scratch reproduction of ViHOT ("Wireless
// CSI-Based Head Tracking in the Driver Seat", CoNEXT '18): a
// device-free driver head-orientation tracker built on the phase of
// WiFi channel state information between a dashboard phone and a
// two-antenna in-car receiver.
//
// The package exposes the complete system:
//
//   - Profiling (Sec. 3.3): feed CSI phases and ground-truth
//     orientations while the driver sweeps their head at each seating
//     position; obtain a Profile.
//   - Tracking (Sec. 3.4): feed sanitized CSI phases; receive head
//     orientation estimates from DTW series matching, with position
//     estimation anchored on stable front-facing periods.
//   - Forecasting (Sec. 3.4.6): predict the orientation up to
//     hundreds of milliseconds ahead for speculative AR rendering.
//   - Steering identification and camera fallback (Sec. 3.6): feed
//     phone IMU readings; the pipeline quarantines steering-polluted
//     CSI and serves camera estimates meanwhile.
//
// Because the original hardware (Intel 5300 CSI tool, car, drivers) is
// not reproducible in software, the repository also ships a physical
// simulation substrate (cabin geometry, multipath RF, CFO/SFO
// hardware, CSMA link timing, driver behaviour) under internal/, and a
// Simulator facade here for experimentation without hardware. The
// sanitizer that converts raw two-antenna CSI frames to the phase
// stream (Eq. 3 of the paper) is exposed as SanitizeFrame.
package vihot

import (
	"net/http"

	"vihot/internal/camera"
	"vihot/internal/core"
	"vihot/internal/csi"
	"vihot/internal/imu"
	"vihot/internal/journal"
	"vihot/internal/obs"
	"vihot/internal/profilestore"
	"vihot/internal/serve"
)

// Re-exported core types: the public API is a thin veneer over
// internal/core so examples, tools, and external users share one
// implementation.
type (
	// Profile is a driver's CSI profile P = {C₁…Cₙ}.
	Profile = core.Profile
	// Profiler builds a Profile from streamed samples.
	Profiler = core.Profiler
	// SweepRecording is the raw material of one profiled position.
	SweepRecording = core.SweepRecording
	// Tracker is the run-time position-orientation joint tracker.
	Tracker = core.Tracker
	// TrackerConfig tunes the tracker (window, DTW band, etc.).
	TrackerConfig = core.Config
	// Pipeline is the tracker plus steering identifier and fallback.
	Pipeline = core.Pipeline
	// PipelineConfig tunes the full pipeline.
	PipelineConfig = core.PipelineConfig
	// Estimate is one head-orientation output.
	Estimate = core.Estimate
	// Source labels where an estimate came from.
	Source = core.Source

	// Frame is one raw CSI measurement (per antenna, per subcarrier).
	Frame = csi.Frame
	// IMUReading is one phone IMU sample.
	IMUReading = imu.Reading
	// CameraEstimate is one fallback-camera output.
	CameraEstimate = camera.Estimate
)

// Estimate sources.
const (
	SourceCSI    = core.SourceCSI
	SourceFront  = core.SourceFront
	SourceHeld   = core.SourceHeld
	SourceCamera = core.SourceCamera
	// SourceCoast marks estimates forecast forward by the serving
	// engine while its CSI stream is starved (DESIGN.md §8).
	SourceCoast = core.SourceCoast
)

// NewProfiler returns a streaming profiler targeting the given match
// grid rate; 0 selects the default (100 Hz).
func NewProfiler(matchRateHz float64) *Profiler { return core.NewProfiler(matchRateHz) }

// BuildProfile processes raw sweep recordings into a matchable
// profile.
func BuildProfile(recs []SweepRecording, matchRateHz float64) (*Profile, error) {
	return core.BuildProfile(recs, matchRateHz)
}

// DefaultTrackerConfig mirrors the paper's default system
// configuration (100 ms window, [0.5W, 2W] DTW candidates).
func DefaultTrackerConfig() TrackerConfig { return core.DefaultConfig() }

// DefaultPipelineConfig enables the steering identifier with tracker
// defaults.
func DefaultPipelineConfig() PipelineConfig { return core.DefaultPipelineConfig() }

// NewTracker builds a run-time tracker over a profile.
func NewTracker(p *Profile, cfg TrackerConfig) (*Tracker, error) {
	return core.NewTracker(p, cfg)
}

// NewPipeline builds the full run-time pipeline (tracker + steering
// identifier + camera fallback) over a profile.
func NewPipeline(p *Profile, cfg PipelineConfig) (*Pipeline, error) {
	return core.NewPipeline(p, cfg)
}

// SanitizeFrame implements the paper's Eq. (3): it converts a raw
// two-antenna CSI frame into the single phase observation the tracker
// consumes, cancelling CFO/SFO via the antenna difference and
// averaging across subcarriers.
func SanitizeFrame(f *Frame) (float64, error) { return csi.Sanitize(f, 0, 1) }

// SaveProfile persists a driver profile to a file in the versioned
// profile format (magic + version + checksum); profiles survive
// across trips (Sec. 5.2.4: a week-old profile still tracks well).
func SaveProfile(path string, p *Profile) error { return core.SaveProfile(path, p) }

// LoadProfile reads a previously saved driver profile, accepting both
// the current versioned format and the legacy unversioned encoding
// (cmd/vihot-profile migrate upgrades the latter). Loaded profiles
// are validated: corrupt files and non-finite grid values are
// rejected, never returned.
func LoadProfile(path string) (*Profile, error) { return core.LoadProfile(path) }

// Profile lifecycle at fleet scale: profiles are immutable once built
// (see core.Profile's contract), carry a 64-bit content fingerprint
// (Profile.Fingerprint), and resolve by driver/cabin key through a
// ProfileStore — a sharded LRU cache with singleflight deduplication
// of concurrent cold loads, sharing one instance across every session
// opened for the same driver (SessionManagerConfig.Profiles +
// SessionManager.OpenByKey).
type (
	// ProfileStore resolves profiles by key through a sharded cache
	// with singleflight load deduplication.
	ProfileStore = profilestore.Store
	// ProfileStoreConfig tunes shard count, capacity, loader, and
	// metrics registration.
	ProfileStoreConfig = profilestore.Config
	// ProfileLoader fetches a profile on a cache miss.
	ProfileLoader = profilestore.Loader
	// ProfileLoaderFunc adapts a function to ProfileLoader.
	ProfileLoaderFunc = profilestore.LoaderFunc
	// ProfileStoreStats is one observation of the store's counters.
	ProfileStoreStats = profilestore.Stats
	// ProfileDirLoader loads <dir>/<key>.profile files.
	ProfileDirLoader = profilestore.DirLoader
)

// NewProfileStore builds a profile store; see ProfileStoreConfig.
func NewProfileStore(cfg ProfileStoreConfig) *ProfileStore { return profilestore.New(cfg) }

// NewProfileDirLoader builds the flat-directory loader
// (<dir>/<key>.profile, either on-disk encoding).
func NewProfileDirLoader(dir string) *ProfileDirLoader { return profilestore.NewDirLoader(dir) }

// ProfileQuality is the post-profiling fitness report: span, swing,
// sample depth, and fingerprint-aliasing warnings.
type ProfileQuality = core.QualityReport

// NewSmoother returns an optional constant-velocity Kalman filter for
// AR-grade smoothing of the estimate stream; see core.Smoother.
func NewSmoother() *Smoother { return core.NewSmoother() }

// Smoother smooths the estimate stream (see NewSmoother).
type Smoother = core.Smoother

// Multi-session serving: one process tracking many drivers at once.
// See the internal/serve package comment for the concurrency model
// (shard ownership, per-session ordering, load shedding).
type (
	// SessionManager runs many independent tracking sessions, sharded
	// across worker goroutines.
	SessionManager = serve.Manager
	// SessionManagerConfig tunes shard count, queue bounds, the
	// estimate sink (OnEstimate), the session-event sink (OnEvent:
	// health transitions, reaps and closes as JournalRecords),
	// idle-session reaping (SessionTTLS), and pooled-frame recycling
	// (RecycleFrames). See DESIGN.md §11 for the lifecycle contract.
	SessionManagerConfig = serve.Config
	// SessionItem is one ingested sample addressed to a session.
	SessionItem = serve.Item
	// SessionCounters is a snapshot of a manager's traffic counters.
	SessionCounters = serve.CounterSnapshot
	// SessionHealth is a session's degradation state (DESIGN.md §8).
	SessionHealth = serve.Health
)

// Degradation states, in order of decreasing confidence. A session
// moves down this ladder as its CSI stream starves (stream time, not
// wall clock) and climbs back after sustained clean flow at fixed
// stream-time thresholds; query with SessionManager.Health or watch
// the JournalKindHealth records Config.OnEvent receives.
const (
	SessionHealthy  = serve.Healthy
	SessionDegraded = serve.Degraded
	SessionCoasting = serve.Coasting
	SessionStale    = serve.Stale
)

// Session item kinds.
const (
	SessionItemPhase  = serve.KindPhase
	SessionItemFrame  = serve.KindFrame
	SessionItemIMU    = serve.KindIMU
	SessionItemCamera = serve.KindCamera
)

// NewSessionManager starts a concurrent multi-driver tracking engine:
// open one session per driver (each over that driver's Profile), then
// feed interleaved samples with Push/PushBatch from any number of
// goroutines (one per session's stream). CloseDrain processes
// everything already queued and then stops (the books balance
// exactly); Close stops immediately, accounting the abandoned
// backlog. Both are idempotent.
func NewSessionManager(cfg SessionManagerConfig) *SessionManager { return serve.New(cfg) }

// Durable journaling: the crash-recoverable estimate/health journal
// of internal/journal, re-exported because
// SessionManagerConfig.Journal takes the writer. The manager appends
// every estimate, health transition, reap, and close; a restart
// replays the file (tolerating a torn tail from a crash mid-write)
// back to the terminal per-session state. See DESIGN.md §13 for the
// record format, the write-behind group-commit contract, and the
// fsync policy.
type (
	// JournalWriter is the write-behind appender sessions journal
	// through; the caller closes it after the manager has drained.
	JournalWriter = journal.Writer
	// JournalConfig tunes the group commit (batch size, stream-time
	// interval, queue bound) and the fsync policy.
	JournalConfig = journal.Config
	// JournalRecord is one decoded journal record.
	JournalRecord = journal.Record
	// JournalStats is a snapshot of a writer's append/commit counters.
	JournalStats = journal.Stats
	// JournalRecoverResult is the state a journal replays back to.
	JournalRecoverResult = journal.RecoverResult
	// JournalSessionState is one session's recovered terminal state.
	JournalSessionState = journal.SessionState
	// JournalSyncPolicy selects when the journal fsyncs.
	JournalSyncPolicy = journal.SyncPolicy
)

// Session event kinds: the JournalRecord.Kind values
// SessionManagerConfig.OnEvent receives (estimates go to OnEstimate).
const (
	JournalKindHealth = journal.KindHealth
	JournalKindReap   = journal.KindReap
	JournalKindClose  = journal.KindClose
)

// Journal fsync policies.
const (
	JournalSyncBatch = journal.SyncBatch
	JournalSyncNone  = journal.SyncNone
)

// NewJournalWriter builds a write-behind journal over an arbitrary
// writer (syncing too, when it implements journal.Syncer).
func NewJournalWriter(cfg JournalConfig) (*JournalWriter, error) { return journal.New(cfg) }

// OpenJournalFile opens (creating or appending to) a journal file the
// writer owns; pair with RepairJournalFile on start after a crash.
func OpenJournalFile(path string, cfg JournalConfig) (*JournalWriter, error) {
	return journal.OpenFile(path, cfg)
}

// RecoverJournalFile replays a journal file to its terminal state,
// tolerating a truncated or torn tail (reported in the result's
// diagnostics, never as an error). A missing file recovers empty.
func RecoverJournalFile(path string) (*JournalRecoverResult, error) {
	return journal.RecoverFile(path)
}

// RepairJournalFile recovers a journal file and, if it ends in a torn
// record, truncates it back to the last valid record so appending can
// resume at a record boundary.
func RepairJournalFile(path string) (*JournalRecoverResult, error) {
	return journal.RepairFile(path)
}

// Observability: the zero-dependency metrics/tracing layer of
// internal/obs, re-exported because SessionManagerConfig.Metrics and
// .Trace take these types. Everything is opt-in — a manager built
// without them reads no instrumentation clocks (DESIGN.md §9).
type (
	// MetricsRegistry holds counters, gauges, and latency histograms
	// with atomic hot paths, exposable in Prometheus text format.
	MetricsRegistry = obs.Registry
	// StreamTracer records per-stage latency spans anchored at stream
	// time into a fixed-capacity ring.
	StreamTracer = obs.Tracer
	// TraceSpan is one recorded stage interval.
	TraceSpan = obs.Span
	// TraceDump is a tracer snapshot (oldest span first).
	TraceDump = obs.TraceDump
)

// NewMetricsRegistry builds an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// NewStreamTracer builds a span tracer holding the last capacity spans
// (<=0 selects the default of 65536).
func NewStreamTracer(capacity int) *StreamTracer { return obs.NewTracer(capacity) }

// ObsMux mounts /metrics (Prometheus text), /debug/pprof/, and — when
// tr is non-nil — /trace (span dump JSON) on a new mux, for embedding
// the observability endpoints in an existing server.
func ObsMux(r *MetricsRegistry, tr *StreamTracer) *http.ServeMux { return obs.NewMux(r, tr) }

// ServeObs starts the observability endpoints on addr (":0" picks a
// port; the returned server's Addr field holds the bound address).
// Close the returned server to stop it.
func ServeObs(addr string, r *MetricsRegistry, tr *StreamTracer) (*http.Server, error) {
	srv, _, err := obs.Serve(addr, r, tr)
	return srv, err
}
