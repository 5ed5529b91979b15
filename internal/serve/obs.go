package serve

import (
	"vihot/internal/core"
	"vihot/internal/obs"
)

// StageDwell is the serving layer's own span stage: the wall-clock
// time an item spent in its shard queue between Push and the worker
// picking it up. Queue dwell is the latency the concurrency model
// *adds* to the pipeline's own cost, so it gets a first-class stage
// next to core's sanitize/match/track.
const StageDwell = "dwell"

// newCounters registers the manager's traffic counters in r. Every
// field is a registry-backed counter whose Add is one atomic add —
// exactly the hot-path cost of the hand-rolled atomic.Uint64 fields
// these replaced — so the counters exist (and the Snapshot API works)
// whether or not the caller supplied a registry to scrape them from.
func newCounters(r *obs.Registry) Counters {
	items := func(kind string) *obs.Counter {
		return r.Counter("vihot_serve_items_total",
			"items accepted into shard queues, by item kind", "kind", kind)
	}
	dropped := func(reason string) *obs.Counter {
		return r.Counter("vihot_serve_dropped_total",
			"items dropped before reaching a pipeline, by reason", "reason", reason)
	}
	trans := func(to string) *obs.Counter {
		return r.Counter("vihot_serve_health_transitions_total",
			"degradation state-machine transitions, by destination state", "to", to)
	}
	return Counters{
		phasesIn:        items("phase"),
		framesIn:        items("frame"),
		imuIn:           items("imu"),
		cameraIn:        items("camera"),
		processed:       r.Counter("vihot_serve_processed_total", "items that reached their session's pipeline stage"),
		estimates:       r.Counter("vihot_serve_estimates_total", "estimates delivered across all sessions"),
		droppedStale:    dropped("queue_full"),
		droppedUnknown:  dropped("unknown_session"),
		sanitizeErrors:  r.Counter("vihot_serve_sanitize_errors_total", "raw CSI frames rejected by the sanitizer"),
		rejectedTime:    r.Counter("vihot_serve_rejected_time_total", "items rejected for non-finite, non-monotone, or far-future timestamps"),
		suppressedStale: r.Counter("vihot_serve_suppressed_stale_total", "pipeline estimates discarded because the session was stale"),
		coasted:         r.Counter("vihot_serve_coasted_total", "camera/forecast estimates emitted while coasting"),
		toDegraded:      trans("degraded"),
		toCoasting:      trans("coasting"),
		toStale:         trans("stale"),
		recoveries:      trans("healthy"),
		trackerResets:   r.Counter("vihot_serve_tracker_resets_total", "tracker restarts after a CSI blackout"),
		rejectedKind:    r.Counter("vihot_serve_rejected_kind_total", "items refused at push: an unknown item kind, or a frame item without a frame"),
		rejectedClosed:  r.Counter("vihot_serve_rejected_closed_total", "items refused at push because the manager was closed"),
		droppedClosed:   dropped("shutdown"),
		reaped:          r.Counter("vihot_serve_sessions_reaped_total", "sessions evicted by the idle-TTL sweep"),
		closed:          r.Counter("vihot_serve_sessions_closed_total", "sessions removed by explicit CloseSession"),
		journalAppended: r.Counter("vihot_serve_journal_appended_total", "records accepted by the write-behind journal"),
		journalDropped:  r.Counter("vihot_serve_journal_dropped_total", "records shed at append (journal queue full or closed)"),
	}
}

// managerObs is the manager's opt-in instrumentation: per-stage wall
// latency histograms (when Config.Metrics is set) and span tracing
// (when Config.Trace is set). The Manager holds a nil *managerObs when
// neither is configured, and every stamp site is gated on that nil —
// an uninstrumented manager reads no clocks, which is what keeps the
// deterministic/golden-trace guarantees intact by construction.
type managerObs struct {
	sanitize *obs.Histogram
	match    *obs.Histogram
	track    *obs.Histogram
	dwellH   *obs.Histogram
	tracer   *obs.Tracer
}

// newManagerObs wires histograms (r may be nil: histograms stay nil
// and only tracing runs) and the tracer (tr may be nil: vice versa).
func newManagerObs(r *obs.Registry, tr *obs.Tracer) *managerObs {
	stage := func(name string) *obs.Histogram {
		return r.Histogram("vihot_pipeline_stage_seconds",
			"wall-clock latency of one pipeline stage", obs.LatencyBuckets(), "stage", name)
	}
	return &managerObs{
		sanitize: stage(core.StageSanitize),
		match:    stage(core.StageMatch),
		track:    stage(core.StageTrack),
		dwellH: r.Histogram("vihot_serve_queue_dwell_seconds",
			"wall-clock time items spend in a shard queue before processing", obs.LatencyBuckets()),
		tracer: tr,
	}
}

// stamps are the obs.Now readings of one item's path, one per stage
// boundary. Zero marks a boundary the item did not cross: no enq when
// it skipped the queue (deterministic mode), no sanitized unless it
// is a KindFrame, no tracked unless it reached Pipeline.PushCSI, no
// match pair unless Tracker.Push ran a DTW search.
type stamps struct {
	enq, deq, sanitized, tracked int64
	matchStart, matchEnd         int64 // from the tracker's MatchObserver
}

// item records one item's spans, anchored at stream time streamT:
// dwell = deq − enq, sanitize = sanitized − deq, track = tracked −
// (sanitized, or deq without it), and match inside track.
func (mo *managerObs) item(session string, streamT float64, st *stamps) {
	if st.enq != 0 {
		mo.span(mo.dwellH, session, StageDwell, streamT, st.enq, st.deq)
	}
	from := st.deq
	if st.sanitized != 0 {
		mo.span(mo.sanitize, session, core.StageSanitize, streamT, from, st.sanitized)
		from = st.sanitized
	}
	if st.matchEnd != 0 {
		mo.span(mo.match, session, core.StageMatch, streamT, st.matchStart, st.matchEnd)
	}
	if st.tracked != 0 {
		mo.span(mo.track, session, core.StageTrack, streamT, from, st.tracked)
	}
}

// span records the interval [start, end] of one stage.
func (mo *managerObs) span(h *obs.Histogram, session, stage string, streamT float64, start, end int64) {
	h.Observe(float64(end-start) * 1e-9)
	mo.tracer.Record(session, stage, streamT, start, end)
}

// streamTime is the stream-time instant an item carries, the anchor
// of its spans.
func streamTime(it Item) float64 {
	switch it.Kind {
	case KindFrame:
		return it.Frame.Time
	case KindIMU:
		return it.IMU.Time
	case KindCamera:
		return it.Camera.Time
	}
	return it.Time
}
