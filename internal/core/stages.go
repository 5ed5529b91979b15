package core

import "time"

// MatchObserver receives the wall-clock start and end of one DTW
// match (StageMatch) inside Tracker.Push — the one interval core
// times itself; internal/serve stamps every other stage boundary.
//
// Observers run synchronously on the tracker's owning goroutine, so
// they must be cheap and must not call back into the tracker. A nil
// observer disables match timing — the tracker then reads no clocks,
// which keeps deterministic runs byte-identical and the
// uninstrumented hot path free.
type MatchObserver func(start, end time.Time)

// Stage names of an item's path, labelling the per-stage histograms
// and spans; the serving layer adds its queue-dwell stage in front.
const (
	// StageSanitize is raw-frame CSI sanitization (Eq. 3). The
	// sanitizer lives in internal/csi and is invoked by the serving
	// layer, which times this stage.
	StageSanitize = "sanitize"
	// StageMatch is the DTW series-matching step inside an estimate
	// (Algorithm 1) — the dominant per-estimate cost, and the one
	// interval core times itself (see MatchObserver). It is a
	// sub-interval of StageTrack.
	StageMatch = "match"
	// StageTrack is everything the serving layer does with a sanitized
	// sample up to Pipeline.PushCSI's return: the session's health
	// bookkeeping, then window maintenance, stability detection,
	// matching, the continuity filter and the camera-fusion blend.
	StageTrack = "track"
)
