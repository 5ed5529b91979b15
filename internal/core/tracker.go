package core

import (
	"fmt"
	"math"
	"time"

	"vihot/internal/dsp"
	"vihot/internal/dtw"
	"vihot/internal/geom"
)

// Config tunes the position-orientation joint tracker. The zero value
// is not usable; start from DefaultConfig.
type Config struct {
	// WindowS is W, the CSI input window length in seconds
	// (Sec. 5.2.3 sweeps 10–300 ms; 100 ms is the paper's default).
	WindowS float64
	// MatchRateHz is the uniform grid rate for resampling before DTW;
	// it must match the profile's rate.
	MatchRateHz float64
	// RatioLo/RatioHi bound the candidate match lengths relative to
	// the window: Algorithm 1 uses [0.5, 2] to absorb head-turning
	// speed mismatch.
	RatioLo, RatioHi float64
	// StepSamples is ΔL, the candidate-length enumeration step.
	StepSamples int
	// Stride is the profile slide stride in grid samples.
	Stride int
	// DTWBand is the Sakoe-Chiba half-width in grid samples (0 = full
	// DTW).
	DTWBand int
	// EstimateEveryS throttles how often a full DTW search runs; CSI
	// arrives at ≈500 Hz but estimates every 10 ms already beat any
	// camera by >3×.
	EstimateEveryS float64
	// MaxJumpDPS rejects estimates implying a head speed above this,
	// the continuity filter of Sec. 3.6 ("head orientation can only
	// change continuously").
	MaxJumpDPS float64
	// PositionCandidates is the Eq. (4) shortlist size: how many
	// fingerprint-nearest positions the matcher disambiguates between
	// after each stable (front-facing) period. 1 reproduces the
	// paper's pure nearest-fingerprint rule; at 2.4 GHz fingerprints
	// alias across the lean range, so a small shortlist resolved by
	// DTW match quality is markedly more robust.
	PositionCandidates int
	// RelockDist re-opens the position shortlist when the match
	// distance stays above this for several consecutive estimates —
	// the signature of tracking against the wrong position's curve.
	RelockDist float64
	// RescanEveryS forces a periodic match against every profile
	// position. Wavelength aliasing can park the tracker on a wrong
	// but plausible position curve whose distance never exceeds
	// RelockDist; the periodic re-scan is the escape hatch. 0 uses
	// the default; negative disables.
	RescanEveryS float64

	// Stability detection for the position lock (Sec. 3.4.1).
	StableWindowS float64
	StableStd     float64
	StableHoldS   float64
}

// DefaultConfig mirrors the paper's default system configuration
// (Sec. 5.1): 100 ms window, [0.5W, 2W] candidates.
func DefaultConfig() Config {
	return Config{
		WindowS:            0.1,
		MatchRateHz:        DefaultMatchRateHz,
		RatioLo:            0.5,
		RatioHi:            2,
		StepSamples:        2,
		Stride:             2,
		DTWBand:            8,
		EstimateEveryS:     0.01,
		MaxJumpDPS:         600,
		PositionCandidates: 5,
		RelockDist:         0.02,
		StableWindowS:      0.4,
		StableStd:          0.05,
		StableHoldS:        1.0,
	}
}

// Source labels where an estimate came from.
type Source int

const (
	SourceCSI    Source = iota // DTW series matching on CSI phase
	SourceFront                // stability detector: driver facing road
	SourceHeld                 // continuity filter held the previous value
	SourceCamera               // camera fallback during steering events
	SourceFused                // CSI blended with a fresh camera frame
	SourceCoast                // forecast-coasted output during CSI starvation
)

// String implements fmt.Stringer.
func (s Source) String() string {
	switch s {
	case SourceCSI:
		return "csi"
	case SourceFront:
		return "front"
	case SourceHeld:
		return "held"
	case SourceCamera:
		return "camera"
	case SourceFused:
		return "fused"
	case SourceCoast:
		return "coast"
	default:
		return fmt.Sprintf("Source(%d)", int(s))
	}
}

// Estimate is one head-orientation output.
type Estimate struct {
	Time      float64
	Yaw       float64 // degrees
	Source    Source
	Position  int     // profile position index used for matching
	MatchDist float64 // normalized DTW distance of the winning match

	// Matching internals, needed for forecasting (Sec. 3.4.6).
	matchEnd int // exclusive end index of Φ*m in the profile grid
	matchLen int // Lm in grid samples
	queryLen int // W in grid samples
}

// Tracker is the run-time position-orientation joint tracker
// (Sec. 3.4). Feed sanitized CSI phases with Push; it returns an
// estimate whenever one is due. Not safe for concurrent use.
type Tracker struct {
	cfg     Config
	profile *Profile

	// The profile's recentred grids, shared read-only with every
	// tracker over the same *Profile (see matchView).
	view *matchView

	window     dsp.Window
	matcher    *dtw.Matcher // DTW scratch, made on the first match
	query      []float64
	centeredQ  []float64
	scratchIdx []int
	lengths    []int
	stable     *dsp.StabilityDetector

	posIdx    int
	posLocked bool
	shortlist []int            // pending Eq. (4) candidates to disambiguate
	ranked    []rankedPosition // Eq. (4) ranking scratch
	badCount  int              // consecutive high-distance estimates

	last        Estimate
	hasLast     bool
	holdCount   int
	firstT      float64
	haveT       bool
	nextEstT    float64
	nextRescanT float64

	// Streaming phase unwrap state: the window and stability detector
	// consume the unwrapped stream so interpolation and variance never
	// cross the ±π seam.
	unwrapped  float64
	lastRawPhi float64
	haveRawPhi bool

	// The previous estimate's match, whose segment seeds the next
	// held-position scan.
	prevMatch    dtw.Match
	hasPrevMatch bool
	matches      []posMatch // per-candidate scan results, scratch

	matchObs MatchObserver
}

// maxConsecutiveHolds bounds how long the continuity filter may
// override fresh estimates: a persistent disagreement means the held
// value, not the matcher, is wrong (e.g. the initial estimate landed
// on the wrong branch of the CSI-orientation curve).
const maxConsecutiveHolds = 8

// NewTracker builds a tracker over a profile. The config's match rate
// must equal the profile's (zero adopts the profile's rate). The
// tracker copies nothing that grows with the profile: it adopts the
// recentred grids every tracker over the same *Profile shares (built
// on first use, kept while any such tracker lives), and it makes its
// DTW scratch on its first match unless SetMatcher supplies some.
func NewTracker(p *Profile, cfg Config) (*Tracker, error) {
	if p == nil || len(p.Positions) == 0 {
		return nil, ErrEmptyProfile
	}
	if cfg.WindowS <= 0 {
		cfg.WindowS = DefaultConfig().WindowS
	}
	if cfg.MatchRateHz == 0 {
		cfg.MatchRateHz = p.MatchRateHz
	}
	if cfg.MatchRateHz != p.MatchRateHz {
		return nil, fmt.Errorf("core: config match rate %v != profile rate %v",
			cfg.MatchRateHz, p.MatchRateHz)
	}
	if cfg.RatioLo <= 0 || cfg.RatioHi < cfg.RatioLo {
		cfg.RatioLo, cfg.RatioHi = 0.5, 2
	}
	if cfg.StepSamples < 1 {
		cfg.StepSamples = 1
	}
	if cfg.Stride < 1 {
		cfg.Stride = 1
	}
	if cfg.EstimateEveryS <= 0 {
		cfg.EstimateEveryS = DefaultConfig().EstimateEveryS
	}
	if cfg.StableWindowS <= 0 {
		cfg.StableWindowS = DefaultConfig().StableWindowS
	}
	if cfg.StableStd <= 0 {
		cfg.StableStd = DefaultConfig().StableStd
	}
	if cfg.StableHoldS <= 0 {
		cfg.StableHoldS = DefaultConfig().StableHoldS
	}
	if cfg.PositionCandidates < 1 {
		cfg.PositionCandidates = 1
	}
	if cfg.RelockDist <= 0 {
		cfg.RelockDist = DefaultConfig().RelockDist
	}
	if cfg.RescanEveryS == 0 {
		cfg.RescanEveryS = 1.0
	}

	tk := &Tracker{
		cfg:     cfg,
		profile: p,
		view:    viewOf(p),
		stable:  dsp.NewStabilityDetector(cfg.StableWindowS, cfg.StableStd, cfg.StableHoldS),
	}
	wSamples := tk.windowSamples()
	maxGrid := 0
	for _, pos := range p.Positions {
		if len(pos.PhiGrid) > maxGrid {
			maxGrid = len(pos.PhiGrid)
		}
	}
	tk.lengths = dtw.CandidateLengths(wSamples, cfg.RatioLo, cfg.RatioHi, cfg.StepSamples, maxGrid)
	return tk, nil
}

// windowSamples returns W expressed in match-grid samples (≥ 2).
func (tk *Tracker) windowSamples() int {
	n := int(math.Round(tk.cfg.WindowS * tk.cfg.MatchRateHz))
	if n < 2 {
		n = 2
	}
	return n
}

// SetMatcher gives the tracker a shared Matcher as its DTW scratch, in
// place of the private one it would otherwise make on its first match.
// A Matcher carries no state between calls, so sharing one across
// trackers changes no results — it only amortizes scratch memory. The
// caller must guarantee that every tracker sharing the matcher is
// driven by the same goroutine (see the ownership rules on
// dtw.Matcher); internal/serve uses one matcher per shard worker.
func (tk *Tracker) SetMatcher(m *dtw.Matcher) {
	if m != nil {
		tk.matcher = m
	}
}

// SetMatchObserver installs (or, with nil, removes) the tracker's
// match-interval observer; see the MatchObserver type. With none
// installed the tracker reads no clocks at all.
func (tk *Tracker) SetMatchObserver(fn MatchObserver) { tk.matchObs = fn }

// Profile returns the profile the tracker matches against. It is
// shared, not copied (see the Profile immutability contract); callers
// must not modify it.
func (tk *Tracker) Profile() *Profile { return tk.profile }

// Position returns the current head-position estimate (profile
// index) and whether it has locked via Eq. (4) yet.
func (tk *Tracker) Position() (int, bool) { return tk.posIdx, tk.posLocked }

// SetPosition overrides the position lock, for tests and ablations.
func (tk *Tracker) SetPosition(idx int) {
	if idx >= 0 && idx < len(tk.profile.Positions) {
		tk.posIdx = idx
		tk.posLocked = true
	}
}

// Ready reports whether the setup time W has elapsed (Line 1 of
// Algorithm 1).
func (tk *Tracker) Ready(t float64) bool {
	return tk.haveT && t-tk.firstT >= tk.cfg.WindowS
}

// Push feeds one sanitized CSI phase sample. It returns an Estimate
// and true when a new estimate is due at this sample.
func (tk *Tracker) Push(t, phi float64) (Estimate, bool) {
	if !tk.haveT {
		tk.firstT = t
		tk.haveT = true
		tk.nextEstT = t + tk.cfg.WindowS
	}
	// Streaming unwrap: the stored stream is continuous, so window
	// resampling and the stability variance behave even when the raw
	// phase crosses the ±π seam.
	if !tk.haveRawPhi {
		tk.unwrapped = phi
		tk.haveRawPhi = true
	} else {
		tk.unwrapped += geom.PhaseDiff(phi, tk.lastRawPhi)
	}
	tk.lastRawPhi = phi
	phi = tk.unwrapped
	// Maintain the sliding window [t-W, t].
	tk.window.Push(dsp.Sample{T: t, V: phi}, tk.cfg.WindowS)

	// Position estimation (Sec. 3.4.1): stable phase ⇒ facing front;
	// match the stable mean against the position fingerprints. Once
	// locked, re-locking is gated: the stable phase must actually look
	// like a front-facing fingerprint, and the tracker must not be in
	// the middle of reporting a large head excursion — brief slowdowns
	// at sweep extremes would otherwise masquerade as "facing front"
	// and flip the position lock mid-turn.
	isStable := tk.stable.Push(t, phi)
	if isStable {
		phi0r := geom.WrapRad(tk.stable.Mean())
		tk.ranked = tk.profile.rankPositions(tk.ranked, phi0r)
		nearest := tk.ranked[0]
		trustworthy := !tk.posLocked ||
			(nearest.dist < 0.15 && (!tk.hasLast || math.Abs(tk.last.Yaw) < 25))
		if trustworthy {
			// Adopt the Eq. (4) nearest fingerprint immediately;
			// the shortlist lets the matcher refine the choice
			// once the head starts moving again.
			tk.posIdx = nearest.idx
			tk.posLocked = true
			tk.shortlist = tk.shortlist[:0]
			for _, r := range tk.ranked[:min(tk.cfg.PositionCandidates, len(tk.ranked))] {
				tk.shortlist = append(tk.shortlist, r.idx)
			}
		}
	}

	if !tk.Ready(t) || t < tk.nextEstT {
		return Estimate{}, false
	}
	tk.nextEstT = t + tk.cfg.EstimateEveryS

	// A stable phase means the driver is facing the road (the paper's
	// Sec. 3.4.1 premise), so report 0° directly — no matching needed.
	if isStable {
		est := Estimate{Time: t, Yaw: 0, Source: SourceFront, Position: tk.posIdx}
		tk.last = est
		tk.hasLast = true
		tk.holdCount = 0
		return est, true
	}

	var mt0 time.Time
	if tk.matchObs != nil {
		mt0 = time.Now()
	}
	est, err := tk.estimate(t)
	if tk.matchObs != nil {
		tk.matchObs(mt0, time.Now())
	}
	if err != nil {
		return Estimate{}, false
	}

	// Continuity filter: a head cannot teleport. Implausible jumps
	// (bursty steering corrections, multipath glitches) hold the
	// previous orientation instead — but only briefly: if the matcher
	// keeps insisting on a far-away orientation, the held anchor is
	// the stale one, so accept the fresh estimate and re-anchor.
	if tk.hasLast && tk.cfg.MaxJumpDPS > 0 && tk.holdCount < maxConsecutiveHolds {
		dt := est.Time - tk.last.Time
		if dt > 0 {
			speed := math.Abs(est.Yaw-tk.last.Yaw) / dt
			if speed > tk.cfg.MaxJumpDPS {
				est.Yaw = tk.last.Yaw
				est.Source = SourceHeld
			}
		}
	}
	if est.Source == SourceHeld {
		tk.holdCount++
	} else {
		tk.holdCount = 0
	}
	tk.last = est
	tk.hasLast = true
	return est, true
}

// switchMargin is how much better another position must match on a
// periodic rescan to take the lock. Degenerate geometries can make a
// wrong position's curve fit slightly better than the truth; switching
// the lock therefore requires a clear margin over the held position,
// not a photo finish.
const switchMargin = 0.7

// posMatch is one candidate position's scan result.
type posMatch struct {
	match dtw.Match
	ok    bool
}

// matchPosition recentres the query with position pos's mean phase, so
// query and profile share a seam-free representation, and scans that
// position's profile for its best match within the given incumbent.
// The held position's scan is also seeded (see seed). ok is false when
// the scan finds no match within the incumbent.
func (tk *Tracker) matchPosition(pos int, within float64, opt dtw.Options) (match dtw.Match, ok bool) {
	mu := tk.view.means[pos]
	tk.centeredQ = tk.centeredQ[:0]
	for _, v := range tk.query {
		tk.centeredQ = append(tk.centeredQ, geom.PhaseDiff(v, mu))
	}
	profile := tk.view.centered[pos]
	if pos == tk.posIdx {
		within = tk.seed(profile, within, opt)
	}
	match, err := tk.matcher.SubsequenceWithin(tk.centeredQ, profile, tk.lengths, tk.cfg.Stride, opt, within)
	return match, err == nil
}

// seed lowers the incumbent within of a scan of profile to the
// normalized distance of two of the scan's own candidates, the
// previous match's segment and the one a stride later, computed with
// the scan's options. The scan's best can only be lower, so the seed
// prunes without changing the match. A segment that is not a
// candidate of this scan is left out.
func (tk *Tracker) seed(profile []float64, within float64, opt dtw.Options) float64 {
	if !tk.hasPrevMatch {
		return within
	}
	L := tk.prevMatch.Length
	for _, start := range [2]int{tk.prevMatch.Start, tk.prevMatch.Start + tk.cfg.Stride} {
		if start%tk.cfg.Stride != 0 || start+L > len(profile) {
			continue
		}
		if d, err := tk.matcher.NormalizedDistance(tk.centeredQ, profile[start:start+L], opt); err == nil && d < within {
			within = d
		}
	}
	return within
}

// relockBadCount is how many consecutive high-distance estimates
// trigger a full position re-scan.
const relockBadCount = 12

// estimate runs Algorithm 1 over the current window. When an Eq. (4)
// shortlist is pending (or matching has been persistently poor), the
// window is matched against every candidate position and the best DTW
// distance decides the lock — the series matcher is the arbiter the
// wrapped fingerprints cannot be.
func (tk *Tracker) estimate(t float64) (Estimate, error) {
	if tk.window.Len() < 2 {
		return Estimate{}, ErrNotReady
	}
	// Resample onto exactly W-in-grid-samples points: a window edge
	// shaved by CSMA gaps must not shrink the query.
	var err error
	tk.query, err = tk.window.Series().ResampleValuesN(tk.windowSamples(), tk.query)
	if err != nil {
		return Estimate{}, err
	}

	// The query's own dynamic range decides whether position
	// disambiguation is even possible: near the front-facing pose the
	// aliased position curves coincide in value, so deciding there is
	// a coin flip. Hold the shortlist until the window shows motion.
	qlo, qhi := tk.query[0], tk.query[0]
	for _, v := range tk.query {
		if v < qlo {
			qlo = v
		}
		if v > qhi {
			qhi = v
		}
	}
	const motionRange = 0.25 // rad of phase swing within the window

	rescan := tk.badCount >= relockBadCount ||
		(tk.cfg.RescanEveryS > 0 && t >= tk.nextRescanT && qhi-qlo >= motionRange)
	candidates := tk.scratchIdx[:0]
	switch {
	case rescan:
		// Either persistent mismatch (the lock is stale) or the
		// periodic re-validation; match against every position.
		for i := range tk.profile.Positions {
			candidates = append(candidates, i)
		}
		tk.badCount = 0
		tk.nextRescanT = t + tk.cfg.RescanEveryS
	case len(tk.shortlist) > 0 && qhi-qlo >= motionRange:
		candidates = append(candidates, tk.shortlist...)
		tk.shortlist = tk.shortlist[:0]
	default:
		candidates = append(candidates, tk.posIdx)
	}
	tk.scratchIdx = candidates
	if tk.matcher == nil {
		tk.matcher = dtw.NewMatcher(256)
	}

	// Scan each candidate position. The held position's scan is seeded
	// from the previous match. A rescan scans the held position first:
	// another position wins only with a distance at most switchMargin
	// times the held one and below every position scanned before it,
	// so that bound is an exact incumbent for the rest (DESIGN §16).
	// The matches are then read back in candidate order, so ties
	// resolve as if every position had been scanned in turn.
	opt := dtw.Options{Window: tk.cfg.DTWBand, Circular: true}
	var heldScan posMatch
	within := math.Inf(1)
	if rescan {
		heldScan.match, heldScan.ok = tk.matchPosition(tk.posIdx, within, opt)
		if heldScan.ok {
			within = switchMargin * heldScan.match.Dist
		}
	}
	tk.matches = tk.matches[:0]
	for _, pos := range candidates {
		var pm posMatch
		switch {
		case !rescan:
			pm.match, pm.ok = tk.matchPosition(pos, math.Inf(1), opt)
		case pos == tk.posIdx:
			pm = heldScan
		default:
			if pm.match, pm.ok = tk.matchPosition(pos, within, opt); pm.ok {
				within = min(within, pm.match.Dist)
			}
		}
		tk.matches = append(tk.matches, pm)
	}

	var (
		best       dtw.Match
		bestPos    = -1
		anyBest    dtw.Match
		anyBestPos = -1
		held       = dtw.Match{Dist: math.Inf(1)} // this scan's match for the held position
	)
	for i, pos := range candidates {
		match := tk.matches[i].match
		if !tk.matches[i].ok {
			continue
		}
		if anyBestPos < 0 || match.Dist < anyBest.Dist {
			anyBest, anyBestPos = match, pos
		}
		// Candidate positions whose matched orientation implies a
		// physically impossible head jump from the previous estimate
		// are down-ranked: aliased positions produce plausible DTW
		// distances but orientation offsets of tens of degrees, and
		// continuity is the cheapest arbiter.
		consistent := true
		if !rescan && tk.hasLast && tk.cfg.MaxJumpDPS > 0 {
			theta := tk.profile.Positions[pos].ThetaGrid
			end := match.End()
			if end > len(theta) {
				end = len(theta)
			}
			dt := t - tk.last.Time
			if dt > 0 && dt < 0.5 {
				speed := math.Abs(theta[end-1]-tk.last.Yaw) / dt
				if speed > tk.cfg.MaxJumpDPS {
					consistent = false
				}
			}
		}
		if pos == tk.posIdx {
			held = match
		}
		if consistent && (bestPos < 0 || match.Dist < best.Dist) {
			best, bestPos = match, pos
		}
	}
	if bestPos < 0 {
		// No continuity-consistent candidate: fall back to the raw
		// minimum (the continuity filter downstream will arbitrate).
		best, bestPos = anyBest, anyBestPos
	}
	if bestPos < 0 {
		return Estimate{}, ErrNotReady
	}
	if rescan && bestPos != tk.posIdx && !math.IsInf(held.Dist, 1) &&
		best.Dist > switchMargin*held.Dist {
		// Not convincingly better: keep the current lock and report
		// the held position's own match from this scan.
		best, bestPos = held, tk.posIdx
	}
	tk.posIdx = bestPos
	tk.posLocked = true
	tk.prevMatch, tk.hasPrevMatch = best, true
	if best.Dist > tk.cfg.RelockDist {
		tk.badCount++
	} else {
		tk.badCount = 0
	}

	theta := tk.profile.Positions[bestPos].ThetaGrid
	end := best.End()
	if end > len(theta) {
		end = len(theta)
	}
	est := Estimate{
		Time:      t,
		Yaw:       theta[end-1],
		Source:    SourceCSI,
		Position:  bestPos,
		MatchDist: best.Dist,
		matchEnd:  end,
		matchLen:  best.Length,
		queryLen:  len(tk.query),
	}
	return est, nil
}

// Forecast predicts the head orientation horizonS seconds after the
// estimate's time (Eq. 6): the matched profile segment is Lm samples
// long against a W-sample query, so run-time evolves Lm/W times
// faster than the profile; advancing the profile cursor by
// horizon·(Lm/W) yields the predicted orientation.
func (tk *Tracker) Forecast(est Estimate, horizonS float64) float64 {
	if horizonS <= 0 || est.queryLen == 0 || est.Source == SourceHeld {
		return est.Yaw
	}
	theta := tk.profile.Positions[est.Position].ThetaGrid
	speedRatio := float64(est.matchLen) / float64(est.queryLen)
	advance := int(math.Round(horizonS * tk.cfg.MatchRateHz * speedRatio))
	idx := est.matchEnd - 1 + advance
	if idx >= len(theta) {
		idx = len(theta) - 1
	}
	if idx < 0 {
		idx = 0
	}
	return theta[idx]
}

// Reset clears all run-time state, keeping the profile.
func (tk *Tracker) Reset() {
	tk.window.Reset()
	tk.stable.Reset()
	tk.posIdx = 0
	tk.posLocked = false
	tk.shortlist = tk.shortlist[:0]
	tk.badCount = 0
	tk.hasLast = false
	tk.hasPrevMatch = false
	tk.haveT = false
	tk.haveRawPhi = false
	tk.unwrapped = 0
	tk.holdCount = 0
}
