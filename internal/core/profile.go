// Package core implements ViHOT itself: position-orientation joint
// profiling (Sec. 3.3), the two-level position-orientation joint
// tracker with DTW series matching (Sec. 3.4, Algorithm 1), head
// orientation forecasting (Sec. 3.4.6), and the steering identifier
// with camera fallback (Sec. 3.6).
package core

import (
	"errors"
	"fmt"
	"math"
	"math/cmplx"

	"vihot/internal/dsp"
	"vihot/internal/geom"
)

// Errors returned by profile construction and tracking.
var (
	ErrEmptyProfile   = errors.New("core: profile has no positions")
	ErrShortRecording = errors.New("core: recording too short to profile")
	ErrNotReady       = errors.New("core: tracker window not yet filled")
)

// SweepRecording is the raw material of one profiling pass: the CSI
// phase stream recorded while the driver swept the head back and
// forth at one head position, the time-aligned ground-truth
// orientation stream (from the phone camera or headset), and the
// front-facing fingerprint phase φ⁰c(i) captured before the sweep.
type SweepRecording struct {
	Position    int
	Fingerprint float64    // φ⁰c(i), radians
	Phase       dsp.Series // Φ*c: CSI phase vs time
	Orientation dsp.Series // Θ*c: head yaw (deg) vs time
}

// PositionProfile is the processed profile of one head position: the
// phase and orientation series resampled onto the common match grid.
type PositionProfile struct {
	Position    int
	Fingerprint float64

	// Grids resampled at the profile's MatchRate; equal length, index-
	// aligned: ThetaGrid[k] is the head orientation when the CSI phase
	// was PhiGrid[k].
	PhiGrid   []float64
	ThetaGrid []float64
}

// Profile is a driver's full CSI profile P = {C₁ … Cₙ} (Sec. 3.3).
//
// # Immutability contract
//
// Once a Profile has been handed to a consumer — NewTracker,
// NewPipeline, serve.Manager.Open, or a profilestore cache — it is
// immutable: no field, slice element, or nested slice may be written
// again. The serving stack relies on this to share one Profile
// instance across many concurrent sessions (and with the cache that
// loaded it) without copies or locks. Operations that conceptually
// modify a profile return a new one instead: see Merge and Clone.
// Trackers also share grids derived from a profile instance once (see
// matchView); a write would leave them stale.
// TestProfileImmutableUnderUse deep-freezes a profile and proves the
// tracker honours the contract.
type Profile struct {
	MatchRateHz float64
	Positions   []PositionProfile
}

// fnv64 offset/prime constants (FNV-1a), inlined so Fingerprint needs
// no hash.Hash allocation.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// Fingerprint returns a 64-bit FNV-1a hash over the profile's
// semantic content: match rate, and every position's index,
// front-facing fingerprint phase, and grids, in order. It is a pure
// function of the data — independent of how the profile was encoded —
// so a legacy-gob profile and its migrated v1 copy fingerprint
// identically, and two sessions can cheaply verify they share the
// same profile generation. It is not a cryptographic digest.
func (p *Profile) Fingerprint() uint64 {
	h := uint64(fnvOffset64)
	mix := func(v uint64) {
		for i := 0; i < 64; i += 8 {
			h ^= (v >> i) & 0xff
			h *= fnvPrime64
		}
	}
	mixF := func(f float64) { mix(math.Float64bits(f)) }
	mixF(p.MatchRateHz)
	mix(uint64(len(p.Positions)))
	for _, pos := range p.Positions {
		mix(uint64(int64(pos.Position)))
		mixF(pos.Fingerprint)
		mix(uint64(len(pos.PhiGrid)))
		for _, v := range pos.PhiGrid {
			mixF(v)
		}
		mix(uint64(len(pos.ThetaGrid)))
		for _, v := range pos.ThetaGrid {
			mixF(v)
		}
	}
	return h
}

// BitEqual reports whether q holds exactly p's content: the same match
// rate and, position by position, the same index, front-facing
// fingerprint and grids, every float compared by its bits. It is the
// exact check behind equal Fingerprints, so +0 and -0 differ and a NaN
// equals a NaN with the same payload.
func (p *Profile) BitEqual(q *Profile) bool {
	if math.Float64bits(p.MatchRateHz) != math.Float64bits(q.MatchRateHz) ||
		len(p.Positions) != len(q.Positions) {
		return false
	}
	for i := range p.Positions {
		a, b := &p.Positions[i], &q.Positions[i]
		if a.Position != b.Position ||
			math.Float64bits(a.Fingerprint) != math.Float64bits(b.Fingerprint) ||
			!bitEqual(a.PhiGrid, b.PhiGrid) || !bitEqual(a.ThetaGrid, b.ThetaGrid) {
			return false
		}
	}
	return true
}

func bitEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if math.Float64bits(a[k]) != math.Float64bits(b[k]) {
			return false
		}
	}
	return true
}

// Clone returns a deep copy of p sharing no memory with it. Use it
// when code needs a mutable scratch profile derived from a shared
// (immutable) one.
func (p *Profile) Clone() *Profile {
	q := &Profile{
		MatchRateHz: p.MatchRateHz,
		Positions:   make([]PositionProfile, len(p.Positions)),
	}
	for i, pos := range p.Positions {
		q.Positions[i] = PositionProfile{
			Position:    pos.Position,
			Fingerprint: pos.Fingerprint,
			PhiGrid:     append([]float64(nil), pos.PhiGrid...),
			ThetaGrid:   append([]float64(nil), pos.ThetaGrid...),
		}
	}
	return q
}

// DefaultMatchRateHz is the uniform grid both the profile and the
// run-time window are resampled to before DTW.
const DefaultMatchRateHz = 100

// BuildProfile processes raw sweep recordings into a matchable
// profile. Each recording must span at least minDuration of data;
// shorter ones yield ErrShortRecording.
func BuildProfile(recs []SweepRecording, matchRateHz float64) (*Profile, error) {
	if matchRateHz <= 0 {
		matchRateHz = DefaultMatchRateHz
	}
	if len(recs) == 0 {
		return nil, ErrEmptyProfile
	}
	const minDuration = 0.5 // seconds of usable sweep
	p := &Profile{MatchRateHz: matchRateHz}
	for _, r := range recs {
		if r.Phase.Duration() < minDuration || r.Orientation.Duration() < minDuration {
			return nil, fmt.Errorf("%w: position %d has %.2fs of phase and %.2fs of orientation",
				ErrShortRecording, r.Position, r.Phase.Duration(), r.Orientation.Duration())
		}
		// Unwrap the phase stream before resampling: linear
		// interpolation across the ±π seam would otherwise invent
		// values on the wrong side of the circle. Grid values are
		// wrapped back afterwards.
		unwrapped := make(dsp.Series, len(r.Phase))
		uv := dsp.Unwrap(r.Phase.Values())
		for k := range r.Phase {
			unwrapped[k] = dsp.Sample{T: r.Phase[k].T, V: uv[k]}
		}
		phi, err := unwrapped.ResampleValues(matchRateHz, nil)
		if err != nil {
			return nil, fmt.Errorf("core: resample phase for position %d: %w", r.Position, err)
		}
		for k := range phi {
			phi[k] = geom.WrapRad(phi[k])
		}
		// Resample orientation onto the phase grid timestamps so the
		// two stay index-aligned even though the camera/headset labels
		// arrive on their own clock.
		theta := make([]float64, len(phi))
		t0 := r.Phase[0].T
		dt := 1 / matchRateHz
		for k := range theta {
			v, err := r.Orientation.At(t0 + float64(k)*dt)
			if err != nil {
				return nil, fmt.Errorf("core: align orientation for position %d: %w", r.Position, err)
			}
			theta[k] = v
		}
		p.Positions = append(p.Positions, PositionProfile{
			Position:    r.Position,
			Fingerprint: geom.WrapRad(r.Fingerprint),
			PhiGrid:     phi,
			ThetaGrid:   theta,
		})
	}
	return p, nil
}

// NearestPosition implements Eq. (4): it returns the index into
// Positions whose front-facing fingerprint φ⁰c(i) is circularly
// closest to the observed stable phase φ⁰r.
func (p *Profile) NearestPosition(phi0r float64) (int, error) {
	c, err := p.NearestPositions(phi0r, 1)
	if err != nil {
		return 0, err
	}
	return c[0], nil
}

// NearestPositions returns up to k position indices ordered by
// circular fingerprint distance to φ⁰r — the Eq. (4) shortlist.
//
// At 2.4 GHz the fingerprint phase wraps every ≈12.5 cm of path
// change, so across the ≈18 cm lean range several head positions can
// share similar φ⁰ values (aliasing). A single nearest match is then
// ambiguous; the tracker resolves the shortlist by DTW match quality.
func (p *Profile) NearestPositions(phi0r float64, k int) ([]int, error) {
	if len(p.Positions) == 0 {
		return nil, ErrEmptyProfile
	}
	k = max(1, min(k, len(p.Positions)))
	ranked := p.rankPositions(nil, phi0r)
	out := make([]int, k)
	for i := range out {
		out[i] = ranked[i].idx
	}
	return out, nil
}

// rankedPosition is one entry of an Eq. (4) ranking: a position index
// and its circular fingerprint distance to φ⁰r.
type rankedPosition struct {
	idx  int
	dist float64
}

// rankPositions ranks every position by circular fingerprint distance
// to φ⁰r, reusing dst's storage, so the tracker can rank on every
// stable sample without allocating. The stable insertion sort keeps
// equal distances in index order. That is also the order sort.Slice
// produced here before: it insertion-sorts slices of up to 12
// elements, and profiles hold 10 positions by default.
func (p *Profile) rankPositions(dst []rankedPosition, phi0r float64) []rankedPosition {
	dst = dst[:0]
	for i, pos := range p.Positions {
		d := math.Abs(geom.PhaseDiff(pos.Fingerprint, phi0r))
		j := len(dst)
		dst = append(dst, rankedPosition{})
		for ; j > 0 && d < dst[j-1].dist; j-- {
			dst[j] = dst[j-1]
		}
		dst[j] = rankedPosition{i, d}
	}
	return dst
}

// Merge returns a NEW profile holding p's positions followed by
// other's, supporting the paper's "keep updating a driver's CSI
// profile by adding new traces after each trip" (Sec. 3.3). Match
// rates must agree. Neither p nor other is modified and the result
// shares no memory with either — merging is safe even when p is a
// cached instance other sessions are concurrently tracking against
// (see the Profile immutability contract).
func (p *Profile) Merge(other *Profile) (*Profile, error) {
	if other == nil || len(other.Positions) == 0 {
		return p.Clone(), nil
	}
	if other.MatchRateHz != p.MatchRateHz {
		return nil, fmt.Errorf("core: cannot merge profiles with match rates %v and %v",
			p.MatchRateHz, other.MatchRateHz)
	}
	m := p.Clone()
	m.Positions = append(m.Positions, other.Clone().Positions...)
	return m, nil
}

// GridSamples returns the total number of profile grid samples, a
// proxy for matching cost.
func (p *Profile) GridSamples() int {
	n := 0
	for _, pos := range p.Positions {
		n += len(pos.PhiGrid)
	}
	return n
}

// MeanPhase returns the circular mean of a position's phase grid,
// used to recentre phases away from the ±π seam before matching.
func (pp *PositionProfile) MeanPhase() float64 {
	var sum complex128
	for _, phi := range pp.PhiGrid {
		sum += cmplx.Rect(1, phi)
	}
	if sum == 0 {
		return 0
	}
	return cmplx.Phase(sum)
}
