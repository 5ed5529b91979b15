// Package dtw implements Dynamic Time Warping, the series-matching
// metric at the heart of ViHOT's head-orientation tracker (Sec. 3.4.4
// of the paper). DTW aligns two series that traverse the same shape at
// different speeds — exactly the mismatch between the slow profiling
// head sweep and fast run-time head turns.
//
// The implementation uses the classic two-row dynamic program with an
// optional Sakoe-Chiba band and early abandoning, and exposes a
// Matcher that reuses its scratch so the tracker's hot loop runs
// allocation-free. One branch-free row kernel (relaxRow) serves both
// entry points and computes each local cost as it relaxes the cell. It
// touches only the O(w) band slice of each row plus one guard cell, so
// a banded Distance costs O(n·w + m) rather than O(n·m).
// Subsequence, the tracker's search, first runs one unbanded
// open-start pass that bounds every candidate from below, exactly in
// float arithmetic, and skips each candidate whose bound already
// reaches the best score. SubsequenceWithin takes an incumbent, an
// upper bound on the distance the caller needs; the open-start pass
// then relaxes only the column runs that can still come in under it.
// See DESIGN.md §16 for the row-arena invariant and the bit-exactness
// arguments that gate all of this.
package dtw

import (
	"errors"
	"math"
)

// ErrEmptyInput is returned when either input series is empty.
var ErrEmptyInput = errors.New("dtw: empty input series")

// Options configures a DTW computation.
type Options struct {
	// Window is the Sakoe-Chiba band half-width in samples. Cells with
	// |i·m/n - j| > Window are excluded from the alignment. Zero or
	// negative means no band (full DTW). When the length ratio between
	// the series exceeds Window+1 the band is widened to
	// ⌈m/n⌉-1 so consecutive rows stay connected; otherwise a whole
	// row would be unreachable and the distance silently +Inf.
	Window int

	// AbandonAbove enables early abandoning: if the cheapest reachable
	// cell of a row — plus the final cell's local cost, which every
	// warping path still has to pay — exceeds this cumulative cost, the
	// computation stops and returns +Inf. Zero or negative disables
	// abandoning.
	AbandonAbove float64

	// Circular treats samples as angles in radians and uses the
	// shortest distance around the circle as the local cost, so series
	// that cross the ±π seam still match. CSI phases are circular.
	Circular bool

	// Derivative matches on first differences instead of raw values
	// (derivative DTW): shape-only matching that is immune to constant
	// offsets between query and profile, at the cost of discarding the
	// absolute level that anchors position disambiguation. Exposed for
	// the ablation study.
	Derivative bool
}

// localCosts sets dst[k] to the local cost of (a, b[k]) for every k
// of dst: |a-b|, or the shortest angular distance when circular (see
// seamFold). The DP kernels compute the same expression inline.
func localCosts(dst []float64, a float64, b []float64, circular bool) {
	for k, bk := range b[:len(dst)] {
		d := math.Abs(a - bk)
		if circular {
			d = seamFold(d)
		}
		dst[k] = d
	}
}

// seamFold turns |a-b| of two angles into the shortest distance around
// the circle. Phases coming out of atan2 live in [-π, π], so their
// difference never exceeds 2π and the math.Mod reduction — expensive
// in pure Go — is skipped on the hot path. The guarded slow path is
// bit-identical: for d ≤ 2π, Mod(d, 2π) returns d unchanged (or 0 at
// exactly 2π, which the fold below also produces). Small enough to
// inline into every kernel.
func seamFold(d float64) float64 {
	if d > 2*math.Pi {
		d = math.Mod(d, 2*math.Pi)
	}
	return min(d, 2*math.Pi-d) // the seam fold, without a branch
}

// effectiveWindow widens a Sakoe-Chiba half-width so the band stays
// connected row to row. Consecutive band centers round(i·slope) move
// by at most ⌈slope⌉ columns, and a cell in row i can reach row i-1
// only within 2w+1 columns, so w ≥ ⌈slope⌉-1 guarantees every band
// cell has a reachable predecessor (and that row 1 still contains
// column 1). For every tracker configuration (slope ≤ 2, window 8)
// the widening is a no-op, which is what keeps the golden trace
// bit-identical.
func effectiveWindow(window int, slope float64) int {
	if minW := int(math.Ceil(slope)) - 1; window < minW {
		return minW
	}
	return window
}

// bandRow returns the inclusive column range [lo, hi] of the
// Sakoe-Chiba band on row i of an n×mm grid with slope = mm/n and
// half-width w. Factored out so tests can prove the visited-cell
// count scales with w, not mm.
func bandRow(i int, slope float64, w, mm int) (lo, hi int) {
	center := int(math.Round(float64(i) * slope))
	lo = max(1, center-w)
	hi = min(mm, center+w)
	return lo, hi
}

// Matcher computes DTW distances while reusing internal scratch
// buffers across calls.
//
// Ownership rules (load-bearing for the concurrent serving engine in
// internal/serve):
//
//   - A Matcher holds only scratch memory: no state carries between
//     calls, so any sequence of Distance/Subsequence calls returns the
//     same results as with a fresh Matcher.
//   - A Matcher is NOT safe for concurrent use. Exactly one goroutine
//     may call into it at a time; there is no internal locking because
//     the DTW inner loop is the system's hot path.
//   - Consequently a Matcher may be shared across many Trackers as
//     long as all of them are driven by the same goroutine — that is
//     how a serve worker amortizes scratch across its sessions (see
//     core.Tracker.SetMatcher).
//
// The two scratch rows double as the banded cost arena: the row
// kernel initializes only the cells the band visits, carrying a
// high-water mark across rows so stale cells from earlier calls are
// never read. Subsequence adds the open-start bound row with its live
// runs and one candidate length's band; all are rebuilt by every call.
type Matcher struct {
	prev, cur   []float64
	da, db      []float64 // derivative scratch
	ends        []float64 // Subsequence: open-start bound per end column
	runs, spare []run     // Subsequence: live runs of the bound pass's rows
	lo, hi      []int     // Subsequence: band [lo[i-1], hi[i-1]] of row i

	// cells counts the DP cells relaxed over the Matcher's life: the
	// unit of matching work.
	cells int
}

// NewMatcher returns a Matcher with scratch capacity for series of up
// to the given length (it grows on demand).
func NewMatcher(capHint int) *Matcher {
	if capHint < 0 {
		capHint = 0
	}
	return &Matcher{
		prev: make([]float64, 0, capHint+1),
		cur:  make([]float64, 0, capHint+1),
	}
}

// Distance returns the unnormalized DTW distance between a and b using
// absolute difference as the local cost and the standard step pattern
// {(i-1,j), (i,j-1), (i-1,j-1)}. With early abandoning enabled the
// result may be +Inf, meaning "worse than the abandon threshold".
//
// NaN: a NaN local cost (from a NaN sample, from two equal infinities,
// or from an infinite sample in Circular mode) spreads to every cell it
// can reach through any of the three steps, and every band cell can
// reach the final one. So the result is NaN whenever a NaN cost lies
// inside the band, unless a row before it already abandoned; a row
// holding a NaN cell never abandons.
//
// The kernel clears and visits only the band slice [lo-1, hi] of each
// row. Invariant: at the start of row i, prev is initialized (inf or a
// cost) on [lo_{i-1}-1, hi_{i-1}]; because band edges are monotone
// non-decreasing, row i only ever reads below that range's floor or —
// after an explicit inf-fill of (hi_{i-1}, hi_i] — inside it.
func (m *Matcher) Distance(a, b []float64, opt Options) (float64, error) {
	if opt.Derivative {
		if len(a) < 2 || len(b) < 2 {
			return 0, ErrEmptyInput
		}
		m.da = Derivatives(a, m.da)
		m.db = Derivatives(b, m.db)
		a, b = m.da, m.db
		opt.Derivative = false
	}
	n, mm := len(a), len(b)
	if n == 0 || mm == 0 {
		return 0, ErrEmptyInput
	}
	m.prev = grow(m.prev, mm+1)
	m.cur = grow(m.cur, mm+1)
	prev, cur := m.prev, m.cur

	inf := math.Inf(1)
	circ := opt.Circular

	// Effective band: scale the window onto the diagonal of an n×m
	// grid so unequal lengths still align corner to corner, widened
	// just enough that the band is connected (never empty) on every
	// row.
	useBand := opt.Window > 0
	slope := float64(mm) / float64(n)
	w := mm
	if useBand {
		w = effectiveWindow(opt.Window, slope)
	}

	// Early-abandon prescreen: every warping path pays the local cost
	// of both corner cells (1,1) and (n,m), so their sum is a lower
	// bound on the result. lastAdd also tightens the per-row check —
	// any path leaving row i < n still has the final cell ahead of it.
	abandon := opt.AbandonAbove
	var lastAdd float64
	if abandon > 0 {
		var corner [2]float64 // costs of cells (1,1) and (n,m)
		localCosts(corner[:1], a[0], b, circ)
		if n > 1 || mm > 1 {
			localCosts(corner[1:], a[n-1], b[mm-1:], circ)
		}
		lastAdd = corner[1]
		if corner[0]+lastAdd > abandon {
			return inf, nil
		}
	}

	_, hi1 := bandRow(1, slope, w, mm)
	prevHi := initRow0(prev, hi1)
	for i := 1; i <= n; i++ {
		lo, hi := bandRow(i, slope, w, mm)
		rowMin := relaxRow(prev, cur, a[i-1], b[lo-1:hi], lo, hi, prevHi, circ)
		m.cells += hi - lo + 1
		prevHi = hi
		if abandon > 0 {
			la := lastAdd
			if i == n {
				la = 0 // the final cell is already inside rowMin
			}
			if rowMin+la > abandon {
				return inf, nil
			}
		}
		prev, cur = cur, prev
	}
	return prev[mm], nil
}

// initRow0 initializes row 0 of the arena: the origin cell, then +Inf
// on the prefix [1, hi1] that row 1 reads. It returns hi1, the
// high-water mark relaxRow carries from row to row.
func initRow0(prev []float64, hi1 int) int {
	prev[0] = 0
	inf := math.Inf(1)
	for j := 1; j <= hi1; j++ {
		prev[j] = inf
	}
	return hi1
}

// relaxRow is the DP kernel shared by Distance and Subsequence. It
// fills cur[lo..hi] for one row of the banded grid, where the row's
// query sample is a and b[k] is the series sample of column lo+k, and
// returns the row minimum:
//
//	cur[j] = cost(a, b[j-lo]) + min(prev[j], prev[j-1], cur[j-1])
//
// The local cost is computed in the loop, as localCosts computes it;
// it is off the row's dependency chain, so it costs little. The DP
// step has no data-dependent branch: Go's builtin min compiles to a
// compare-free select. Unreachable cells come out +Inf because every
// local cost is ≥ 0 or +Inf. A NaN predecessor, whichever of the three
// it is, makes the cell NaN, and a NaN cell makes the row minimum NaN.
//
// prevHi is the previous row's hi. Because band edges never move left,
// the previous row wrote prev on [lo_{i-1}-1, prevHi], so the only
// cells this row reads that nobody wrote are prev(prevHi, hi], which
// are inf-filled first, and the guard cell cur[lo-1], which the
// j == lo step reads as its deletion predecessor.
func relaxRow(prev, cur []float64, a float64, b []float64, lo, hi, prevHi int, circular bool) float64 {
	inf := math.Inf(1)
	for j := prevHi + 1; j <= hi; j++ {
		prev[j] = inf
	}
	cur[lo-1] = inf
	b = b[:hi-lo+1]
	// Windows starting at column lo: p[k] and c[k] are cell lo+k. The
	// match and deletion predecessors are carried from the previous
	// step instead of re-read.
	p, c := prev[lo:hi+1], cur[lo:hi+1]
	diag, left := prev[lo-1], inf
	rowMin := inf
	for k, bk := range b {
		ck := math.Abs(a - bk)
		if circular {
			ck = seamFold(ck)
		}
		up := p[k]
		v := ck + min(min(up, diag), left)
		c[k], left, diag = v, v, up
		rowMin = min(rowMin, v)
	}
	return rowMin
}

// NormalizedDistance returns Distance divided by the number of samples
// actually aligned, making scores comparable across candidate-segment
// lengths — required by Algorithm 1, which compares matches of
// different lengths Lₙ ∈ [0.5W, 2W]. In Derivative mode the aligned
// series are the first differences, one sample shorter each, and the
// normalizer shrinks accordingly.
func (m *Matcher) NormalizedDistance(a, b []float64, opt Options) (float64, error) {
	d, err := m.Distance(a, b, opt)
	if err != nil {
		return 0, err
	}
	return d / float64(alignedLen(len(a), len(b), opt)), nil
}

// alignedLen is the total number of samples Distance aligns for series
// of the given raw lengths under opt — the normalizer shared by
// NormalizedDistance and Subsequence's abandon-bound conversion.
func alignedLen(na, nb int, opt Options) int {
	if opt.Derivative {
		return (na - 1) + (nb - 1)
	}
	return na + nb
}

// Distance is a convenience wrapper allocating a throwaway Matcher.
func Distance(a, b []float64, opt Options) (float64, error) {
	return NewMatcher(len(b)).Distance(a, b, opt)
}

// grow returns s resized to n, reallocating only when it lacks capacity.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// Derivatives returns the first differences of xs (length len(xs)-1),
// appending into out. Used with Options.Derivative to pre-process both
// series consistently.
func Derivatives(xs []float64, out []float64) []float64 {
	out = out[:0]
	for i := 1; i < len(xs); i++ {
		out = append(out, xs[i]-xs[i-1])
	}
	return out
}
