package dtw

import (
	"errors"
	"math"
)

// ErrNoCandidates is returned when the search space is empty, e.g.
// the profile is shorter than every candidate length.
var ErrNoCandidates = errors.New("dtw: no candidate segments to search")

// Match describes the best-matching segment found by Subsequence.
type Match struct {
	Start  int     // segment start index in the profile series
	Length int     // segment length in samples
	Dist   float64 // normalized DTW distance of the winning segment
}

// End returns the exclusive end index of the matched segment.
func (m Match) End() int { return m.Start + m.Length }

// Subsequence finds the segment of profile that best matches query
// under normalized DTW, enumerating every candidate length in lengths
// and sliding each over the profile with the given stride (≥1). This
// is Lines 3–8 of the paper's Algorithm 1: candidate lengths span
// [0.5W, 2W] to absorb head-turning-speed mismatch between profiling
// and run-time, and the global minimum across all (start, length)
// pairs wins; among equal scores the first candidate in (length,
// start) order wins.
//
// The result is bit-identical to calling NormalizedDistance on every
// candidate segment in that order, with the early-abandon threshold
// tightened to the best score found so far. It is SubsequenceWithin
// with no incumbent.
func (m *Matcher) Subsequence(query, profile []float64, lengths []int, stride int, opt Options) (Match, error) {
	return m.SubsequenceWithin(query, profile, lengths, stride, opt, math.Inf(1))
}

// SubsequenceWithin is Subsequence given an incumbent: an upper bound
// within on the normalized distance the caller needs. It returns
// exactly what Subsequence returns when that match's Dist ≤ within,
// and ErrNoCandidates otherwise. A NaN or +Inf within prunes nothing.
// The distance of any candidate segment, computed by NormalizedDistance
// with the same options, is a valid within: the scan's best can only
// be lower.
//
// The scan gets there cheaper than one DP per candidate:
//
//   - Open-start bound. One unbanded DP over the whole query×profile
//     grid, whose first row may start at any column, gives for every
//     end column the distance of the best segment of any length ending
//     there. A candidate's warping paths are a subset of those, so the
//     bound never exceeds the candidate's distance, bit for bit. A
//     candidate whose bound, normalized, already reaches the best score
//     or exceeds within is skipped before any row is set up. A NaN
//     bound compares false, so a candidate near a NaN cost still runs.
//   - Pruning. With a finite within, a cell of the bound pass above
//     T = within·maxNorm·(1+margin), maxNorm the largest normalizer
//     among the lengths, is written as +Inf, and each row relaxes only
//     the live column runs of the row above. Cells at or below T keep
//     their exact values, so only candidates that cannot reach within
//     lose their bound, and the candidate loop visits only the end
//     columns left live. Each candidate's abandon limit is capped at
//     within·norm·(1+margin) the same way.
//   - Self-seed. After the bound pass the scan runs one candidate, the
//     one ending nearest the bound's lowest live column, and lowers
//     within to its distance. A scan with no incumbent thus still cuts
//     the candidates that run before the best one.
//   - Lazy costs. Local costs are computed where a cell is relaxed:
//     live cells of the bound pass and the band rows of candidates
//     that run.
//   - Band table. The band [lo, hi] of every row is computed once per
//     candidate length that runs a candidate, not once per row of every
//     candidate.
//
// See DESIGN.md §16 for why every skip, clip and cap is exact in float
// arithmetic.
func (m *Matcher) SubsequenceWithin(query, profile []float64, lengths []int, stride int, opt Options, within float64) (Match, error) {
	if len(query) == 0 || len(profile) == 0 {
		return Match{}, ErrEmptyInput
	}
	if stride < 1 {
		stride = 1
	}
	// Errors first, in the order a per-candidate scan meets them: in
	// Derivative mode one one-sample candidate fails the whole search,
	// even after longer lengths matched.
	maxNorm := 0
	for _, L := range lengths {
		if L < 1 || L > len(profile) {
			continue
		}
		if opt.Derivative && (len(query) < 2 || L < 2) {
			return Match{}, ErrEmptyInput
		}
		maxNorm = max(maxNorm, alignedLen(len(query), L, opt))
	}
	// Distances are ≥ 0, so a negative within admits nothing; NaN
	// prunes nothing, as +Inf does.
	if maxNorm == 0 || within < 0 {
		return Match{}, ErrNoCandidates
	}
	if math.IsNaN(within) {
		within = math.Inf(1)
	}
	T := math.Inf(1)
	if within < T {
		T = incumbentLimit(within, float64(maxNorm))
	}
	q, p := query, profile // the aligned series: raw, or first differences
	if opt.Derivative {
		m.da = Derivatives(query, m.da)
		m.db = Derivatives(profile, m.db)
		q, p = m.da, m.db
	}
	ends := m.boundPass(q, p, T, opt.Circular)
	n := len(q)
	within = m.selfSeed(q, p, ends, len(query), lengths, stride, opt, within)
	best := Match{Dist: math.Inf(1)}
	for _, L := range lengths {
		if L < 1 || L > len(profile) {
			continue
		}
		mm := n - len(query) + L // L, or L-1 over first differences
		banded := false          // the band is built for the first candidate that runs
		norm := float64(alignedLen(len(query), L, opt))
		var cut float64 // the incumbent's abandon limit; 0 means none
		if within < math.Inf(1) {
			cut = incumbentLimit(within, norm)
		}
		limit := abandonLimit(best.Dist, norm, opt.AbandonAbove, cut)
		// Visit the starts on the stride grid whose end column
		// start+mm-1 is live; runs are sorted, so starts ascend.
		for _, r := range m.runs {
			start := max(0, r.a-mm+1)
			start += (stride - start%stride) % stride
			for ; start+mm-1 <= r.b; start += stride {
				if e := ends[start+mm-1] / norm; e >= best.Dist || e > within {
					continue
				}
				if !banded {
					m.buildBand(n, mm, opt.Window)
					banded = true
				}
				d := m.align(q, p[start:start+mm], limit, opt.Circular)
				if d /= norm; d < best.Dist {
					best = Match{Start: start, Length: L, Dist: d}
					limit = abandonLimit(best.Dist, norm, opt.AbandonAbove, cut)
				}
			}
		}
	}
	if math.IsInf(best.Dist, 1) || best.Dist > within {
		return Match{}, ErrNoCandidates
	}
	return best, nil
}

// Incumbent limits. fl(D/norm) ≤ within must imply D ≤ within·norm·
// (1+withinMargin), whatever the rounding: the relative margin covers
// the three roundings of normal numbers (a few 1e-16), and the floor
// covers subnormal quotients, whose rounding error is absolute.
const (
	withinMargin = 1e-12
	withinFloor  = 0x1p-900
)

// incumbentLimit converts a finite within ≥ 0 into the unnormalized
// limit above which a cell or candidate with normalizer norm cannot
// score within it.
func incumbentLimit(within, norm float64) float64 {
	return max(within*norm*(1+withinMargin), withinFloor)
}

// abandonLimit converts the best normalized score so far into the
// unnormalized abandon threshold for a candidate whose normalizer is
// norm, capped by the caller's own AbandonAbove and by the incumbent's
// cut (0 for none). Zero or less means no abandoning, exactly as
// Options.AbandonAbove reads.
func abandonLimit(bestDist, norm, abandonAbove, cut float64) float64 {
	limit := abandonAbove
	if bound := bestDist * norm; !math.IsInf(bestDist, 1) && (limit <= 0 || bound < limit) {
		limit = bound
	}
	if cut > 0 && (limit <= 0 || cut < limit) {
		limit = cut
	}
	return limit
}

// run is a maximal interval [a, b] of live columns in a row of the
// open-start pass.
type run struct{ a, b int }

// boundPass runs the DP over the whole len(q)×len(p) grid with a
// free start: row 0 is zero at every column and no band applies. It
// returns ends, where ends[e] is the distance of the query against the
// best profile segment ending at column e (0-based), over every start
// and every warping path, and leaves the last row's live runs in
// m.runs. Each cell is fl(cost + min(predecessors)), and fl(c + ·) is
// monotone, so each cell is the float minimum over its paths of the
// sum along each path. A candidate ending at e runs the same kernel on
// the same costs over a subset of those paths, so ends[e] is at most
// its distance, bit for bit.
//
// A cell above T is dead: it is written as +Inf, and later rows relax
// only around the runs of live cells (see relaxLive). With T = +Inf
// every cell is live and this is the dense pass. Rows are relaxed two
// at a time, in place; an odd row count first sets row 1, whose cells
// are the costs because row 0 is zero.
func (m *Matcher) boundPass(q, p []float64, T float64, circular bool) []float64 {
	np := len(p)
	m.ends = grow(m.ends, np)
	ends := m.ends
	runs := m.runs[:0]
	i := len(q) % 2
	if i == 1 {
		localCosts(ends, q[0], p, circular)
		live := -1
		for k, v := range ends {
			if v > T {
				ends[k] = math.Inf(1)
				if live >= 0 {
					runs = append(runs, run{live, k - 1})
					live = -1
				}
			} else if live < 0 {
				live = k
			}
		}
		if live >= 0 {
			runs = append(runs, run{live, np - 1})
		}
		m.cells += np
	} else {
		clear(ends)
		runs = append(runs, run{0, np - 1})
	}
	for ; i < len(q); i += 2 {
		next, cells := relaxLive(ends, p, runs, m.spare[:0], q[i], q[i+1], T, circular)
		m.cells += cells
		m.spare, runs = runs, next
	}
	m.runs = runs
	return ends
}

// relaxLive relaxes two rows of the open-start pass in place, the
// rows of query samples q1 and q2. On entry row holds the row above
// them, dead columns +Inf, and runs its live runs. It leaves the
// second row in row, appends that row's live runs to out and returns
// them with the number of cells relaxed.
//
// A cell can be live only if one of its predecessors is: the column
// above, the one above-left, or the one to its left. So a run [a, b]
// of the row above makes the first row live at most on [a, b+1] and
// the second on [a, b+2], plus wherever either row's left neighbour
// is live. The sweep covers exactly that, and runs it reaches merge
// into it. Every other column keeps the +Inf it held. A NaN cell
// compares false against T, so it is live and spreads as it does in
// the dense pass. The two rows' dependency chains overlap, which is
// why they share a sweep.
func relaxLive(row, p []float64, runs, out []run, q1, q2, T float64, circular bool) ([]run, int) {
	inf := math.Inf(1)
	np := len(row)
	cells := 0
	for r := 0; r < len(runs); {
		k, hi := runs[r].a, runs[r].b+2
		r++
		live := -1 // start of the second row's live run being extended, or -1
		// Column k-1 of the row above and of the two new rows: dead, or
		// before the first column.
		diag, a, b := inf, inf, inf
		for {
			for hi = min(hi, np-1); k <= hi; k++ {
				up := row[k]
				ak, bk := inf, inf
				// A cell whose predecessors are all dead is dead.
				if !(up > T && diag > T && a > T) {
					c := math.Abs(q1 - p[k])
					if circular {
						c = seamFold(c)
					}
					if ak = c + min(min(up, diag), a); ak > T {
						ak = inf
					}
					cells++
				}
				if !(ak > T && a > T && b > T) {
					c := math.Abs(q2 - p[k])
					if circular {
						c = seamFold(c)
					}
					if bk = c + min(min(ak, a), b); bk > T {
						bk = inf
					}
					cells++
				}
				if bk > T {
					if live >= 0 {
						out = append(out, run{live, k - 1})
						live = -1
					}
				} else if live < 0 {
					live = k
				}
				row[k], diag, a, b = bk, up, ak, bk
			}
			switch {
			case k == np:
				r = len(runs) // any run left starts inside this sweep
			case r < len(runs) && runs[r].a <= k: // the next run joins the sweep
				hi = runs[r].b + 2
				r++
				continue
			case live >= 0 || !(a > T): // a left neighbour is live (NaN counts)
				hi = k
				continue
			}
			break
		}
		if live >= 0 {
			out = append(out, run{live, k - 1})
		}
	}
	return out, cells
}

// buildBand fills m.lo and m.hi with the band of each row of an n×mm
// grid, exactly as Distance computes it row by row.
func (m *Matcher) buildBand(n, mm, window int) {
	slope := float64(mm) / float64(n)
	w := mm
	if window > 0 {
		w = effectiveWindow(window, slope)
	}
	m.lo = grow(m.lo, n)
	m.hi = grow(m.hi, n)
	for i := 1; i <= n; i++ {
		m.lo[i-1], m.hi[i-1] = bandRow(i, slope, w, mm)
	}
}

// selfSeed returns an incumbent the scan finds for itself: the
// distance of the candidate that ends nearest the lowest live column
// of the bound, at the length whose bound is lowest there. It is
// computed as the candidate loop computes it, with the caller's
// AbandonAbove, so it is the distance of a real candidate and the
// scan's best can only be lower (+Inf if there is none, or it is
// abandoned). It costs one candidate DP and tightens the abandon limit
// of the candidates that run before the best one.
func (m *Matcher) selfSeed(q, p, ends []float64, nq int, lengths []int, stride int, opt Options, within float64) float64 {
	e, low := -1, math.Inf(1)
	for _, r := range m.runs {
		for k, v := range ends[r.a : r.b+1] {
			if v < low {
				e, low = r.a+k, v
			}
		}
	}
	if e < 0 {
		return within
	}
	var mmS, startS int
	var normS, ratio = 0.0, math.Inf(1)
	for _, L := range lengths {
		mm := len(q) - nq + L
		start := e - mm + 1
		if L < 1 || L > nq+len(p)-len(q) || start < 0 {
			continue
		}
		start -= start % stride
		norm := float64(alignedLen(nq, L, opt))
		if r := ends[start+mm-1] / norm; r < ratio {
			mmS, startS, normS, ratio = mm, start, norm, r
		}
	}
	if normS == 0 || !(ratio <= within) {
		return within
	}
	var cut float64
	if within < math.Inf(1) {
		cut = incumbentLimit(within, normS)
	}
	m.buildBand(len(q), mmS, opt.Window)
	d := m.align(q, p[startS:startS+mmS], abandonLimit(math.Inf(1), normS, opt.AbandonAbove, cut), opt.Circular) / normS
	if d < within { // false for NaN, which bounds nothing
		return d
	}
	return within
}

// align runs the banded DP of query q against the candidate segment
// p (mm samples), computing each band row's local costs as it goes,
// and returns its unnormalized distance, or +Inf once a row proves it
// worse than limit (≤ 0: never).
//
// Distance also runs a corner prescreen, the first cell's cost plus
// the last cell's. align needs none: row 1's minimum is its first
// cell, since every other row-1 cell adds a cost ≥ 0 to its left
// neighbour, so the row-1 check is that same sum, even when row 1 is
// also the last row. When a NaN makes the two disagree, the distance
// is NaN and cannot win either.
func (m *Matcher) align(q, p []float64, limit float64, circular bool) float64 {
	n, mm := len(q), len(p)
	var lastAdd [1]float64 // the final cell's cost
	if limit > 0 && (n > 1 || mm > 1) {
		localCosts(lastAdd[:], q[n-1], p[mm-1:], circular)
	}
	m.prev = grow(m.prev, mm+1)
	m.cur = grow(m.cur, mm+1)
	prev, cur := m.prev, m.cur
	prevHi := initRow0(prev, m.hi[0])
	for i := 1; i <= n; i++ {
		lo, hi := m.lo[i-1], m.hi[i-1]
		rowMin := relaxRow(prev, cur, q[i-1], p[lo-1:hi], lo, hi, prevHi, circular)
		m.cells += hi - lo + 1
		prevHi = hi
		if limit > 0 {
			la := lastAdd[0]
			if i == n && i > 1 {
				la = 0 // the final cell is already inside rowMin
			}
			if rowMin+la > limit {
				return math.Inf(1)
			}
		}
		prev, cur = cur, prev
	}
	return prev[mm]
}

// CandidateLengths enumerates the candidate match lengths of
// Algorithm 1: from ratioLo·w to ratioHi·w in steps of step samples
// (minimum 1). The returned lengths are clipped to [1, maxLen] and
// deduplicated while preserving order.
func CandidateLengths(w int, ratioLo, ratioHi float64, step, maxLen int) []int {
	if w < 1 || ratioHi < ratioLo {
		return nil
	}
	if step < 1 {
		step = 1
	}
	lo := int(math.Floor(float64(w) * ratioLo))
	hi := int(math.Ceil(float64(w) * ratioHi))
	if lo < 1 {
		lo = 1
	}
	if hi > maxLen {
		hi = maxLen
	}
	var out []int
	seen := make(map[int]bool)
	for L := lo; L <= hi; L += step {
		if !seen[L] {
			seen[L] = true
			out = append(out, L)
		}
	}
	return out
}
