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
// tightened to the best score found so far. The scan gets there
// cheaper:
//
//   - Cost table. The local cost of every (query sample, profile
//     sample) pair is computed once per call into a len(query) ×
//     len(profile) table (in Derivative mode, over the first
//     differences of both), about 65 KB for the tracker's 10-sample
//     query against an 815-sample profile. Each banded row of a
//     candidate is a contiguous slice of that table.
//   - Open-start bound. One unbanded DP over the whole table, whose
//     first row may start at any column, gives for every end column
//     the distance of the best segment of any length ending there. A
//     candidate's warping paths are a subset of those, and every cell
//     is the float minimum over its paths of the sum along each, so
//     the bound never exceeds the candidate's distance. A candidate
//     whose bound, normalized, already reaches the best score cannot
//     strictly beat it and is skipped before any row is set up. A NaN
//     bound compares false, so a candidate near a NaN cost still runs.
//   - Band table. The band [lo, hi] of every row is computed once per
//     candidate length rather than once per row of every candidate.
//
// The table lives in the Matcher and is rebuilt by every call, so the
// Matcher's ownership rules are unchanged.
func (m *Matcher) Subsequence(query, profile []float64, lengths []int, stride int, opt Options) (Match, error) {
	if len(query) == 0 || len(profile) == 0 {
		return Match{}, ErrEmptyInput
	}
	if stride < 1 {
		stride = 1
	}
	best := Match{Dist: math.Inf(1)}
	searched := false
	var q, p []float64 // the aligned series: raw, or first differences
	var ends []float64 // the open-start bound per end column of p
	for _, L := range lengths {
		if L < 1 || L > len(profile) {
			continue
		}
		// Derivative mode cannot align a one-sample series; the first
		// such candidate fails the whole search, as Distance would.
		if opt.Derivative && (len(query) < 2 || L < 2) {
			return Match{}, ErrEmptyInput
		}
		if !searched {
			q, p = m.buildCostTable(query, profile, opt)
			ends = m.openStartBound(len(q), len(p))
			searched = true
		}
		n, np := len(q), len(p)
		mm := len(q) - len(query) + L // L, or L-1 over first differences
		m.buildBand(n, mm, opt.Window)
		norm := float64(alignedLen(len(query), L, opt))
		// lastOff+start indexes the cost of the final cell (n, mm).
		lastOff, lastCell := (n-1)*np+mm-1, n > 1 || mm > 1
		limit := abandonLimit(best.Dist, norm, opt.AbandonAbove)
		for start := 0; start+mm <= np; start += stride {
			if ends[start+mm-1]/norm >= best.Dist {
				continue
			}
			var lastAdd float64
			if limit > 0 && lastCell {
				lastAdd = m.cost[lastOff+start]
			}
			d := m.align(start, n, np, mm, limit, lastAdd)
			if d /= norm; d < best.Dist {
				best = Match{Start: start, Length: L, Dist: d}
				limit = abandonLimit(best.Dist, norm, opt.AbandonAbove)
			}
		}
	}
	if !searched || math.IsInf(best.Dist, 1) {
		return Match{}, ErrNoCandidates
	}
	return best, nil
}

// abandonLimit converts the best normalized score so far into the
// unnormalized abandon threshold for a candidate whose normalizer is
// norm, capped by the caller's own AbandonAbove. Zero or less means
// no abandoning, exactly as Options.AbandonAbove reads.
func abandonLimit(bestDist, norm, abandonAbove float64) float64 {
	if math.IsInf(bestDist, 1) {
		return abandonAbove
	}
	if bound := bestDist * norm; abandonAbove <= 0 || bound < abandonAbove {
		return bound
	}
	return abandonAbove
}

// buildCostTable fills m.cost with the local cost of every (query,
// profile) sample pair, row-major with one row per query sample, and
// returns the series it was built over: the inputs themselves, or
// their first differences in Derivative mode.
func (m *Matcher) buildCostTable(query, profile []float64, opt Options) (q, p []float64) {
	q, p = query, profile
	if opt.Derivative {
		m.da = Derivatives(query, m.da)
		m.db = Derivatives(profile, m.db)
		q, p = m.da, m.db
	}
	np := len(p)
	m.cost = grow(m.cost, len(q)*np)
	for i, qi := range q {
		localCosts(m.cost[i*np:(i+1)*np], qi, p, opt.Circular)
	}
	return q, p
}

// openStartBound runs the DP over the whole n×np cost table with a
// free start: row 0 is zero at every column and no band applies. It
// returns ends, where ends[e] is the distance of the query against the
// best profile segment ending at column e (0-based), over every start
// and every warping path. Each cell is fl(cost + min(predecessors)),
// and fl(c + ·) is monotone, so each cell is the float minimum over its
// paths of the sum along each path. A candidate ending at e runs the
// same kernel on the same costs over a subset of those paths, so
// ends[e] is at most its distance, bit for bit.
//
// Two rows are relaxed per sweep so their dependency chains overlap.
// The row is updated in place: the first row's match predecessor is
// carried in a register before the second row overwrites it.
func (m *Matcher) openStartBound(n, np int) []float64 {
	m.ends = grow(m.ends, np)
	ends := m.ends
	clear(ends)
	inf := math.Inf(1)
	i := 0
	for ; i+1 < n; i += 2 {
		c1 := m.cost[i*np : (i+1)*np][:len(ends)]
		c2 := m.cost[(i+1)*np : (i+2)*np][:len(ends)]
		// Column k-1 of the input row and of the two new rows. Column 0
		// is +Inf below row 0; on row 0 it is 0, but row 1's first cell
		// then also sees up = 0, so +Inf gives the same value.
		diag, a, b := inf, inf, inf
		for k, up := range ends {
			ak := c1[k] + min(min(up, diag), a)
			b = c2[k] + min(min(ak, a), b)
			ends[k], diag, a = b, up, ak
		}
	}
	if i < n { // an odd row count leaves one row
		c := m.cost[i*np : (i+1)*np][:len(ends)]
		diag, a := inf, inf
		for k, up := range ends {
			a = c[k] + min(min(up, diag), a)
			ends[k], diag = a, up
		}
	}
	m.cells += n * np
	return ends
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

// align runs the banded DP for the candidate segment starting at
// start, reading row i's local costs from the cost table, and returns
// its unnormalized distance, or +Inf once a row proves it worse than
// limit. The caller passes the final cell's cost as lastAdd.
//
// Distance also runs a corner prescreen, the first cell's cost plus
// lastAdd. align needs none: row 1's minimum is its first cell, since
// every other row-1 cell adds a cost ≥ 0 to its left neighbour, so the
// row-1 check is that same sum, even when row 1 is also the last row.
// When a NaN makes the two disagree, the distance is NaN and cannot
// win either.
func (m *Matcher) align(start, n, np, mm int, limit, lastAdd float64) float64 {
	m.prev = grow(m.prev, mm+1)
	m.cur = grow(m.cur, mm+1)
	prev, cur := m.prev, m.cur
	prevHi := initRow0(prev, m.hi[0])
	for i := 1; i <= n; i++ {
		lo, hi := m.lo[i-1], m.hi[i-1]
		off := (i-1)*np + start - 1 // cost of column j is m.cost[off+j]
		rowMin := relaxRow(prev, cur, m.cost[off+lo:off+hi+1], lo, hi, prevHi)
		m.cells += hi - lo + 1
		prevHi = hi
		if limit > 0 {
			la := lastAdd
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
