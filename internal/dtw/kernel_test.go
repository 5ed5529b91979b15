package dtw

// Oracles for the branch-free row kernel and the open-start bound: the
// compare-and-branch kernel and seam fold they replaced, kept verbatim,
// and Distance rebuilt on them. On NaN-free costs the two kernels agree
// bit for bit; NaN is where they part (see Distance).

import (
	"math"
	"sort"
	"testing"

	"vihot/internal/stats"
)

// relaxRowOracle is the row kernel relaxRow replaced: two
// compare-selects in insertion, match, deletion order, and an explicit
// +Inf test that leaves unreachable cells +Inf whatever their cost.
func relaxRowOracle(prev, cur, cost []float64, lo, hi, prevHi int) float64 {
	inf := math.Inf(1)
	for j := prevHi + 1; j <= hi; j++ {
		prev[j] = inf
	}
	cur[lo-1] = inf
	cost = cost[:hi-lo+1]
	p, c := prev[lo:hi+1], cur[lo:hi+1]
	diag, left := prev[lo-1], inf
	rowMin := inf
	for k, ck := range cost {
		up := p[k]
		best := up // insertion
		if diag < best {
			best = diag // match
		}
		if left < best {
			best = left // deletion
		}
		diag = up
		if math.IsInf(best, 1) {
			c[k], left = inf, inf
			continue
		}
		v := ck + best
		c[k], left = v, v
		if v < rowMin {
			rowMin = v
		}
	}
	return rowMin
}

// localCostsOracle is localCosts with the seam fold as a branch.
func localCostsOracle(dst []float64, a float64, b []float64, circular bool) {
	for k, bk := range b[:len(dst)] {
		d := math.Abs(a - bk)
		if circular {
			if d > 2*math.Pi {
				d = math.Mod(d, 2*math.Pi)
			}
			if d > math.Pi {
				d = 2*math.Pi - d
			}
		}
		dst[k] = d
	}
}

// distanceOracle is Distance built on the oracle kernel and cost loop:
// the same band, corner prescreen and per-row abandon check, with
// fresh rows every call.
func distanceOracle(a, b []float64, opt Options) (float64, error) {
	if opt.Derivative {
		if len(a) < 2 || len(b) < 2 {
			return 0, ErrEmptyInput
		}
		a, b = Derivatives(a, nil), Derivatives(b, nil)
	}
	n, mm := len(a), len(b)
	if n == 0 || mm == 0 {
		return 0, ErrEmptyInput
	}
	inf := math.Inf(1)
	slope := float64(mm) / float64(n)
	w := mm
	if opt.Window > 0 {
		w = effectiveWindow(opt.Window, slope)
	}
	abandon := opt.AbandonAbove
	var lastAdd float64
	if abandon > 0 {
		var corner [2]float64
		localCostsOracle(corner[:1], a[0], b, opt.Circular)
		if n > 1 || mm > 1 {
			localCostsOracle(corner[1:], a[n-1], b[mm-1:], opt.Circular)
		}
		lastAdd = corner[1]
		if corner[0]+lastAdd > abandon {
			return inf, nil
		}
	}
	prev, cur, rc := make([]float64, mm+1), make([]float64, mm+1), make([]float64, mm)
	_, hi1 := bandRow(1, slope, w, mm)
	prevHi := initRow0(prev, hi1)
	for i := 1; i <= n; i++ {
		lo, hi := bandRow(i, slope, w, mm)
		localCostsOracle(rc[:hi-lo+1], a[i-1], b[lo-1:], opt.Circular)
		rowMin := relaxRowOracle(prev, cur, rc, lo, hi, prevHi)
		prevHi = hi
		if abandon > 0 {
			la := lastAdd
			if i == n {
				la = 0
			}
			if rowMin+la > abandon {
				return inf, nil
			}
		}
		prev, cur = cur, prev
	}
	return prev[mm], nil
}

// normalizedDistanceOracle is NormalizedDistance over distanceOracle.
func normalizedDistanceOracle(a, b []float64, opt Options) (float64, error) {
	d, err := distanceOracle(a, b, opt)
	if err != nil {
		return 0, err
	}
	return d / float64(alignedLen(len(a), len(b), opt)), nil
}

// costsNaNFree reports whether no local cost of the query against the
// profile is NaN under opt: the domain on which the two kernels agree.
func costsNaNFree(query, profile []float64, opt Options) bool {
	if opt.Derivative {
		query, profile = Derivatives(query, nil), Derivatives(profile, nil)
	}
	row := make([]float64, len(profile))
	for _, q := range query {
		localCostsOracle(row, q, profile, opt.Circular)
		for _, c := range row {
			if math.IsNaN(c) {
				return false
			}
		}
	}
	return true
}

// TestSeamFoldMatchesBranch: min(d, 2π−d) is the branchy seam fold for
// every difference, on and off the circle, NaN and ±Inf included.
func TestSeamFoldMatchesBranch(t *testing.T) {
	xs := []float64{0, math.Copysign(0, -1), 1e-300, 1, math.Pi / 2,
		math.Nextafter(math.Pi, 0), math.Pi, math.Nextafter(math.Pi, 4), 3.5,
		math.Nextafter(2*math.Pi, 0), 2 * math.Pi, math.Nextafter(2*math.Pi, 7), 7, 40, 1e300,
		math.Inf(1), math.Inf(-1), math.NaN()}
	var neg []float64
	for _, x := range xs {
		neg = append(neg, -x)
	}
	xs = append(xs, neg...)
	got, want := make([]float64, len(xs)), make([]float64, len(xs))
	for _, a := range xs {
		for _, circ := range []bool{false, true} {
			localCosts(got, a, xs, circ)
			localCostsOracle(want, a, xs, circ)
			for k := range xs {
				if math.Float64bits(got[k]) != math.Float64bits(want[k]) {
					t.Fatalf("a=%v b=%v circular=%v: cost %v, oracle %v", a, xs[k], circ, got[k], want[k])
				}
			}
		}
	}
}

// TestRelaxRowMatchesOracle: on NaN-free rows — local costs ≥ 0 or
// +Inf, as localCosts yields, and predecessors that are costs or +Inf
// — the branch-free kernel writes the same cells, inf-fills the same
// prev cells and returns the same row minimum as the oracle, bit for
// bit. Bands run from a single cell to the whole row, flush with
// either edge, with the previous row's high-water mark anywhere from
// lo−1 to hi.
func TestRelaxRowMatchesOracle(t *testing.T) {
	rng := stats.NewRNG(31)
	inf := math.Inf(1)
	sample := func(pInf float64) float64 {
		switch u := rng.Uniform(0, 1); {
		case u < pInf:
			return inf
		case u < pInf+0.05:
			return 0
		default:
			return rng.Uniform(0, 4)
		}
	}
	for trial := 0; trial < 4000; trial++ {
		mm := 1 + int(rng.Uniform(0, 40))
		lo := 1 + int(rng.Uniform(0, float64(mm)))
		hi := lo + int(rng.Uniform(0, float64(mm-lo+1)))
		switch trial % 4 {
		case 0:
			lo, hi = 1, mm // whole row
		case 1:
			hi = lo // one cell
		}
		prevHi := lo - 1 + int(rng.Uniform(0, float64(hi-lo+2)))
		pInf := []float64{0, 0.1, 0.5, 1}[trial%4]
		prev := make([]float64, mm+1)
		for j := range prev {
			prev[j] = sample(pInf)
		}
		cost := make([]float64, hi-lo+1)
		for k := range cost {
			cost[k] = sample(pInf / 2)
		}
		cur := make([]float64, mm+1)
		for j := range cur {
			cur[j] = rng.Uniform(-9, 9) // stale arena cells
		}
		prevW, curW := append([]float64(nil), prev...), append([]float64(nil), cur...)
		// Against a zero query sample, a linear series sample c costs |0−c| = c.
		got := relaxRow(prev, cur, 0, cost, lo, hi, prevHi, false)
		want := relaxRowOracle(prevW, curW, cost, lo, hi, prevHi)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("trial %d (lo=%d hi=%d prevHi=%d): row min %v, oracle %v", trial, lo, hi, prevHi, got, want)
		}
		for j := range prev {
			if math.Float64bits(prev[j]) != math.Float64bits(prevW[j]) ||
				math.Float64bits(cur[j]) != math.Float64bits(curW[j]) {
				t.Fatalf("trial %d (lo=%d hi=%d prevHi=%d) col %d: prev %v cur %v, oracle prev %v cur %v",
					trial, lo, hi, prevHi, j, prev[j], cur[j], prevW[j], curW[j])
			}
		}
	}
}

// TestOpenStartBoundBelowEveryCandidate: the open-start row never
// exceeds the Distance of any profile segment ending at its column, so
// the scan may skip on it. Random walks and ±Inf samples, raw and
// Derivative, circular or not, bands 0/2/8. A NaN bound never skips
// and is not compared; otherwise the segment's distance must be a
// number at least as large. Without a band, where both sides minimize
// over the same paths, the bound must equal the best segment exactly.
// The pass pruned at a finite T must return, at every column where the
// dense pass is a number, that number when it is at most T and +Inf
// when it is above.
func TestOpenStartBoundBelowEveryCandidate(t *testing.T) {
	compared := 0
	for seed := int64(0); seed < 12; seed++ {
		rng := stats.NewRNG(500 + seed)
		profile := randWalk(seed+70, 30+int(rng.Uniform(0, 40)))
		query := excerpt(rng, profile, int(rng.Uniform(0, 20)), 12, 2+int(rng.Uniform(0, 9)), 0.05)
		if seed%3 != 0 {
			for _, bad := range []float64{math.Inf(1), math.Inf(-1)} {
				profile[int(rng.Uniform(0, float64(len(profile))))] = bad
			}
			if seed%3 == 2 {
				query[int(rng.Uniform(0, float64(len(query))))] = math.Inf(1)
			}
		}
		for _, deriv := range []bool{false, true} {
			for _, circ := range []bool{false, true} {
				for _, window := range []int{0, 2, 8} {
					opt := Options{Window: window, Circular: circ, Derivative: deriv}
					m := NewMatcher(0)
					q, p := query, profile
					if deriv {
						q, p = Derivatives(query, nil), Derivatives(profile, nil)
					}
					ends := m.boundPass(q, p, math.Inf(1), circ)
					checkPrunedPass(t, q, p, ends, circ)
					shrink := len(query) - len(q) // 1 over first differences
					best := make([]float64, len(p))
					for e := range best {
						best[e] = math.Inf(1)
					}
					for L := 1 + shrink; L <= len(profile); L++ {
						for start := 0; start+L <= len(profile); start++ {
							d, err := Distance(query, profile[start:start+L], opt)
							if err != nil {
								t.Fatal(err)
							}
							e := start + L - shrink - 1
							best[e] = min(best[e], d)
							if math.IsNaN(ends[e]) {
								continue
							}
							compared++
							if !(ends[e] <= d) {
								t.Fatalf("seed %d opt %+v: bound %v above segment [%d,%d) distance %v",
									seed, opt, ends[e], start, start+L, d)
							}
						}
					}
					if window != 0 {
						continue
					}
					for e, b := range best {
						if !math.IsNaN(ends[e]) && math.Float64bits(ends[e]) != math.Float64bits(b) {
							t.Fatalf("seed %d opt %+v: unbanded bound %v at column %d, best segment %v",
								seed, opt, ends[e], e, b)
						}
					}
				}
			}
		}
	}
	if compared == 0 {
		t.Fatal("every bound was NaN: nothing compared")
	}
}

// checkPrunedPass reruns the open-start pass at thresholds T spread
// over the dense pass's finite values and checks each column against
// it: exact at or below T, +Inf above, either way where dense is NaN.
func checkPrunedPass(t *testing.T, q, p, dense []float64, circ bool) {
	t.Helper()
	var finite []float64
	for _, v := range dense {
		if !math.IsNaN(v) && !math.IsInf(v, 0) {
			finite = append(finite, v)
		}
	}
	sort.Float64s(finite)
	for _, frac := range []float64{0, 0.25, 0.5, 0.9} {
		if len(finite) == 0 {
			return
		}
		T := finite[int(frac*float64(len(finite)-1))]
		pruned := NewMatcher(0).boundPass(q, p, T, circ)
		for e, d := range dense {
			want := d
			if d > T {
				want = math.Inf(1)
			}
			if !math.IsNaN(d) && math.Float64bits(pruned[e]) != math.Float64bits(want) {
				t.Fatalf("T=%v column %d: pruned %v, dense %v", T, e, pruned[e], d)
			}
		}
	}
}

// TestSubsequenceHalvesCells: on the tracker-shaped benchmark input the
// scan, bound pass included, relaxes at most half the DP cells the
// per-candidate oracle relaxes for the same match.
func TestSubsequenceHalvesCells(t *testing.T) {
	query, profile, lengths, stride, opt := scanBenchInput()
	scan, oracle := NewMatcher(0), NewMatcher(0)
	got, err := scan.Subsequence(query, profile, lengths, stride, opt)
	if err != nil {
		t.Fatal(err)
	}
	want, err := subsequenceOracle(oracle, query, profile, lengths, stride, opt)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("scan %+v, oracle %+v", got, want)
	}
	t.Logf("cells relaxed: scan %d (bound pass %d), oracle %d", scan.cells, len(query)*len(profile), oracle.cells)
	if 2*scan.cells > oracle.cells {
		t.Fatalf("scan relaxes %d cells, more than half the oracle's %d", scan.cells, oracle.cells)
	}
}
