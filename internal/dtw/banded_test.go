package dtw

// Tests and benchmarks for the banded kernel: band connectivity under
// extreme length skew, the O(n·w) visited-cell bound, the tightened
// early abandon, and the Derivative-mode normalizer.

import (
	"fmt"
	"math"
	"testing"

	"vihot/internal/stats"
)

// TestBandedSkewedLengthsFinite: with a Sakoe-Chiba band and no
// abandoning, Distance must be finite for every length pair — the band
// is widened to keep consecutive rows connected, so extreme ratios
// (slope ≫ window) no longer leave an unreachable row that silently
// turns the result into +Inf.
func TestBandedSkewedLengthsFinite(t *testing.T) {
	rng := stats.NewRNG(99)
	lengths := []int{1, 2, 3, 5, 9, 40, 41, 160, 397}
	for _, window := range []int{1, 2, 8} {
		for _, n := range lengths {
			for _, mm := range lengths {
				a := randWalk(int64(n), n)
				b := randWalk(int64(mm)+1000, mm)
				for _, circ := range []bool{false, true} {
					d, err := Distance(a, b, Options{Window: window, Circular: circ})
					if err != nil {
						t.Fatalf("n=%d m=%d w=%d: %v", n, mm, window, err)
					}
					if math.IsInf(d, 1) || math.IsNaN(d) {
						t.Fatalf("n=%d m=%d w=%d circ=%v: banded distance not finite: %v",
							n, mm, window, circ, d)
					}
					// Banded DTW is constrained full DTW: never better.
					full, err := Distance(a, b, Options{Circular: circ})
					if err != nil {
						t.Fatal(err)
					}
					if d < full-1e-12 {
						t.Fatalf("n=%d m=%d w=%d: band %v beats full %v", n, mm, window, d, full)
					}
				}
			}
		}
	}
	_ = rng
}

// TestBandRowConnectivity checks the band geometry invariants the
// kernel's arena relies on directly against bandRow/effectiveWindow:
// row 1 reaches column 1, row n reaches column m, bands are never
// empty, and every row's band overlaps (or abuts) the previous row's,
// with edges monotone non-decreasing.
func TestBandRowConnectivity(t *testing.T) {
	lengths := []int{1, 2, 3, 7, 50, 333, 1024}
	for _, window := range []int{1, 4, 16} {
		for _, n := range lengths {
			for _, mm := range lengths {
				slope := float64(mm) / float64(n)
				w := effectiveWindow(window, slope)
				if w < window {
					t.Fatalf("effectiveWindow shrank: %d < %d", w, window)
				}
				prevLo, prevHi := 1, 0
				for i := 1; i <= n; i++ {
					lo, hi := bandRow(i, slope, w, mm)
					if lo > hi {
						t.Fatalf("n=%d m=%d w=%d row %d: empty band [%d,%d]", n, mm, window, i, lo, hi)
					}
					if i == 1 && lo != 1 {
						t.Fatalf("n=%d m=%d w=%d: row 1 misses column 1 (lo=%d)", n, mm, window, lo)
					}
					if i > 1 {
						if lo < prevLo || hi < prevHi {
							t.Fatalf("n=%d m=%d w=%d row %d: band edges not monotone", n, mm, window, i)
						}
						if lo > prevHi+1 {
							t.Fatalf("n=%d m=%d w=%d row %d: band disconnected (lo=%d prevHi=%d)",
								n, mm, window, i, lo, prevHi)
						}
					}
					prevLo, prevHi = lo, hi
				}
				if prevHi != mm {
					t.Fatalf("n=%d m=%d w=%d: final row misses column m (hi=%d)", n, mm, window, prevHi)
				}
			}
		}
	}
}

// TestBandedCellCountScalesWithWindow proves the satellite claim at
// the geometry level: the number of cells the kernel touches per call
// is O(n·w + m) — doubling the series length doubles the work, while
// the old kernel's full-row clear made it quadratic.
func TestBandedCellCountScalesWithWindow(t *testing.T) {
	cells := func(n, mm, window int) int {
		slope := float64(mm) / float64(n)
		w := effectiveWindow(window, slope)
		total := 0
		for i := 1; i <= n; i++ {
			lo, hi := bandRow(i, slope, w, mm)
			total += hi - lo + 2 // visited cells plus the guard cell lo-1
		}
		return total
	}
	const window = 8
	for _, n := range []int{256, 512, 1024, 4096} {
		got := cells(n, n, window)
		bound := n * (2*window + 2)
		if got > bound {
			t.Fatalf("n=%d: %d cells exceeds O(n·w) bound %d", n, got, bound)
		}
	}
	// Linear, not quadratic: 4× the length ⇒ ~4× the cells.
	c1, c4 := cells(1024, 1024, window), cells(4096, 4096, window)
	if ratio := float64(c4) / float64(c1); ratio > 4.5 {
		t.Fatalf("cell count superlinear in length: ratio %.2f", ratio)
	}
}

// TestEarlyAbandonTightenedSafe: the corner-cell prescreen and per-row
// lower bound may only abandon computations whose true distance
// exceeds the threshold — a threshold at or above the true distance
// must still return the exact value, bit-for-bit.
func TestEarlyAbandonTightenedSafe(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		rng := stats.NewRNG(7000 + seed)
		n := 5 + int(rng.Uniform(0, 60))
		mm := 5 + int(rng.Uniform(0, 60))
		a := randWalk(seed*2+1, n)
		b := randWalk(seed*2+2, mm)
		for _, opt := range optionMatrix() {
			exact, err := Distance(a, b, opt)
			if err != nil {
				t.Fatal(err)
			}
			o := opt
			// At the exact value (ties) and above: must not abandon.
			for _, thr := range []float64{exact, exact * 1.001, exact + 1} {
				if thr <= 0 {
					continue
				}
				o.AbandonAbove = thr
				got, err := Distance(a, b, o)
				if err != nil {
					t.Fatal(err)
				}
				if got != exact {
					t.Fatalf("seed=%d opt=%+v thr=%v: got %v want exact %v", seed, opt, thr, got, exact)
				}
			}
			// Strictly below: +Inf is the only acceptable "worse than
			// threshold" answer, and the exact value is also fine when
			// rounding keeps the row bound under the threshold.
			if exact > 0 {
				o.AbandonAbove = exact * 0.5
				got, err := Distance(a, b, o)
				if err != nil {
					t.Fatal(err)
				}
				if !math.IsInf(got, 1) && got != exact {
					t.Fatalf("seed=%d opt=%+v: abandoned to %v, want +Inf or %v", seed, opt, got, exact)
				}
			}
		}
	}
}

// TestNormalizedDistanceDerivativeNormalizer pins the ablation path:
// Derivative mode aligns the two difference series (one sample shorter
// each), so the normalizer is (len(a)-1)+(len(b)-1), not the raw
// lengths.
func TestNormalizedDistanceDerivativeNormalizer(t *testing.T) {
	// a has slope 1, b has slope 2: the difference series are constant
	// 1 (length 7) and constant 2 (length 11), so every cell costs
	// exactly 1 and the optimal path visits max(7,11)=11 cells.
	a := make([]float64, 8)
	b := make([]float64, 12)
	for i := range a {
		a[i] = float64(i)
	}
	for j := range b {
		b[j] = 2 * float64(j)
	}
	m := NewMatcher(len(b))
	opt := Options{Derivative: true}
	d, err := m.Distance(a, b, opt)
	if err != nil {
		t.Fatal(err)
	}
	if d != 11 {
		t.Fatalf("derivative Distance = %v, want 11", d)
	}
	nd, err := m.NormalizedDistance(a, b, opt)
	if err != nil {
		t.Fatal(err)
	}
	want := 11.0 / float64((len(a)-1)+(len(b)-1))
	if nd != want {
		t.Fatalf("derivative NormalizedDistance = %v, want %v (= 11/18)", nd, want)
	}
	// Non-derivative mode still normalizes by the raw lengths.
	d, err = m.Distance(a, b, Options{})
	if err != nil {
		t.Fatal(err)
	}
	nd, err = m.NormalizedDistance(a, b, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if nd != d/float64(len(a)+len(b)) {
		t.Fatalf("raw NormalizedDistance = %v, want %v", nd, d/float64(len(a)+len(b)))
	}
}

// TestSubsequenceDerivativeBoundConsistent: the abandon bound
// Subsequence derives from the best score so far must use the same
// normalizer as NormalizedDistance, or a correct candidate could be
// pruned. Compare against a brute-force scan with abandoning disabled.
func TestSubsequenceDerivativeBoundConsistent(t *testing.T) {
	profile := randWalk(31, 400)
	query := append([]float64(nil), profile[120:160]...)
	lengths := []int{30, 40, 50, 60}
	for _, opt := range []Options{
		{Window: 8, Circular: true, Derivative: true},
		{Window: 8, Circular: true},
	} {
		m := NewMatcher(len(profile))
		got, err := m.Subsequence(query, profile, lengths, 2, opt)
		if err != nil {
			t.Fatal(err)
		}
		// Brute force: no abandon threshold ever set.
		best := Match{Dist: math.Inf(1)}
		bf := NewMatcher(len(profile))
		for _, L := range lengths {
			for start := 0; start+L <= len(profile); start += 2 {
				d, err := bf.NormalizedDistance(query, profile[start:start+L], opt)
				if err != nil {
					t.Fatal(err)
				}
				if d < best.Dist {
					best = Match{Start: start, Length: L, Dist: d}
				}
			}
		}
		if got != best {
			t.Fatalf("opt=%+v: Subsequence %+v != brute force %+v", opt, got, best)
		}
	}
}

// BenchmarkDistanceBanded is the regression benchmark for the banded
// arena: at a fixed window, ns/op must grow linearly with series
// length (the old kernel's full-row clears made this quadratic), and
// at fixed length it grows with the window.
func BenchmarkDistanceBanded(b *testing.B) {
	for _, size := range []int{512, 2048, 8192} {
		for _, window := range []int{8, 64} {
			b.Run(fmt.Sprintf("n=%d/w=%d", size, window), func(b *testing.B) {
				x := randWalk(1, size)
				y := randWalk(2, size)
				m := NewMatcher(size)
				opt := Options{Window: window, Circular: true}
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := m.Distance(x, y, opt); err != nil {
						b.Fatal(err)
					}
				}
				cells := float64(size) * float64(2*window+2)
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/cells, "ns/cell")
			})
		}
	}
}
