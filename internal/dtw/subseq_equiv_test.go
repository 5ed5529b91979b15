package dtw

// Equivalence suite for the Subsequence scan: the per-candidate
// NormalizedDistance loop it replaced is kept below as the oracle, and
// every test here demands bit-identical matches and identical errors
// from the two, with and without an incumbent.

import (
	"math"
	"testing"

	"vihot/internal/stats"
)

// subsequenceOracle is the scan Subsequence replaced, kept verbatim:
// one NormalizedDistance per candidate, with the abandon threshold
// tightened to the best score so far.
func subsequenceOracle(m *Matcher, query, profile []float64, lengths []int, stride int, opt Options) (Match, error) {
	return scanOracle(m.NormalizedDistance, query, profile, lengths, stride, opt)
}

// scanOracle is that scan over a given normalized distance: the
// Matcher's, or normalizedDistanceOracle on the old row kernel.
func scanOracle(dist func(a, b []float64, opt Options) (float64, error), query, profile []float64, lengths []int, stride int, opt Options) (Match, error) {
	if len(query) == 0 || len(profile) == 0 {
		return Match{}, ErrEmptyInput
	}
	if stride < 1 {
		stride = 1
	}
	best := Match{Dist: math.Inf(1)}
	searched := false
	for _, L := range lengths {
		if L < 1 || L > len(profile) {
			continue
		}
		for start := 0; start+L <= len(profile); start += stride {
			searched = true
			seg := profile[start : start+L]
			o := opt
			if !math.IsInf(best.Dist, 1) {
				bound := best.Dist * float64(alignedLen(len(query), L, o))
				if o.AbandonAbove <= 0 || bound < o.AbandonAbove {
					o.AbandonAbove = bound
				}
			}
			d, err := dist(query, seg, o)
			if err != nil {
				return Match{}, err
			}
			if d < best.Dist {
				best = Match{Start: start, Length: L, Dist: d}
			}
		}
	}
	if !searched {
		return Match{}, ErrNoCandidates
	}
	if math.IsInf(best.Dist, 1) {
		return Match{}, ErrNoCandidates
	}
	return best, nil
}

// checkAgainstOracle runs the oracle on a fresh matcher and
// Subsequence on m, which callers reuse so stale scratch is exercised,
// and fails unless the two agree bit for bit.
func checkAgainstOracle(t *testing.T, m *Matcher, query, profile []float64, lengths []int, stride int, opt Options) {
	t.Helper()
	want, werr := subsequenceOracle(NewMatcher(0), query, profile, lengths, stride, opt)
	checkMatch(t, m, query, profile, lengths, stride, opt, want, werr)
}

// checkAgainstOldKernel is checkAgainstOracle with the oracle scan run
// on the old row kernel. Callers keep to NaN-free costs, the domain
// where the two kernels agree.
func checkAgainstOldKernel(t *testing.T, m *Matcher, query, profile []float64, lengths []int, stride int, opt Options) {
	t.Helper()
	want, werr := scanOracle(normalizedDistanceOracle, query, profile, lengths, stride, opt)
	checkMatch(t, m, query, profile, lengths, stride, opt, want, werr)
}

func checkMatch(t *testing.T, m *Matcher, query, profile []float64, lengths []int, stride int, opt Options, want Match, werr error) {
	t.Helper()
	got, gerr := m.Subsequence(query, profile, lengths, stride, opt)
	if gerr != werr {
		t.Fatalf("n=%d profile=%d lengths=%v stride=%d opt=%+v: err %v, oracle %v",
			len(query), len(profile), lengths, stride, opt, gerr, werr)
	}
	if got.Start != want.Start || got.Length != want.Length ||
		math.Float64bits(got.Dist) != math.Float64bits(want.Dist) {
		t.Fatalf("n=%d profile=%d lengths=%v stride=%d opt=%+v: got %+v, oracle %+v",
			len(query), len(profile), lengths, stride, opt, got, want)
	}
}

// checkWithinAgainstOracle runs SubsequenceWithin on m under a set of
// incumbents and fails unless each call returns the oracle's match
// when its distance is within the incumbent, and ErrNoCandidates
// otherwise (the oracle's error, if it has one). The incumbents are
// NaN, ±Inf, a negative value, 0, the oracle's best and its float
// neighbours, extra, and the distances of a spread of candidates,
// computed with the same options, so most are real candidates that are
// not the best.
func checkWithinAgainstOracle(t *testing.T, m *Matcher, query, profile []float64, lengths []int, stride int, opt Options, extra float64) {
	t.Helper()
	want, werr := subsequenceOracle(NewMatcher(0), query, profile, lengths, stride, opt)
	withins := []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1, 0, extra}
	if werr == nil {
		withins = append(withins, want.Dist, math.Nextafter(want.Dist, 0), math.Nextafter(want.Dist, 2*want.Dist+1))
	}
	step := max(1, stride)
	for i, L := range lengths {
		if L < 1 || L > len(profile) {
			continue
		}
		for _, start := range []int{0, (len(profile) - L) / 2 / step * step, (len(profile) - L) / step * step} {
			if d, err := NewMatcher(0).NormalizedDistance(query, profile[start:start+L], opt); err == nil {
				withins = append(withins, d)
			}
		}
		if i > 3 {
			break
		}
	}
	for _, within := range withins {
		exp, eerr := want, werr
		if werr == nil && want.Dist > within {
			exp, eerr = Match{}, ErrNoCandidates
		}
		got, gerr := m.SubsequenceWithin(query, profile, lengths, stride, opt, within)
		if gerr != eerr || got.Start != exp.Start || got.Length != exp.Length ||
			math.Float64bits(got.Dist) != math.Float64bits(exp.Dist) {
			t.Fatalf("n=%d profile=%d lengths=%v stride=%d opt=%+v within=%v: got %+v (err %v), want %+v (err %v)",
				len(query), len(profile), lengths, stride, opt, within, got, gerr, exp, eerr)
		}
	}
}

// excerpt returns a time-warped, noisy copy of profile[at:at+span]
// resampled to n samples, wrapped into [-π, π] — the shape of a
// run-time query window against its profile.
func excerpt(rng *stats.RNG, profile []float64, at, span, n int, noise float64) []float64 {
	q := make([]float64, n)
	for i := range q {
		k := at + i*span/n
		if k >= len(profile) {
			k = len(profile) - 1
		}
		v := profile[k] + rng.Normal(0, noise)
		if v > math.Pi {
			v -= 2 * math.Pi
		} else if v < -math.Pi {
			v += 2 * math.Pi
		}
		q[i] = v
	}
	return q
}

// TestSubsequenceMatchesOracle is the property test: random walks
// that cross the ±π seam, raw and Derivative mode, linear and
// circular costs, with and without a band and a caller threshold,
// strides 1–3, and candidate lengths past the profile's end.
func TestSubsequenceMatchesOracle(t *testing.T) {
	m := NewMatcher(0) // reused throughout: stale scratch must not leak
	for seed := int64(0); seed < 40; seed++ {
		rng := stats.NewRNG(4000 + seed)
		profile := randWalk(seed+1, 20+int(rng.Uniform(0, 200)))
		n := 2 + int(rng.Uniform(0, 14))
		query := excerpt(rng, profile, int(rng.Uniform(0, float64(len(profile)))), n+int(rng.Uniform(0, float64(n))), n, 0.05)
		lengths := CandidateLengths(n, 0.5, 2, 1+int(rng.Uniform(0, 3)), len(profile)+5)
		lengths = append(lengths, len(profile)+1, len(profile))
		for _, window := range []int{0, 2, 8} {
			for _, circ := range []bool{false, true} {
				for _, deriv := range []bool{false, true} {
					for _, abandon := range []float64{0, 0.5, 1e9} {
						for stride := 1; stride <= 3; stride++ {
							opt := Options{Window: window, Circular: circ, Derivative: deriv, AbandonAbove: abandon}
							checkAgainstOracle(t, m, query, profile, lengths, stride, opt)
						}
					}
				}
			}
		}
	}
}

// TestSubsequenceWithinMatchesOracle is the incumbent's property test
// on the inputs of TestSubsequenceMatchesOracle, plus ±Inf and NaN
// samples: every incumbent, from NaN to a candidate's own distance,
// returns the oracle's match or ErrNoCandidates exactly as it should.
func TestSubsequenceWithinMatchesOracle(t *testing.T) {
	m := NewMatcher(0)
	for seed := int64(0); seed < 30; seed++ {
		rng := stats.NewRNG(7000 + seed)
		profile := randWalk(seed+1, 20+int(rng.Uniform(0, 200)))
		n := 2 + int(rng.Uniform(0, 14))
		query := excerpt(rng, profile, int(rng.Uniform(0, float64(len(profile)))), n+int(rng.Uniform(0, float64(n))), n, 0.05)
		if seed%5 == 4 {
			bad := []float64{math.Inf(1), math.Inf(-1), math.NaN()}[seed%3]
			profile[int(rng.Uniform(0, float64(len(profile))))] = bad
		}
		lengths := CandidateLengths(n, 0.5, 2, 1+int(rng.Uniform(0, 3)), len(profile)+5)
		for _, window := range []int{0, 8} {
			for _, circ := range []bool{false, true} {
				for _, deriv := range []bool{false, true} {
					for _, abandon := range []float64{0, 0.5} {
						for stride := 1; stride <= 3; stride += 2 {
							opt := Options{Window: window, Circular: circ, Derivative: deriv, AbandonAbove: abandon}
							checkWithinAgainstOracle(t, m, query, profile, lengths, stride, opt, rng.Uniform(0, 0.5))
						}
					}
				}
			}
		}
	}
}

// TestSubsequenceMatchesOracleTies: constant and periodically
// duplicated profiles make many candidates score exactly equal, so
// only the scan order decides the winner — it must be the oracle's.
func TestSubsequenceMatchesOracleTies(t *testing.T) {
	constant := make([]float64, 120)
	for i := range constant {
		constant[i] = 0.7
	}
	period := randWalk(9, 15)
	var duplicated []float64
	for len(duplicated) < 150 {
		duplicated = append(duplicated, period...)
	}
	m := NewMatcher(0)
	for _, profile := range [][]float64{constant, duplicated} {
		for _, query := range [][]float64{constant[:10], period[:10], period[3:9]} {
			lengths := CandidateLengths(len(query), 0.5, 2, 1, len(profile))
			for _, opt := range []Options{
				{Window: 8, Circular: true},
				{Window: 3},
				{Circular: true, Derivative: true},
				{Window: 8, AbandonAbove: 2},
			} {
				for stride := 1; stride <= 3; stride++ {
					checkAgainstOracle(t, m, query, profile, lengths, stride, opt)
				}
			}
		}
	}
}

// TestSubsequenceNearTieNotSkipped: a later segment that beats the
// best so far by one ULP, with an open-start bound equal to its own
// distance, must still win. The bound skips only candidates that reach
// the best score, with no slack.
func TestSubsequenceNearTieNotSkipped(t *testing.T) {
	const d1 = 0.375 // d1/6 is exact, so a one-ULP-smaller d2 stays smaller after normalizing
	for _, d2 := range []float64{math.Nextafter(d1, 0), d1 * (1 - 1e-9)} {
		query := []float64{0, 1, 0}
		profile := []float64{9, 0, 1, d1, 9, 9, 0, 1, d2, 9}
		m := NewMatcher(0)
		got, err := m.Subsequence(query, profile, []int{3}, 1, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if got.Start != 6 || got.Dist != d2/6 {
			t.Fatalf("d2=%v: got %+v, want the segment at 6 with distance %v", d2, got, d2/6)
		}
		checkAgainstOracle(t, m, query, profile, []int{3}, 1, Options{})
	}
}

// TestSubsequenceMatchesOracleErrors pins the error paths, including
// their order: in Derivative mode the first one-sample candidate fails
// the whole search even after longer lengths already matched. A search
// whose every candidate is abandoned fails too.
func TestSubsequenceMatchesOracleErrors(t *testing.T) {
	m := NewMatcher(0)
	p := randWalk(3, 30)
	cases := []struct {
		query, profile []float64
		lengths        []int
		opt            Options
	}{
		{nil, p, []int{3}, Options{}},
		{p[:3], nil, []int{3}, Options{}},
		{p[:3], p, nil, Options{}},
		{p[:3], p, []int{0, 31, 40}, Options{}},
		{p[:1], p, []int{1, 2}, Options{}},
		{p[:1], p, []int{2}, Options{Derivative: true}},
		{p[:1], p, []int{40}, Options{Derivative: true}},
		{p[:5], p, []int{4, 1}, Options{Derivative: true}},
		{p[:5], p[:1], []int{1}, Options{Derivative: true}},
		{p[:5], p[:2], []int{2}, Options{Derivative: true, Window: 1}},
		// A one-row grid whose corner costs sum past the caller's
		// threshold while its first cell alone does not: the oracle's
		// corner prescreen rejects it, so the scan's row-1 check must.
		{[]float64{0}, []float64{0, 0, 5}, []int{3}, Options{AbandonAbove: 1}},
		{[]float64{0, 0}, []float64{0, 0, 0, 5}, []int{4}, Options{Derivative: true, AbandonAbove: 1}},
	}
	for _, c := range cases {
		checkAgainstOracle(t, m, c.query, c.profile, c.lengths, 1, c.opt)
	}
}

// TestSubsequenceMatchesOracleNonFinite: ±Inf and NaN samples make
// unreachable and NaN cells inside the band, the paths where a stale
// arena cell or a reordered comparison would first show.
func TestSubsequenceMatchesOracleNonFinite(t *testing.T) {
	m := NewMatcher(0)
	for seed := int64(0); seed < 20; seed++ {
		rng := stats.NewRNG(9000 + seed)
		profile := randWalk(seed+50, 60)
		query := excerpt(rng, profile, 20, 12, 8, 0.05)
		for _, bad := range []float64{math.Inf(1), math.Inf(-1), math.NaN()} {
			p := append([]float64(nil), profile...)
			p[int(rng.Uniform(0, 60))] = bad
			p[int(rng.Uniform(0, 60))] = bad
			q := append([]float64(nil), query...)
			if seed%3 == 0 {
				q[int(rng.Uniform(0, 8))] = bad
			}
			lengths := CandidateLengths(len(q), 0.5, 2, 1, len(p))
			for _, opt := range []Options{
				{Window: 3},
				{Window: 3, Circular: true},
				{Window: 3, AbandonAbove: 4},
				{},
				{Derivative: true, Window: 3},
			} {
				checkAgainstOracle(t, m, q, p, lengths, 1+int(seed%3), opt)
			}
		}
	}
}

// TestSubsequenceAllocationFree: once the bound row, its runs, the
// band table and the arena have grown to a scan's size, repeating the
// scan allocates nothing — in either mode.
func TestSubsequenceAllocationFree(t *testing.T) {
	rng := stats.NewRNG(77)
	profile := randWalk(12, 750)
	query := excerpt(rng, profile, 300, 14, 10, 0.05)
	lengths := CandidateLengths(len(query), 0.5, 2, 2, len(profile))
	m := NewMatcher(0)
	for _, opt := range []Options{
		{Window: 8, Circular: true},
		{Window: 8, Circular: true, Derivative: true},
	} {
		if _, err := m.Subsequence(query, profile, lengths, 2, opt); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := m.Subsequence(query, profile, lengths, 2, opt); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("opt=%+v: Subsequence allocates %v times per run, want 0", opt, allocs)
		}
	}
}

// FuzzSubsequenceEquivalence drives the scan and the oracle with
// arbitrary series, lengths, strides and options. Inputs include NaN,
// ±Inf and values far outside [-π, π], where the cost function takes
// its slow paths. When no local cost is NaN, the scan must also match
// the oracle run on the old row kernel. Every input also runs the
// incumbent arm (checkWithinAgainstOracle), with an arbitrary extra
// incumbent taken from the input.
func FuzzSubsequenceEquivalence(f *testing.F) {
	f.Add([]byte{0, 10, 200, 30, 40, 50, 60, 70, 80, 90, 100, 110, 120, 130}, uint8(3), uint8(8), uint8(2), uint8(1))
	f.Add([]byte{255, 1, 2, 3, 4, 5, 6, 7, 8, 9}, uint8(2), uint8(0), uint8(1), uint8(6))
	f.Add([]byte{7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7}, uint8(4), uint8(2), uint8(3), uint8(3))
	// A pruned pass whose sweep reaches the profile's end through the
	// start of the last live run: that run must not be swept again.
	f.Add([]byte("\xff0000X01"), uint8('S'), uint8('('), uint8(1), uint8('_'))
	// A self-seed candidate whose distance is NaN must not become the
	// incumbent.
	f.Add([]byte("1\xfd0"), uint8(0), uint8(0xd1), uint8(1), uint8(9))
	f.Fuzz(func(t *testing.T, data []byte, qlen, window, stride, flags uint8) {
		if len(data) > 512 {
			data = data[:512]
		}
		series := make([]float64, len(data))
		for i, b := range data {
			switch b {
			case 251:
				series[i] = math.NaN()
			case 252:
				series[i] = math.Inf(1)
			case 253:
				series[i] = math.Inf(-1)
			case 254:
				series[i] = 40 // far off the circle: exercises math.Mod
			default:
				series[i] = (float64(b)/125 - 1) * math.Pi
			}
		}
		n := int(qlen%16) + 1
		if n > len(series) {
			return
		}
		query, profile := series[:n], series[n:]
		opt := Options{
			Window:     int(window % 12),
			Circular:   flags&1 != 0,
			Derivative: flags&2 != 0,
		}
		if flags&4 != 0 {
			opt.AbandonAbove = float64(flags>>3) / 4
		}
		lengths := CandidateLengths(n, 0.5, 2, 1+int(flags>>6), len(profile)+2)
		checkAgainstOracle(t, NewMatcher(0), query, profile, lengths, int(stride%4), opt)
		if costsNaNFree(query, profile, opt) {
			checkAgainstOldKernel(t, NewMatcher(0), query, profile, lengths, int(stride%4), opt)
		}
		extra := float64(window) / float64(1+int(qlen))
		checkWithinAgainstOracle(t, NewMatcher(0), query, profile, lengths, int(stride%4), opt, extra)
	})
}

// BenchmarkSubsequenceScan is the tracker-shaped hot path: a W=10
// query (a time-warped, noisy excerpt of the profile) scanned over a
// 750-sample profile at lengths 5–19 step 2, stride 2, band 8,
// circular costs — what core.Tracker runs per candidate position.
// table is the scan with no incumbent; within is the same scan given
// a stride-shifted neighbour of the best match as its incumbent, as the
// tracker seeds a held-position scan. The oracle sub-benchmark is the
// per-candidate loop the scan replaced.
func BenchmarkSubsequenceScan(b *testing.B) {
	query, profile, lengths, stride, opt := scanBenchInput()
	within := neighbourWithin(b, query, profile, lengths, stride, opt, stride)
	for _, impl := range []struct {
		name string
		scan func(*Matcher) (Match, error)
	}{
		{"table", func(m *Matcher) (Match, error) { return m.Subsequence(query, profile, lengths, stride, opt) }},
		{"within", func(m *Matcher) (Match, error) {
			return m.SubsequenceWithin(query, profile, lengths, stride, opt, within)
		}},
		{"oracle", func(m *Matcher) (Match, error) { return subsequenceOracle(m, query, profile, lengths, stride, opt) }},
	} {
		b.Run(impl.name, func(b *testing.B) {
			m := NewMatcher(len(profile))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := impl.scan(m); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// scanBenchInput is BenchmarkSubsequenceScan's tracker-shaped input.
func scanBenchInput() (query, profile []float64, lengths []int, stride int, opt Options) {
	rng := stats.NewRNG(5)
	profile = randWalk(5, 750)
	query = excerpt(rng, profile, 400, 14, 10, 0.05)
	lengths = CandidateLengths(len(query), 0.5, 2, 2, len(profile))
	return query, profile, lengths, 2, Options{Window: 8, Circular: true}
}

// neighbourWithin returns the distance of the candidate shift samples
// after the best match of the scan (before it, when shift < 0): the
// kind of incumbent the tracker hands a held-position scan, whose
// seeds are the previous match's segment and the one a stride later.
func neighbourWithin(tb testing.TB, query, profile []float64, lengths []int, stride int, opt Options, shift int) float64 {
	tb.Helper()
	best, err := NewMatcher(0).Subsequence(query, profile, lengths, stride, opt)
	if err != nil {
		tb.Fatal(err)
	}
	start := best.Start + shift
	d, err := NewMatcher(0).NormalizedDistance(query, profile[start:start+best.Length], opt)
	if err != nil {
		tb.Fatal(err)
	}
	return d
}

// TestSubsequenceWithinCutsCells: on the tracker-shaped benchmark
// input, a stride-shifted neighbour's distance as the incumbent leaves
// the match unchanged and cuts the cells relaxed, bound pass and
// candidates together. The neighbour a stride before the best (1.5×
// its distance) must cut them to at most 40% of the unseeded scan's;
// the one a stride after (2.6×) loosens T and the abandon cap with
// it, and must stay within 50%.
func TestSubsequenceWithinCutsCells(t *testing.T) {
	query, profile, lengths, stride, opt := scanBenchInput()
	plain := NewMatcher(0)
	want, err := plain.Subsequence(query, profile, lengths, stride, opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		shift, pct int
	}{{-stride, 40}, {stride, 50}} {
		within := neighbourWithin(t, query, profile, lengths, stride, opt, c.shift)
		seeded := NewMatcher(0)
		got, err := seeded.SubsequenceWithin(query, profile, lengths, stride, opt, within)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("shift %d: seeded %+v, unseeded %+v", c.shift, got, want)
		}
		t.Logf("shift %d: within %v (best %v): %d cells, unseeded %d", c.shift, within, want.Dist, seeded.cells, plain.cells)
		if 100*seeded.cells > c.pct*plain.cells {
			t.Errorf("shift %d: seeded scan relaxes %d cells, more than %d%% of the unseeded %d",
				c.shift, seeded.cells, c.pct, plain.cells)
		}
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := seeded.SubsequenceWithin(query, profile, lengths, stride, opt, within); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("shift %d: SubsequenceWithin allocates %v times per run, want 0", c.shift, allocs)
		}
	}
}
