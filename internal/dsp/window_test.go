package dsp

import (
	"math"
	"math/rand"
	"testing"
)

// copyingWindow is the eviction Window replaced: append, then copy the
// surviving samples to the front on every push that evicts.
type copyingWindow struct{ buf Series }

func (c *copyingWindow) push(s Sample, span float64) {
	c.buf = append(c.buf, s)
	cut := 0
	for cut < len(c.buf) && c.buf[cut].T < s.T-span {
		cut++
	}
	if cut > 0 {
		c.buf = append(c.buf[:0], c.buf[cut:]...)
	}
}

// TestWindowMatchesCopyingWindow drives jittered streams with gaps and
// resets through both windows, and bounds the backing array by the
// largest window seen.
func TestWindowMatchesCopyingWindow(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 40; trial++ {
		span := 0.05 + rng.Float64()*0.4
		var w Window
		var ref copyingWindow
		peak := 0
		tm := 0.0
		for i := 0; i < 3000; i++ {
			tm += 0.002 * (0.5 + rng.Float64())
			switch r := rng.Intn(500); {
			case r == 0:
				tm += span * 3 // a gap that empties the window
			case r == 1:
				w.Reset()
				ref.buf = ref.buf[:0]
			}
			s := Sample{T: tm, V: rng.NormFloat64()}
			w.Push(s, span)
			ref.push(s, span)
			got := w.Series()
			if len(got) != len(ref.buf) || w.Len() != len(got) {
				t.Fatalf("trial %d push %d: %d samples, want %d", trial, i, len(got), len(ref.buf))
			}
			for j := range got {
				if got[j] != ref.buf[j] {
					t.Fatalf("trial %d push %d: sample %d = %v, want %v", trial, i, j, got[j], ref.buf[j])
				}
			}
			peak = max(peak, len(got))
			if limit := peak + peak/2 + 8; cap(w.buf) > limit {
				t.Fatalf("trial %d push %d: backing array %d for a peak window of %d", trial, i, cap(w.buf), peak)
			}
		}
	}
}

func TestWindowPushAllocFree(t *testing.T) {
	var w Window
	tm := 0.0
	push := func() {
		tm += 0.002
		w.Push(Sample{T: tm, V: math.Sin(tm)}, 0.4)
	}
	for i := 0; i < 1000; i++ {
		push()
	}
	// A run spans many compactions, so even one reallocation per
	// compaction shows.
	allocs := testing.AllocsPerRun(10, func() {
		for i := 0; i < 1000; i++ {
			push()
		}
	})
	if allocs != 0 {
		t.Errorf("a steady stream allocates %v times per 1000 pushes", allocs)
	}
}

// TestMeanStdMatchesStdOf pins meanStd to the float operations of
// stdOf and of the plain mean, bit for bit.
func TestMeanStdMatchesStdOf(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for n := 1; n < 300; n += 7 {
		s := make(Series, n)
		vs := make([]float64, n)
		var sum float64
		for i := range s {
			s[i] = Sample{T: float64(i), V: rng.NormFloat64()*3 + 1}
			vs[i] = s[i].V
			sum += vs[i]
		}
		mean, std := meanStd(s)
		if n >= 2 && math.Float64bits(std) != math.Float64bits(stdOf(vs)) {
			t.Fatalf("n=%d: std %v, stdOf %v", n, std, stdOf(vs))
		}
		if want := sum / float64(n); math.Float64bits(mean) != math.Float64bits(want) {
			t.Fatalf("n=%d: mean %v, want %v", n, mean, want)
		}
	}
}

// BenchmarkStabilityDetectorPush feeds the tracker's configuration —
// a 0.4 s window at the paper's 500 Hz — one sample per op.
func BenchmarkStabilityDetectorPush(b *testing.B) {
	d := NewStabilityDetector(0.4, 0.02, 0.2)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tm := float64(i) * 0.002
		d.Push(tm, 0.01*math.Sin(tm*7))
	}
}
