package obs

import (
	"strings"
	"sync"
	"testing"
)

func TestNilSafety(t *testing.T) {
	// Every metric type and the tracer must be inert, not crashing,
	// when nil — that is what makes "off by default" free at call sites.
	var c *Counter
	c.Add(3)
	c.Inc()
	if c.Value() != 0 {
		t.Fatal("nil counter has a value")
	}
	var g *Gauge
	g.Set(1)
	g.Add(-2)
	if g.Value() != 0 {
		t.Fatal("nil gauge has a value")
	}
	var h *Histogram
	h.Observe(0.5)
	if h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil histogram observed something")
	}
	var tr *Tracer
	tr.Record("s", "stage", 1, 0, 100)
	if d := tr.Dump(); d.Recorded != 0 || len(d.Spans) != 0 {
		t.Fatal("nil tracer recorded something")
	}
	var r *Registry
	if r.Counter("x", "") != nil || r.Gauge("x", "") != nil ||
		r.Histogram("x", "", []float64{1}) != nil {
		t.Fatal("nil registry returned a live metric")
	}
	r.CounterFunc("x", "", func() uint64 { return 0 })
	r.GaugeFunc("x", "", func() float64 { return 0 })
	if err := r.WritePrometheus(&strings.Builder{}); err != nil {
		t.Fatal(err)
	}
}

func TestRegistrationIdempotent(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("vihot_test_total", "help", "kind", "x")
	b := r.Counter("vihot_test_total", "help", "kind", "x")
	if a != b {
		t.Fatal("same name+labels returned distinct counters")
	}
	other := r.Counter("vihot_test_total", "help", "kind", "y")
	if other == a {
		t.Fatal("distinct labels shared a counter")
	}
	h1 := r.Histogram("vihot_test_seconds", "h", []float64{1, 2})
	h2 := r.Histogram("vihot_test_seconds", "h", []float64{1, 2})
	if h1 != h2 {
		t.Fatal("same histogram series returned distinct histograms")
	}
}

func TestLabelOrderCanonical(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("vihot_canon_total", "", "b", "2", "a", "1")
	b := r.Counter("vihot_canon_total", "", "a", "1", "b", "2")
	if a != b {
		t.Fatal("label order changed series identity")
	}
}

func TestKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("vihot_kind_total", "")
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a counter as a gauge did not panic")
		}
	}()
	r.Gauge("vihot_kind_total", "")
}

func TestInvalidNamePanics(t *testing.T) {
	r := NewRegistry()
	for _, bad := range []string{"", "1abc", "with-dash", "sp ace"} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("name %q accepted", bad)
				}
			}()
			r.Counter(bad, "")
		}()
	}
}

func TestGaugeAdd(t *testing.T) {
	var g Gauge
	g.Set(10)
	g.Add(-2.5)
	g.Add(0.5)
	if got := g.Value(); got != 8 {
		t.Fatalf("gauge = %v, want 8", got)
	}
}

// TestConcurrentRegistry hammers every metric type and the exposition
// path from many goroutines; -race gives it teeth, and the counter
// totals prove no update was lost.
func TestConcurrentRegistry(t *testing.T) {
	r := NewRegistry()
	tr := NewTracer(128)
	const (
		workers = 8
		iters   = 2000
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Half the workers register (idempotently), half reuse —
			// registration races with updates and scrapes.
			c := r.Counter("vihot_conc_total", "c", "kind", "x")
			g := r.Gauge("vihot_conc_gauge", "g")
			h := r.Histogram("vihot_conc_seconds", "h", LatencyBuckets())
			for i := 0; i < iters; i++ {
				c.Add(1)
				g.Add(1)
				h.Observe(float64(i%1000) * 1e-6)
				tr.Record("s", "stage", float64(i), 0, int64(i))
				if i%100 == 0 {
					var sb strings.Builder
					if err := r.WritePrometheus(&sb); err != nil {
						t.Error(err)
						return
					}
					_ = h.Quantile(0.99)
					_ = tr.Dump()
				}
			}
		}(w)
	}
	wg.Wait()
	if got := r.Counter("vihot_conc_total", "c", "kind", "x").Value(); got != workers*iters {
		t.Fatalf("counter = %d, want %d", got, workers*iters)
	}
	if got := r.Histogram("vihot_conc_seconds", "h", LatencyBuckets()).Count(); got != workers*iters {
		t.Fatalf("histogram count = %d, want %d", got, workers*iters)
	}
	if got := tr.Dump(); got.Recorded != workers*iters || len(got.Spans) != 128 {
		t.Fatalf("tracer recorded %d spans kept %d, want %d/128", got.Recorded, len(got.Spans), workers*iters)
	}
}
