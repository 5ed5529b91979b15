package serve

import (
	"fmt"
	"math"
	"math/cmplx"
	"strings"
	"testing"

	"vihot/internal/core"
	"vihot/internal/csi"
	"vihot/internal/obs"
)

// testProfile is a small synthetic single-position profile: a smooth
// monotone phase-orientation curve is all the tracker needs to run its
// matching machinery; accuracy is not under test here.
func testProfile(t *testing.T) *core.Profile {
	t.Helper()
	const n = 201
	pp := core.PositionProfile{Position: 0}
	for k := 0; k < n; k++ {
		theta := -60 + 120*float64(k)/(n-1)
		pp.ThetaGrid = append(pp.ThetaGrid, theta)
		pp.PhiGrid = append(pp.PhiGrid, 1.2*math.Sin(theta*math.Pi/180))
	}
	pp.Fingerprint = 0
	return &core.Profile{MatchRateHz: 100, Positions: []core.PositionProfile{pp}}
}

// pushSweep runs one session's worth of synthetic CSI through a
// manager: a phase sweep long enough (and lively enough) to drive the
// DTW matching path and produce estimates.
func pushSweep(t *testing.T, m *Manager, id string, n int) {
	t.Helper()
	if err := m.Open(id, testProfile(t), core.DefaultPipelineConfig()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		ts := float64(i) * 0.002 // 500 Hz
		m.Push(Item{Session: id, Kind: KindPhase, Time: ts, Phi: 1.0 * math.Sin(ts*6)})
	}
	m.Flush()
}

func TestManagerMetricsRegistry(t *testing.T) {
	reg := obs.NewRegistry()
	tr := obs.NewTracer(4096)
	m := New(Config{Deterministic: true, Metrics: reg, Trace: tr})
	defer m.Close()
	pushSweep(t, m, "car-1", 600)

	snap := m.Counters().Snapshot()
	if snap.PhasesIn != 600 || snap.Estimates == 0 {
		t.Fatalf("snapshot = %+v", snap)
	}

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	for _, want := range []string{
		`vihot_serve_items_total{kind="phase"} 600`,
		"vihot_serve_sessions_open 1",
		"vihot_serve_processed_total 600",
		`vihot_pipeline_stage_seconds_count{stage="track"}`,
		`vihot_pipeline_stage_seconds_bucket{stage="match",le="1e-06"}`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q\n%s", want, text)
		}
	}

	// Counter API and scrape must agree: the consolidation satellite's
	// whole point is that these are the same underlying series.
	if !strings.Contains(text, "vihot_serve_estimates_total "+uitoa(snap.Estimates)) {
		t.Errorf("estimates counter and exposition disagree\n%s", text)
	}

	// The tracer saw pipeline stages anchored at stream time.
	d := tr.Dump()
	if len(d.Spans) == 0 {
		t.Fatal("no spans recorded")
	}
	stages := map[string]int{}
	for _, sp := range d.Spans {
		if sp.Session != "car-1" {
			t.Fatalf("span session = %q", sp.Session)
		}
		stages[sp.Stage]++
		if sp.StreamT < 0 || sp.StreamT > 1.2+1e-9 {
			t.Fatalf("span StreamT = %v outside the stream's range", sp.StreamT)
		}
	}
	if stages[core.StageTrack] == 0 || stages[core.StageMatch] == 0 {
		t.Fatalf("stage spans = %v, want track and match present", stages)
	}
}

// TestStageSpansTile: one frame's dwell, sanitize and track spans
// share their boundary stamps, so each starts exactly where the one
// before it ends, and every match span lies inside its track span.
func TestStageSpansTile(t *testing.T) {
	const sessions, frames = 4, 800
	tr := obs.NewTracer(sessions * frames * 4)
	m := New(Config{Shards: 2, Metrics: obs.NewRegistry(), Trace: tr})
	defer m.Close()
	for s := 0; s < sessions; s++ {
		if err := m.Open(fmt.Sprint("car-", s), testProfile(t), core.DefaultPipelineConfig()); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < frames; i++ {
		ts := float64(i) * 0.002 // 500 Hz
		for s := 0; s < sessions; s++ {
			phi := math.Sin(ts*6 + float64(s))
			f := &csi.Frame{Time: ts, H: [][]complex128{{cmplx.Rect(1, phi)}, {1}}}
			m.Push(Item{Session: fmt.Sprint("car-", s), Kind: KindFrame, Frame: f})
		}
	}
	m.Flush()

	type key struct {
		session string
		t       float64
	}
	paths := map[key]map[string]obs.Span{}
	d := tr.Dump()
	if d.Overwritten != 0 {
		t.Fatalf("tracer overwrote %d spans", d.Overwritten)
	}
	for _, sp := range d.Spans {
		k := key{sp.Session, sp.StreamT}
		if paths[k] == nil {
			paths[k] = map[string]obs.Span{}
		}
		if _, dup := paths[k][sp.Stage]; dup {
			t.Fatalf("%v: two %s spans", k, sp.Stage)
		}
		paths[k][sp.Stage] = sp
	}
	if len(paths) != sessions*frames {
		t.Fatalf("spans cover %d items, want %d", len(paths), sessions*frames)
	}
	matches := 0
	for k, p := range paths {
		chain := []string{StageDwell, core.StageSanitize, core.StageTrack}
		for i, stage := range chain {
			if _, ok := p[stage]; !ok {
				t.Fatalf("%v: no %s span (have %v)", k, stage, p)
			}
			if i == 0 {
				continue
			}
			prev, next := p[chain[i-1]], p[stage]
			if prev.StartNS+prev.DurNS != next.StartNS {
				t.Fatalf("%v: %s %+v does not end where %s %+v starts", k, chain[i-1], prev, stage, next)
			}
		}
		if mt, ok := p[core.StageMatch]; ok {
			matches++
			tk := p[core.StageTrack]
			if mt.StartNS < tk.StartNS || mt.StartNS+mt.DurNS > tk.StartNS+tk.DurNS {
				t.Fatalf("%v: match %+v outside track %+v", k, mt, tk)
			}
		}
	}
	if matches == 0 {
		t.Fatal("no match spans: the stream never drove a DTW search")
	}
}

func TestManagerDwellTracked(t *testing.T) {
	reg := obs.NewRegistry()
	m := New(Config{Shards: 1, Metrics: reg})
	defer m.Close()
	pushSweep(t, m, "car-dwell", 400)
	h := reg.Histogram("vihot_serve_queue_dwell_seconds",
		"wall-clock time items spend in a shard queue before processing", obs.LatencyBuckets())
	if h.Count() == 0 {
		t.Fatal("no queue-dwell observations in concurrent mode")
	}
}

func TestManagerObsOffByDefault(t *testing.T) {
	m := New(Config{Deterministic: true})
	defer m.Close()
	if m.obs != nil {
		t.Fatal("manager built instrumentation without Metrics or Trace")
	}
	// Counters still work against the private registry.
	pushSweep(t, m, "car-off", 300)
	if snap := m.Counters().Snapshot(); snap.PhasesIn != 300 {
		t.Fatalf("snapshot without registry = %+v", snap)
	}
}

func TestManagerTraceOnlyEnablesSpans(t *testing.T) {
	tr := obs.NewTracer(128)
	m := New(Config{Deterministic: true, Trace: tr})
	defer m.Close()
	pushSweep(t, m, "car-trace", 600)
	if tr.Dump().Recorded == 0 {
		t.Fatal("Trace without Metrics recorded nothing")
	}
}

// uitoa avoids importing strconv for one call site.
func uitoa(v uint64) string {
	if v == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	for v > 0 {
		i--
		b[i] = byte('0' + v%10)
		v /= 10
	}
	return string(b[i:])
}
