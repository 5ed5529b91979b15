package main

import (
	"fmt"
	"io"
	"math"
)

// metricValue is one reported number with its unit.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// output is the result line the harness prints last.
type output struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// metricDef names one metric, its unit, and which way is better; the
// lists below must match BENCHMARK.json (a test holds them together).
type metricDef struct {
	name, unit string
	higher     bool
}

var endToEndMetrics = []metricDef{
	{"latency_p50_ms", "ms", false},
	{"on_target_frac", "ratio", true},
	{"cpu_us_per_frame", "us", false},
	{"alloc_b_per_frame", "B", false},
	{"heap_live_mb", "MB", false},
	{"setup_s", "s", false},
}

var perLayerMetrics = []metricDef{
	{"core.match_us_p50", "us", false},
	{"core.match_us_p99", "us", false},
	{"core.match_per_est", "ratio", false},
	{"core.track_ns", "ns", false},
	{"csi.sanitize_ns", "ns", false},
	{"wifi.decode_ns", "ns", false},
	{"serve.push_ns", "ns", false},
	{"serve.dwell_ms_p50", "ms", false},
	{"serve.dwell_ms_p99", "ms", false},
	{"serve.shed_frac", "ratio", false},
	{"serve.open_us_p99", "us", false},
	{"serve.close_us_p99", "us", false},
	{"profilestore.hit_ratio", "ratio", true},
	{"profilestore.loads", "count", false},
	{"journal.append_ns", "ns", false},
	{"journal.records_per_sync", "ratio", true},
	{"journal.dropped", "count", false},
	{"trace.overhead_latency_pct", "%", false},
	{"trace.overhead_cpu_pct", "%", false},
	{"residual_ms", "ms", false},
	{"gen.lag_ms_p99", "ms", false},
	{"host.steal_pct", "%", false},
}

// report collects one run's metrics in definition order.
type report struct {
	defs []metricDef
	vals map[string]float64
}

func newReport(defs []metricDef) *report {
	return &report{defs: defs, vals: map[string]float64{}}
}

func (r *report) set(name string, v float64) { r.vals[name] = v }

// check refuses a report with a missing or non-finite metric, or (for
// end-to-end metrics, which are chosen never to be 0) a zero.
func (r *report) check(nonZero bool) error {
	for _, d := range r.defs {
		v, ok := r.vals[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s not measured (%v)", d.name, v)
		}
		if nonZero && v == 0 {
			return fmt.Errorf("metric %s measured 0", d.name)
		}
	}
	return nil
}

func (r *report) metrics() map[string]metricValue {
	out := make(map[string]metricValue, len(r.defs))
	for _, d := range r.defs {
		out[d.name] = metricValue{Value: r.vals[d.name], Unit: d.unit}
	}
	return out
}

func (r *report) print(w io.Writer) {
	for _, d := range r.defs {
		fmt.Fprintf(w, "  %-28s %14.6g %s\n", d.name, r.vals[d.name], d.unit)
	}
}

// onTargetDeg is the emit-time error an estimate may have and still
// count as on target: between Fig. 10's ≈6° at 100 ms and ≈18° at
// 400 ms of staleness.
const onTargetDeg = 10

// endToEndReport turns one untraced phase into the end-to-end metrics.
func endToEndReport(in *inputs, res *phaseResult, setupS float64) (*report, e2e, error) {
	e := endToEnd(in, res)
	r := newReport(endToEndMetrics)
	if len(e.latMS) == 0 || res.framesWin == 0 {
		return nil, e, fmt.Errorf("no estimate or frame fell inside the window")
	}
	p50, _, err := perSecondLatency(e)
	if err != nil {
		return nil, e, err
	}
	onTarget := 0
	for _, d := range e.errDeg {
		if d <= onTargetDeg {
			onTarget++
		}
	}
	r.set("latency_p50_ms", p50)
	r.set("on_target_frac", float64(onTarget)/float64(len(e.errDeg)))
	r.set("cpu_us_per_frame", perSecondCPU(res))
	r.set("alloc_b_per_frame", float64(res.allocWin)/float64(res.framesWin))
	r.set("heap_live_mb", float64(res.heapLive)/(1<<20))
	r.set("setup_s", setupS)
	return r, e, r.check(true)
}

// perSecondLatency is the median, over the seconds of the window, of
// each second's latency p50 and p99 (by the second the triggering item
// fell due in). A host stall of a second or two moves one or two of
// the per-second values, not the median of them.
func perSecondLatency(e e2e) (p50, p99 float64, err error) {
	var p50s, p99s []float64
	for k, sec := range e.latBySec {
		if tailPercentile(len(sec)) < 99 {
			return 0, 0, fmt.Errorf("second %d of the window has %d estimates, too few for a p99", k, len(sec))
		}
		s := sortedCopy(sec)
		p50s = append(p50s, quantile(s, 0.5))
		p99s = append(p99s, quantile(s, 0.99))
	}
	return quantile(sortedCopy(p50s), 0.5), quantile(sortedCopy(p99s), 0.5), nil
}

// perSecondCPU is the median, over the seconds of the window, of the
// process CPU time per CSI frame pushed in that second, in µs.
func perSecondCPU(res *phaseResult) float64 {
	var per []float64
	for k := 1; k < len(res.ticks); k++ {
		a, b := res.ticks[k-1], res.ticks[k]
		if b.frames > a.frames {
			per = append(per, float64((b.cpu-a.cpu).Nanoseconds())/1e3/float64(b.frames-a.frames))
		}
	}
	return quantile(sortedCopy(per), 0.5)
}

// scaled converts a sample to float64, multiplied by scale.
func scaled[T int32 | int64 | float64](xs []T, scale float64) []float64 {
	f := make([]float64, len(xs))
	for i, x := range xs {
		f[i] = float64(x) * scale
	}
	return f
}

func quantileOf[T int32 | int64 | float64](xs []T, q, scale float64) float64 {
	return quantile(sortedCopy(scaled(xs, scale)), q)
}

func medianOf[T int32 | int64 | float64](xs []T, scale float64) float64 {
	return quantileOf(xs, 0.5, scale)
}

// layerReport turns the untraced baseline, the traced phase and the
// layer replay into the per-layer metrics, and prints the latency
// decomposition of an estimating frame.
func layerReport(w io.Writer, in *inputs, base, tr *phaseResult, ls *layerSpans) (*report, error) {
	eb, et := endToEnd(in, base), endToEnd(in, tr)
	if len(eb.latMS) == 0 || len(et.latMS) == 0 || base.framesWin == 0 || tr.framesWin == 0 {
		return nil, fmt.Errorf("no estimate or frame fell inside the window")
	}
	r := newReport(perLayerMetrics)
	r.set("core.match_us_p50", quantileOf(ls.match, 0.5, 1e-3))
	r.set("core.match_us_p99", quantileOf(ls.match, 0.99, 1e-3))
	r.set("core.match_per_est", float64(ls.searches)/float64(max(1, ls.estimates)))
	r.set("core.track_ns", medianOf(ls.track, 1))
	r.set("csi.sanitize_ns", medianOf(ls.sanitize, 1))
	r.set("wifi.decode_ns", medianOf(tr.decodeNS, 1))
	r.set("serve.push_ns", medianOf(tr.pushNS, 1))
	dwellP50 := windowQuantile(tr.dwellBounds, tr.dwellAtWin, tr.dwellAtEnd, 0.5) * 1e3
	r.set("serve.dwell_ms_p50", dwellP50)
	r.set("serve.dwell_ms_p99", windowQuantile(tr.dwellBounds, tr.dwellAtWin, tr.dwellAtEnd, 0.99)*1e3)
	f := tr.final
	r.set("serve.shed_frac", float64(f.DroppedStale)/float64(max(1, f.Total())))
	r.set("serve.open_us_p99", quantileOf(tr.openNS, 0.99, 1e-3))
	r.set("serve.close_us_p99", quantileOf(tr.closeNS, 0.99, 1e-3))
	r.set("profilestore.hit_ratio", tr.store.HitRate())
	r.set("profilestore.loads", float64(tr.store.Loads))
	appendNS := medianOf(ls.appendNS, 1)
	r.set("journal.append_ns", appendNS)
	perSync := 0.0
	if tr.jstats.Syncs > 0 {
		perSync = float64(tr.jstats.Records) / float64(tr.jstats.Syncs)
	}
	r.set("journal.records_per_sync", perSync)
	r.set("journal.dropped", float64(f.JournalDropped))
	latB, _, errB := perSecondLatency(eb)
	latT, _, errT := perSecondLatency(et)
	if errB != nil || errT != nil {
		return nil, fmt.Errorf("latency: %v %v", errB, errT)
	}
	cpuB, cpuT := perSecondCPU(base), perSecondCPU(tr)
	r.set("trace.overhead_latency_pct", 100*(latT-latB)/latB)
	r.set("trace.overhead_cpu_pct", 100*(cpuT-cpuB)/cpuB)

	// The blocking steps of an estimating frame, each a median self
	// time: what the rest of latency_p50_ms cannot be attributed to is
	// the residual (worker wake-ups, waiting behind the items of the
	// same drained chunk, clock reads).
	type step struct {
		name string
		ms   float64
	}
	steps := []step{
		{"receive loop late (gen.lag)", medianOf(tr.lagUS, 1e-3)},
		{"wifi decode", medianOf(tr.decodeNS, 1e-6)},
		{"serve push", medianOf(tr.pushNS, 1e-6)},
		{"queue dwell", dwellP50},
		{"csi sanitize", medianOf(ls.sanitize, 1e-6)},
		{"core PushCSI (estimating)", medianOf(ls.estimate, 1e-6)},
		{"estimate callback", cbMedianMS(tr)},
	}
	if tr.journalOn {
		steps = append(steps, step{"journal append", appendNS * 1e-6})
	}
	sum := 0.0
	fmt.Fprintf(w, "latency decomposition of an estimating frame (medians, traced run):\n")
	for _, s := range steps {
		fmt.Fprintf(w, "  %-28s %10.4f ms\n", s.name, s.ms)
		sum += s.ms
	}
	fmt.Fprintf(w, "  %-28s %10.4f ms\n  %-28s %10.4f ms\n", "sum of layers", sum, "latency_p50_ms (traced)", latT)
	r.set("residual_ms", latT-sum)
	r.set("gen.lag_ms_p99", quantileOf(tr.lagUS, 0.99, 1e-3))
	r.set("host.steal_pct", tr.steal)
	return r, r.check(false)
}

// cbMedianMS is the median self time of the traced estimate callback.
func cbMedianMS(res *phaseResult) float64 {
	var all []int32
	for i := range res.trips {
		all = append(all, res.trips[i].cbNS...)
	}
	return medianOf(all, 1e-6)
}

// describe prints one phase's end-to-end detail: the latency
// distribution with its sample count, goodput, the emit-time error and
// the failure split, which the result line does not carry.
func describe(w io.Writer, label string, res *phaseResult, e e2e) {
	lat, errs := summarize(e.latMS), summarize(e.errDeg)
	sp50, sp99, _ := perSecondLatency(e)
	f := res.final
	fmt.Fprintf(w, "%s: window %.2f s, %d frames, cpu %.3f core, steal %.1f%%\n",
		label, e.winS, res.framesWin, res.cpu.Seconds()/e.winS, res.steal)
	fmt.Fprintf(w, "  latency_ms %v p99=%.4g max=%.4g; per-second medians p50=%.4g p99=%.4g\n",
		lat, lat.p99, quantile(sortedCopy(e.latMS), 1), sp50, sp99)
	fmt.Fprintf(w, "  %-28s %14.6g ms (median of per-second p99, n=%d)\n", "latency_p99_ms", sp99, lat.n)
	fmt.Fprintf(w, "  %-28s %14.6g 1/s (within %v of due)\n", "goodput_est_per_s", float64(e.good)/e.winS, goodputHorizon)
	fmt.Fprintf(w, "  %-28s %14.6g deg (n=%d)\n", "err_emit_median_deg", errs.p50, errs.n)
	fmt.Fprintf(w, "  %-28s %14.6g deg\n", "err_emit_p95_deg", errs.p95)
	fmt.Fprintf(w, "  %-28s %14.6g 1/s\n", "frames_per_s", e.framesPerS)
	fmt.Fprintf(w, "  %-28s %14.6g ratio (%d of %d items: stale %d unknown %d closed %d refused %d)\n",
		"fail_frac", float64(e.failed)/float64(e.offered), e.failed, e.offered,
		f.DroppedStale, f.DroppedUnknown, f.DroppedClosed, f.RejectedClosed)
	fmt.Fprintf(w, "  gen.lag_ms %v\n", summarize(scaled(res.lagUS, 1e-3)))
	fmt.Fprintf(w, "  counters: estimates=%d sessions-closed=%d journal=%d+%d store hits=%d loads=%d\n",
		f.Estimates, f.SessionsClosed, f.JournalAppended, f.JournalDropped, res.store.Hits, res.store.Loads)
}
