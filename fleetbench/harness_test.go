package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"

	"vihot/internal/core"
	"vihot/internal/driver"
	"vihot/internal/serve"
)

// synthMeta fakes a stream pool: mixes × per streams of n items each,
// due every 2 ms with one repeated due instant per stream (the clamp a
// backwards-jittered timestamp leaves behind).
func synthMeta(mixes, per, n int) ([]meta, []int) {
	var ms []meta
	for mix := 0; mix < mixes; mix++ {
		for j := 0; j < per; j++ {
			d := make([]int64, n+j*50)
			for i := range d {
				d[i] = int64(i) * 2e6
			}
			d[7] = d[6]
			ms = append(ms, meta{mix: mix, n: len(d), dues: d, lastD: d[len(d)-1]})
		}
	}
	var cars []int
	for k := 0; k < 3*mixes; k++ {
		cars = append(cars, k%mixes)
	}
	return ms, cars
}

var testWorkload = workload{name: "test", slots: 6, streams: 2, rampS: 0.5, warmS: 1}

// The seed reaches the schedule only through the rendered streams, so
// the same streams must always give the same schedule, and streams of
// other lengths (another seed's) another one.
func TestScheduleIsAFunctionOfTheStreams(t *testing.T) {
	ms, cars := synthMeta(3, 2, 1500)
	a := buildSchedule(testWorkload, 5, ms, cars)
	b := buildSchedule(testWorkload, 5, ms, cars)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two schedules built from the same streams differ")
	}
	other, _ := synthMeta(3, 2, 1700)
	if c := buildSchedule(testWorkload, 5, other, cars); reflect.DeepEqual(a.events, c.events) {
		t.Fatal("streams of other lengths gave the same schedule")
	}
}

func TestDueInstantsAreMonotonePerSession(t *testing.T) {
	ms, cars := synthMeta(3, 2, 1500)
	for _, w := range []workload{testWorkload, {name: "road", road: true, slots: 5, streams: 2, rampS: 0.5, warmS: 1}} {
		sc := buildSchedule(w, 5, ms, cars)
		last := map[int32]event{}
		for i, e := range sc.events {
			if i > 0 && e.due < sc.events[i-1].due {
				t.Fatalf("%s: event %d due %d before its predecessor %d", w.name, i, e.due, sc.events[i-1].due)
			}
			if e.due >= sc.endNS {
				t.Fatalf("%s: event %d due after the window", w.name, i)
			}
			if p, ok := last[e.trip]; ok && e.op == opItem && p.op == opItem && e.idx != p.idx+1 {
				t.Fatalf("%s: trip %d pushes item %d after %d", w.name, e.trip, e.idx, p.idx)
			}
			last[e.trip] = e
		}
	}
}

func TestTripsOpenAndCloseInOrder(t *testing.T) {
	ms, cars := synthMeta(3, 2, 1500)
	sc := buildSchedule(testWorkload, 6, ms, cars)
	opened, closed := map[int32]bool{}, map[int32]bool{}
	lastItem := map[int32]int64{}
	for _, e := range sc.events {
		switch e.op {
		case opOpen:
			opened[e.trip] = true
		case opItem:
			if !opened[e.trip] || closed[e.trip] {
				t.Fatalf("trip %d gets an item outside open..close", e.trip)
			}
			lastItem[e.trip] = e.due
		case opClose:
			tp := sc.trips[e.trip]
			if e.due-lastItem[e.trip] < int64(closeGraceS*1e9) || lastItem[e.trip] != tp.base+ms[tp.stream].lastD {
				t.Fatalf("trip %d closes %d ns after its last item, before its tail drained", e.trip, e.due-lastItem[e.trip])
			}
			closed[e.trip] = true
		}
	}
	bySlot := map[int][]tripPlan{}
	for i, tp := range sc.trips {
		if tp.closes != closed[int32(i)] {
			t.Fatalf("trip %d: planned close %v, scheduled %v", i, tp.closes, closed[int32(i)])
		}
		bySlot[tp.slot] = append(bySlot[tp.slot], tp)
	}
	if len(bySlot) != testWorkload.slots {
		t.Fatalf("%d slots ran trips, want %d", len(bySlot), testWorkload.slots)
	}
	for s, trips := range bySlot {
		if len(trips) < 2 {
			t.Fatalf("slot %d ran %d trips; the test wants back-to-back trips", s, len(trips))
		}
		for k := 1; k < len(trips); k++ {
			prev, next := trips[k-1], trips[k]
			if next.first != 0 || next.base <= prev.base+ms[prev.stream].lastD {
				t.Fatalf("slot %d trip %d opens before trip %d ended", s, k, k-1)
			}
		}
	}
	// First trips start at evenly spread offsets into their streams.
	for s := 1; s < testWorkload.slots; s++ {
		if a, b := bySlot[s-1][0], bySlot[s][0]; b.base+ms[b.stream].dues[b.first] <= a.base+ms[a.stream].dues[a.first] {
			t.Fatalf("slot %d opens no later than slot %d", s, s-1)
		}
	}
}

func TestTripIDRoundTrips(t *testing.T) {
	for _, i := range []int{0, 7, 123456} {
		if got := tripIndex(tripID(i)); got != i {
			t.Fatalf("tripIndex(tripID(%d)) = %d", i, got)
		}
	}
}

func TestEmitTimeTruth(t *testing.T) {
	st := &stream{truth: driver.NewTrack(driver.Key{T: 0, V: 0}, driver.Key{T: 1, V: 10})}
	est := core.Estimate{Time: 0.4, Yaw: 7}
	// 100 ms late, the estimate is scored at t = 0.5, halfway along the
	// smoothstep from 0° to 10°.
	if got := emitError(st, est, 100e6); math.Abs(got-2) > 1e-12 {
		t.Fatalf("error at the emit instant = %v, want 2", got)
	}
	if got := emitError(st, est, 0); math.Abs(got-(7-10*0.352)) > 1e-9 {
		t.Fatalf("error of a fresh estimate = %v, want %v", got, 7-10*0.352)
	}
	// Past the trip's end the truth holds its last value.
	if got := emitError(st, core.Estimate{Time: 0.9, Yaw: 10}, 2e9); got != 0 {
		t.Fatalf("error after the end = %v, want 0", got)
	}
}

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{19, 0}, {20, 50}, {100, 90}, {200, 95}, {999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9}, {100000, 99.99}} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	q1, q2, q3 = quartiles([]float64{1, 2, 4, 8, 16})
	if q1 != 1.5 || q2 != 4 || q3 != 12 {
		t.Fatalf("quartiles = %v %v %v", q1, q2, q3)
	}
}

func runsOf(vals ...float64) []runValue {
	out := make([]runValue, len(vals))
	for i, v := range vals {
		out[i] = runValue{seed: int64(i), value: v}
	}
	return out
}

func TestVerdict(t *testing.T) {
	lower := bound{name: "latency", bound: 0.1}
	higher := bound{name: "goodput", higher: true, bound: 0.1}
	base := runsOf(100, 101, 99, 100, 102, 98, 100, 101, 99, 100)
	for _, c := range []struct {
		name     string
		old, cur []runValue
		b        bound
		want     string
	}{
		{"same", base, runsOf(100, 100, 101, 99, 100, 101, 99, 100, 102, 98), lower, "unchanged"},
		{"slower", base, runsOf(120, 121, 119, 120, 122, 118, 120, 121, 119, 120), lower, "regressed"},
		{"faster", base, runsOf(90, 91, 89, 90, 92, 88, 90, 91, 89, 90), lower, "improved"},
		{"fewer", base, runsOf(80, 81, 79, 80, 82, 78, 80, 81, 79, 80), higher, "regressed"},
		{"noisy", base, runsOf(70, 130, 100, 60, 140, 100, 95, 105, 100, 100), lower, "unresolved"},
		{"no bound", base, runsOf(200), bound{name: "x"}, "-"},
	} {
		if got := verdict(c.old, c.cur, c.b); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

func TestIdentityGates(t *testing.T) {
	ok := serve.CounterSnapshot{FramesIn: 90, IMUIn: 10, Processed: 95, DroppedStale: 4, DroppedUnknown: 1,
		Estimates: 20, ToDegraded: 1, Recoveries: 1, SessionsClosed: 2, JournalAppended: 23, JournalDropped: 1}
	if err := conservationErr(ok); err != nil {
		t.Fatal(err)
	}
	if err := journalErr(ok); err != nil {
		t.Fatal(err)
	}
	lost := ok
	lost.Processed--
	if conservationErr(lost) == nil {
		t.Fatal("an item neither processed nor dropped passed the conservation gate")
	}
	unjournaled := ok
	unjournaled.Estimates++
	if journalErr(unjournaled) == nil {
		t.Fatal("an estimate missing from the journal passed the journal gate")
	}
}

func TestSameEstimatesCatchesOneBit(t *testing.T) {
	want := []core.Estimate{{Time: 1, Yaw: 3.5, Source: core.SourceCSI, Position: 2, MatchDist: 0.01}}
	got := append([]core.Estimate(nil), want...)
	if err := sameEstimates(got, want); err != nil {
		t.Fatal(err)
	}
	got[0].Yaw = math.Nextafter(got[0].Yaw, 4)
	if sameEstimates(got, want) == nil {
		t.Fatal("a yaw one ulp off passed")
	}
	if sameEstimates(got[:0], want) == nil {
		t.Fatal("a missing estimate passed")
	}
}

func TestWindowQuantile(t *testing.T) {
	bounds := []float64{1, 2, 4, math.Inf(1)}
	before := []uint64{5, 5, 5, 5}
	after := []uint64{5, 15, 25, 25} // 10 in (1,2], 10 in (2,4]
	if got := windowQuantile(bounds, before, after, 0.5); got != 2 {
		t.Fatalf("median = %v, want 2", got)
	}
	if got := windowQuantile(bounds, before, after, 0.75); got != 3 {
		t.Fatalf("p75 = %v, want 3", got)
	}
}

// TestMetricListsMatchBenchmarkJSON keeps the harness's metric names,
// units and directions in step with the benchmark definition.
func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var def struct {
		EndToEnd []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &def); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit, Better string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the harness %d", kind, len(got), len(want))
		}
		for i, m := range want {
			better := "lower"
			if m.higher {
				better = "higher"
			}
			if got[i].Name != m.name || got[i].Unit != m.unit || got[i].Better != better {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the harness %+v", kind, i, got[i], m)
			}
		}
	}
	check("end_to_end", def.EndToEnd, endToEndMetrics)
	check("per_layer", def.PerLayer, perLayerMetrics)
}
