package main

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

// TestGateOnALiveRun renders a small fleet twice from one seed and
// checks both renderings agree, replays it in real time, and checks the
// gate passes the run. It then checks the gate fails the run once an
// item goes missing from the books, a journal record goes missing, or
// the estimate stream diverges from the deterministic replay.
func TestGateOnALiveRun(t *testing.T) {
	if testing.Short() {
		t.Skip("renders a small fleet and replays it for three seconds")
	}
	w := workload{name: "gate-test", slots: 3, streams: 1, journal: true, metrics: true, rampS: 0.3, warmS: 1}
	dir := t.TempDir()
	in, err := setup(w, 1, 2, dir)
	if err != nil {
		t.Fatal(err)
	}
	// The same seed renders the same datagrams and the same schedule.
	again, err := setup(w, 1, 2, dir)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in.sched, again.sched) {
		t.Fatal("seed 1 gave two different schedules")
	}
	for i := range in.streams {
		if !bytes.Equal(in.streams[i].wire, again.streams[i].wire) {
			t.Fatalf("seed 1 rendered stream %d twice differently", i)
		}
	}
	res, err := live(in, false, dir)
	if err != nil {
		t.Fatal(err)
	}
	if bad := gate(in, res, 1); len(bad) > 0 {
		t.Fatalf("gate failed a clean run:\n%s", strings.Join(bad, "\n"))
	}
	if len(sample(res, 1, sampleTrips)) == 0 {
		t.Fatal("no trip was long enough for the bit-identical check")
	}

	expectFailure := func(what, want string, r *phaseResult) {
		t.Helper()
		bad := gate(in, r, 1)
		if !strings.Contains(strings.Join(bad, "\n"), want) {
			t.Errorf("%s: gate reported %q, want a %q violation", what, bad, want)
		}
	}
	lost := *res
	lost.final.Processed--
	expectFailure("lost item", "conservation", &lost)

	unjournaled := *res
	unjournaled.final.JournalAppended--
	expectFailure("missing journal record", "journal", &unjournaled)

	diverged := *res
	diverged.trips = make([]tripRun, len(res.trips))
	for i, tr := range res.trips {
		tr.recs = append([]estRec(nil), tr.recs...)
		for k := range tr.recs {
			tr.recs[k].est.Yaw += 1e-9
		}
		diverged.trips[i] = tr
	}
	expectFailure("diverging estimates", "deterministic replay", &diverged)
}
