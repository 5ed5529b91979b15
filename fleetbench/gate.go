package main

import (
	"fmt"
	"math"

	"vihot/internal/core"
	"vihot/internal/geom"
	"vihot/internal/profilestore"
	"vihot/internal/serve"
	"vihot/internal/stats"
	"vihot/internal/wifi"
)

// sampleTrips is how many trips per run the bit-identical check
// replays; each cabin trip costs ≈0.4 s of one core to replay.
const sampleTrips = 2

// emitError is an estimate's absolute yaw error against the ground
// truth at its emit instant: stream time plus measured latency.
func emitError(st *stream, est core.Estimate, latNS int64) float64 {
	return geom.AngleDistDeg(est.Yaw, st.truth.At(est.Time+float64(latNS)/1e9))
}

// conservationErr checks the manager's books after CloseDrain: every
// item it took responsibility for was processed or dropped.
func conservationErr(s serve.CounterSnapshot) error {
	out := s.Processed + s.DroppedStale + s.DroppedUnknown + s.DroppedClosed + s.RejectedKind
	if s.Total() != out {
		return fmt.Errorf("conservation: total %d != processed %d + stale %d + unknown %d + closed %d + rejected-kind %d",
			s.Total(), s.Processed, s.DroppedStale, s.DroppedUnknown, s.DroppedClosed, s.RejectedKind)
	}
	return nil
}

// journalErr checks that every estimate, transition, reap and close
// reached the journal or was counted as shed.
func journalErr(s serve.CounterSnapshot) error {
	in := s.JournalAppended + s.JournalDropped
	want := s.Estimates + s.ToDegraded + s.ToCoasting + s.ToStale + s.Recoveries + s.SessionsReaped + s.SessionsClosed
	if in != want {
		return fmt.Errorf("journal: appended %d + dropped %d != estimates %d + transitions %d + reaped %d + closed %d",
			s.JournalAppended, s.JournalDropped, s.Estimates,
			s.ToDegraded+s.ToCoasting+s.ToStale+s.Recoveries, s.SessionsReaped, s.SessionsClosed)
	}
	return nil
}

// sameEstimates reports the first difference between two estimate
// streams, comparing every public field bit for bit.
func sameEstimates(got, want []core.Estimate) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d estimates, deterministic replay has %d", len(got), len(want))
	}
	bits := math.Float64bits
	for i := range got {
		g, w := got[i], want[i]
		if bits(g.Time) != bits(w.Time) || bits(g.Yaw) != bits(w.Yaw) || g.Source != w.Source ||
			g.Position != w.Position || bits(g.MatchDist) != bits(w.MatchDist) {
			return fmt.Errorf("estimate %d: got %+v, deterministic replay has %+v", i, g, w)
		}
	}
	return nil
}

// replayDeterministic pushes the items a trip actually received
// through a deterministic manager — synchronous, unshed — over the
// same profile file, and returns the estimates it emits.
func replayDeterministic(in *inputs, tp *tripPlan, pushed int) ([]core.Estimate, error) {
	p, err := profilestore.NewDirLoader(in.profileDir).Load(in.cars[tp.car])
	if err != nil {
		return nil, err
	}
	var got []core.Estimate
	mgr := serve.New(serve.Config{Deterministic: true,
		OnEstimate: func(_ string, e core.Estimate) { got = append(got, e) }})
	defer mgr.Close()
	if err := mgr.Open(tp.id, p, core.DefaultPipelineConfig()); err != nil {
		return nil, err
	}
	st := in.streams[tp.stream]
	for i := tp.first; i < tp.first+pushed; i++ {
		it, err := decodeItem(st, i, tp.id, wifi.Decode)
		if err != nil {
			return nil, err
		}
		mgr.Push(it)
	}
	return got, nil
}

// sample picks up to n trips for the replays, seeded, among trips that
// received at least a second of items.
func sample(res *phaseResult, seed int64, n int) []int {
	var cands []int
	for i := range res.trips {
		if res.trips[i].pushed >= 500 {
			cands = append(cands, i)
		}
	}
	perm := stats.NewRNG(deriveSeed(seed, "sample")).Perm(len(cands))
	out := make([]int, 0, n)
	for _, k := range perm[:min(n, len(perm))] {
		out = append(out, cands[k])
	}
	return out
}

// gate runs the correctness checks on one phase and returns every
// violation: the manager's conservation identity, the journal
// identity, clean opens, decodes and closes, and — when nothing was
// shed or dropped — estimates bit-identical to a deterministic replay
// for a seeded sample of trips.
func gate(in *inputs, res *phaseResult, seed int64) []string {
	var bad []string
	if err := conservationErr(res.final); err != nil {
		bad = append(bad, err.Error())
	}
	if res.journalOn {
		if err := journalErr(res.final); err != nil {
			bad = append(bad, err.Error())
		}
		if res.final.JournalErrors > 0 {
			bad = append(bad, fmt.Sprintf("journal: %d write errors", res.final.JournalErrors))
		}
	}
	if res.decodeErrs > 0 {
		bad = append(bad, fmt.Sprintf("%d datagrams failed to decode", res.decodeErrs))
	}
	for i := range res.trips {
		if err := res.trips[i].err; err != nil {
			bad = append(bad, fmt.Sprintf("trip %s: %v", in.sched.trips[i].id, err))
		}
	}
	e := endToEnd(in, res)
	if e.unmatched > 0 {
		bad = append(bad, fmt.Sprintf("%d estimates carry a time no pushed item had", e.unmatched))
	}
	if e.failed > 0 {
		return bad
	}
	for _, ti := range sample(res, seed, sampleTrips) {
		tp := &in.sched.trips[ti]
		want, err := replayDeterministic(in, tp, res.trips[ti].pushed)
		if err != nil {
			bad = append(bad, fmt.Sprintf("trip %s: replay: %v", tp.id, err))
			continue
		}
		got := make([]core.Estimate, len(res.trips[ti].recs))
		for k, r := range res.trips[ti].recs {
			got[k] = r.est
		}
		if err := sameEstimates(got, want); err != nil {
			bad = append(bad, fmt.Sprintf("trip %s: %v", tp.id, err))
		}
	}
	return bad
}
