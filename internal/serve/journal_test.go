package serve

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"sync"
	"sync/atomic"
	"testing"

	"vihot/internal/core"
	"vihot/internal/journal"
)

// TestJournalConservationAndRecovery drives one deterministic run
// through every journaled event family — estimates, health
// transitions (down and back up), an idle-TTL reap, an explicit
// close — and proves the two contracts the wiring makes:
//
//  1. The extended conservation identity: every journaled event is
//     accounted appended-or-dropped, and with an unsaturated queue the
//     journal holds exactly one record per event.
//  2. Recovery reconstructs the terminal per-session state the live
//     manager actually reached.
func TestJournalConservationAndRecovery(t *testing.T) {
	var buf bytes.Buffer
	jw, err := journal.New(journal.Config{W: &buf, BatchSize: 8, QueueLen: 1 << 16})
	if err != nil {
		t.Fatal(err)
	}
	var lastEst core.Estimate
	var estCount int
	m := New(Config{
		Deterministic: true,
		Journal:       jw,
		SessionTTLS:   1.0,
		OnEstimate:    func(id string, est core.Estimate) { lastEst, estCount = est, estCount+1 },
	})
	prof := testProfile(t)
	for _, id := range []string{"est", "idle"} {
		if err := m.Open(id, prof, core.DefaultPipelineConfig()); err != nil {
			t.Fatal(err)
		}
	}
	// "idle" admits two items early, then goes silent: the TTL sweep
	// must reap it as "est" drives the shard clock past its horizon.
	m.Push(Item{Session: "idle", Kind: KindPhase, Time: 0.10, Phi: 0})
	m.Push(Item{Session: "idle", Kind: KindPhase, Time: 0.12, Phi: 0})
	// "est" streams healthy CSI, starves into STALE, then recovers.
	ts := 0.0
	for i := 0; i < 1500; i++ {
		ts = float64(i) * 0.002
		m.Push(Item{Session: "est", Kind: KindPhase, Time: ts, Phi: math.Sin(ts * 6)})
	}
	ts += 2.0 // a gap past staleAfterS (and under the forward-jump cap)
	for i := 0; i < 600; i++ {
		tt := ts + float64(i)*0.002
		m.Push(Item{Session: "est", Kind: KindPhase, Time: tt, Phi: math.Sin(tt * 6)})
	}
	if err := m.CloseSession("est"); err != nil {
		t.Fatal(err)
	}
	m.CloseDrain()
	if err := jw.Close(); err != nil {
		t.Fatal(err)
	}

	snap := m.Counters().Snapshot()
	if snap.Estimates == 0 || snap.ToStale == 0 || snap.Recoveries == 0 {
		t.Fatalf("scenario did not exercise the machine: %+v", snap)
	}
	if snap.SessionsReaped != 1 || snap.SessionsClosed != 1 {
		t.Fatalf("reaped=%d closed=%d, want 1/1", snap.SessionsReaped, snap.SessionsClosed)
	}
	events := snap.Estimates + snap.ToDegraded + snap.ToCoasting + snap.ToStale +
		snap.Recoveries + snap.SessionsReaped + snap.SessionsClosed
	if snap.JournalAppended+snap.JournalDropped != events {
		t.Errorf("journal books broken: appended %d + dropped %d != events %d",
			snap.JournalAppended, snap.JournalDropped, events)
	}
	if snap.JournalDropped != 0 {
		t.Fatalf("queue sized for the run yet dropped %d", snap.JournalDropped)
	}
	if snap.JournalErrors != 0 {
		t.Fatalf("journal errors: %d", snap.JournalErrors)
	}

	res, err := journal.Recover(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
	if err != nil {
		t.Fatal(err)
	}
	if !res.CleanShutdown || res.Diag.Truncated {
		t.Fatalf("clean run recovered dirty: %+v", res.Diag)
	}
	if got := uint64(res.Counts[journal.KindEstimate]); got != snap.Estimates {
		t.Errorf("estimate records = %d, estimates = %d", got, snap.Estimates)
	}
	wantHealth := snap.ToDegraded + snap.ToCoasting + snap.ToStale + snap.Recoveries
	if got := uint64(res.Counts[journal.KindHealth]); got != wantHealth {
		t.Errorf("health records = %d, transitions = %d", got, wantHealth)
	}
	if res.Counts[journal.KindReap] != 1 || res.Counts[journal.KindClose] != 1 {
		t.Errorf("reap/close records = %d/%d", res.Counts[journal.KindReap], res.Counts[journal.KindClose])
	}

	// Terminal state agreement: the journal's last word on each session
	// is what the live manager last did.
	est := res.Sessions["est"]
	if est == nil || !est.Closed || est.Reaped {
		t.Fatalf("est state = %+v", est)
	}
	if estCount == 0 || !est.HasEstimate {
		t.Fatal("no estimates to compare")
	}
	if est.Estimate.T != lastEst.Time || est.Estimate.Yaw != lastEst.Yaw ||
		int(est.Estimate.Position) != lastEst.Position {
		t.Errorf("recovered last estimate %+v != live %+v", est.Estimate, lastEst)
	}
	idle := res.Sessions["idle"]
	if idle == nil || !idle.Reaped {
		t.Fatalf("idle state = %+v", idle)
	}
	if live := res.Live(); len(live) != 0 {
		t.Errorf("live sessions after recovery = %v", live)
	}
}

// TestJournalCloseRecordCarriesState pins the close record's payload:
// the session's last admitted clock and final health, read through
// the atomic mirrors CloseSession relies on.
func TestJournalCloseRecordCarriesState(t *testing.T) {
	var buf bytes.Buffer
	jw, err := journal.New(journal.Config{W: &buf})
	if err != nil {
		t.Fatal(err)
	}
	m := New(Config{Deterministic: true, Journal: jw})
	if err := m.Open("s", testProfile(t), core.DefaultPipelineConfig()); err != nil {
		t.Fatal(err)
	}
	m.Push(Item{Session: "s", Kind: KindPhase, Time: 1.0, Phi: 0})
	m.Push(Item{Session: "s", Kind: KindPhase, Time: 3.0, Phi: 0}) // gap: DEGRADED at least
	h, _ := m.Health("s")
	if err := m.CloseSession("s"); err != nil {
		t.Fatal(err)
	}
	m.Close()
	if err := jw.Close(); err != nil {
		t.Fatal(err)
	}
	res, err := journal.Recover(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
	if err != nil {
		t.Fatal(err)
	}
	s := res.Sessions["s"]
	if s == nil || !s.Closed {
		t.Fatalf("state = %+v", s)
	}
	if s.LastT != 3.0 {
		t.Errorf("close record clock = %v, want 3.0", s.LastT)
	}
	if Health(s.Health) != h {
		t.Errorf("close record health = %v, live %v", Health(s.Health), h)
	}
}

// TestJournalConcurrentHardClose runs real shard workers with the
// journal on: four goroutines push two sessions each into small
// queues, then the manager is hard-stopped with whatever backlog is
// still queued. Every estimate the sink saw must be in the journal,
// both conservation identities must hold, and the file must recover
// clean.
func TestJournalConcurrentHardClose(t *testing.T) {
	var buf bytes.Buffer
	jw, err := journal.New(journal.Config{W: &buf, QueueLen: 1 << 17})
	if err != nil {
		t.Fatal(err)
	}
	var sunk atomic.Uint64
	m := New(Config{
		Shards:     4,
		QueueLen:   1024,
		Journal:    jw,
		OnEstimate: func(string, core.Estimate) { sunk.Add(1) },
	})
	const pushers, items = 4, 2000
	prof := testProfile(t)
	for i := 0; i < 2*pushers; i++ {
		if err := m.Open(fmt.Sprintf("s%d", i), prof, core.DefaultPipelineConfig()); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for p := 0; p < pushers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			// Each pusher owns its two sessions: one writer per session.
			ids := []string{fmt.Sprintf("s%d", 2*p), fmt.Sprintf("s%d", 2*p+1)}
			for i := 0; i < items; i++ {
				ts := float64(i) * 0.002
				for _, id := range ids {
					m.Push(Item{Session: id, Kind: KindPhase, Time: ts, Phi: math.Sin(ts * 6)})
				}
			}
		}(p)
	}
	wg.Wait()
	m.Close()
	if err := jw.Close(); err != nil {
		t.Fatal(err)
	}

	snap := m.Counters().Snapshot()
	if snap.Estimates == 0 {
		t.Fatalf("no estimates: %+v", snap)
	}
	if got := snap.Processed + snap.DroppedStale + snap.DroppedUnknown + snap.DroppedClosed + snap.RejectedKind; got != snap.Total() {
		t.Fatalf("item books: total %d, accounted %d: %+v", snap.Total(), got, snap)
	}
	events := snap.Estimates + snap.ToDegraded + snap.ToCoasting + snap.ToStale +
		snap.Recoveries + snap.SessionsReaped + snap.SessionsClosed
	if snap.JournalAppended != events || snap.JournalDropped != 0 || snap.JournalErrors != 0 {
		t.Fatalf("journal books: appended %d dropped %d errors %d, events %d",
			snap.JournalAppended, snap.JournalDropped, snap.JournalErrors, events)
	}
	if sunk.Load() != snap.Estimates {
		t.Fatalf("sink saw %d estimates, counters say %d", sunk.Load(), snap.Estimates)
	}
	res, err := journal.Recover(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
	if err != nil {
		t.Fatal(err)
	}
	if !res.CleanShutdown || res.Diag.Truncated {
		t.Fatalf("clean close recovered dirty: %+v", res.Diag)
	}
	if got := uint64(res.Counts[journal.KindEstimate]); got != sunk.Load() {
		t.Fatalf("journal holds %d estimates, the sink saw %d", got, sunk.Load())
	}
}

// TestFlushCommitsJournalTail: Manager.Flush leaves nothing in the
// journal writer's memory. A run shorter than one default batch (64
// records, 0.25 s of stream time) is fully decodable from W once
// Flush returns, with workers and in deterministic mode, and closing
// the journal after CloseDrain still appends a clean trailer.
func TestFlushCommitsJournalTail(t *testing.T) {
	prof := testProfile(t)
	item := func(i int) Item {
		ts := float64(i) * 0.002
		return Item{Session: "s", Kind: KindPhase, Time: ts, Phi: math.Sin(ts * 6)}
	}
	// The prefix of the stream that yields ten estimates.
	var n, est int
	probe := New(Config{Deterministic: true, OnEstimate: func(string, core.Estimate) { est++ }})
	if err := probe.Open("s", prof, core.DefaultPipelineConfig()); err != nil {
		t.Fatal(err)
	}
	for ; est < 10; n++ {
		probe.Push(item(n))
	}
	probe.Close()

	for _, det := range []bool{true, false} {
		t.Run(fmt.Sprintf("deterministic=%v", det), func(t *testing.T) {
			var buf bytes.Buffer
			jw, err := journal.New(journal.Config{W: &buf})
			if err != nil {
				t.Fatal(err)
			}
			m := New(Config{Deterministic: det, Journal: jw})
			if err := m.Open("s", prof, core.DefaultPipelineConfig()); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < n; i++ {
				m.Push(item(i))
			}
			m.Flush()
			snap := m.Counters().Snapshot()
			if snap.Estimates != 10 || snap.JournalAppended == 0 || snap.JournalAppended >= 64 {
				t.Fatalf("%d estimates, %d records appended: want 10 estimates in a partial batch",
					snap.Estimates, snap.JournalAppended)
			}
			r := journal.NewReader(bytes.NewReader(buf.Bytes()))
			var got uint64
			for {
				if _, err := r.Next(); err == io.EOF {
					break
				} else if err != nil {
					t.Fatalf("record %d: %v", got, err)
				}
				got++
			}
			if got != snap.JournalAppended {
				t.Fatalf("W holds %d records after Flush, %d were appended", got, snap.JournalAppended)
			}

			m.CloseDrain()
			if err := jw.Close(); err != nil {
				t.Fatalf("closing the journal after CloseDrain: %v", err)
			}
			res, err := journal.Recover(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
			if err != nil {
				t.Fatal(err)
			}
			if !res.CleanShutdown || res.Records != int(got)+1 {
				t.Errorf("after Close: clean %v, %d records, want %d", res.CleanShutdown, res.Records, got+1)
			}
		})
	}
}
