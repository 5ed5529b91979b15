package serve_test

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"vihot/internal/core"
	"vihot/internal/journal"
	"vihot/internal/serve"
)

// TestOnEventMatchesJournal pins the one event path: OnEvent receives
// exactly the non-estimate records the journal writes — same order,
// same fields — across a CSI blackout, an idle-TTL reap and an
// explicit close, and the journal books balance against the counters.
func TestOnEventMatchesJournal(t *testing.T) {
	f := getFixture(t)
	var buf bytes.Buffer
	jw, err := journal.New(journal.Config{W: &buf, QueueLen: 1 << 16})
	if err != nil {
		t.Fatal(err)
	}
	var events []journal.Record
	m := serve.New(serve.Config{
		Deterministic: true,
		Journal:       jw,
		SessionTTLS:   1.0,
		OnEvent:       func(rec journal.Record) { events = append(events, rec) },
	})
	for _, id := range []string{"gap", "idle"} {
		if err := m.Open(id, f.profile, core.DefaultPipelineConfig()); err != nil {
			t.Fatal(err)
		}
	}
	// "idle" admits two early samples and goes silent, so the sweep
	// reaps it while "gap" rides out its blackout.
	m.Push(serve.Item{Session: "idle", Kind: serve.KindPhase, Time: 0.10, Phi: 0})
	m.Push(serve.Item{Session: "idle", Kind: serve.KindPhase, Time: 0.12, Phi: 0})
	for _, it := range gapStream("gap", 4.6, 2.0, 4.0) {
		m.Push(it)
	}
	if err := m.CloseSession("gap"); err != nil {
		t.Fatal(err)
	}
	m.CloseDrain()
	if err := jw.Close(); err != nil {
		t.Fatal(err)
	}

	var journaled []journal.Record
	r := journal.NewReader(&buf)
	for {
		rec, err := r.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if rec.Kind != journal.KindEstimate && rec.Kind != journal.KindShutdown {
			journaled = append(journaled, rec)
		}
	}
	if len(events) != len(journaled) {
		t.Fatalf("OnEvent saw %d events, journal holds %d", len(events), len(journaled))
	}
	kinds := map[journal.Kind]int{}
	for i := range events {
		if events[i] != journaled[i] {
			t.Fatalf("event %d: OnEvent %+v, journal %+v", i, events[i], journaled[i])
		}
		kinds[events[i].Kind]++
	}
	if kinds[journal.KindHealth] == 0 || kinds[journal.KindReap] != 1 || kinds[journal.KindClose] != 1 {
		t.Fatalf("event kinds = %v, want transitions, 1 reap and 1 close", kinds)
	}
	if last := events[len(events)-1]; last.Kind != journal.KindClose || last.Session != "gap" {
		t.Fatalf("last event = %+v, want gap's close", last)
	}

	snap := m.Counters().Snapshot()
	if got := uint64(kinds[journal.KindHealth]); got != snap.ToDegraded+snap.ToCoasting+snap.ToStale+snap.Recoveries {
		t.Errorf("%d health events, counters %+v", got, snap)
	}
	booked := snap.Estimates + snap.ToDegraded + snap.ToCoasting + snap.ToStale +
		snap.Recoveries + snap.SessionsReaped + snap.SessionsClosed
	if snap.JournalAppended+snap.JournalDropped != booked || snap.JournalDropped != 0 {
		t.Errorf("journal books: appended %d + dropped %d, events %d",
			snap.JournalAppended, snap.JournalDropped, booked)
	}

	// Without a journal, OnEvent alone must keep the clock mirror that
	// close records read.
	t.Run("Journal=nil", func(t *testing.T) {
		var last journal.Record
		m := serve.New(serve.Config{
			Deterministic: true,
			OnEvent:       func(rec journal.Record) { last = rec },
		})
		defer m.Close()
		if err := m.Open("s", f.profile, core.DefaultPipelineConfig()); err != nil {
			t.Fatal(err)
		}
		m.Push(serve.Item{Session: "s", Kind: serve.KindPhase, Time: 1.0, Phi: 0})
		m.Push(serve.Item{Session: "s", Kind: serve.KindPhase, Time: 3.0, Phi: 0})
		h, _ := m.Health("s")
		if err := m.CloseSession("s"); err != nil {
			t.Fatal(err)
		}
		if last.Kind != journal.KindClose || last.Session != "s" {
			t.Fatalf("last event = %+v, want the close", last)
		}
		if last.T != 3.0 {
			t.Errorf("close record T = %v, want the last admitted timestamp 3.0", last.T)
		}
		if serve.Health(last.Health) != h {
			t.Errorf("close record health = %v, live %v", serve.Health(last.Health), h)
		}
	})
}
