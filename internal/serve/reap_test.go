package serve_test

import (
	"sync"
	"testing"

	"vihot/internal/core"
	"vihot/internal/journal"
	"vihot/internal/serve"
)

// reapEvent is one recorded KindReap event.
type reapEvent struct {
	id string
	t  float64
}

// reapLog collects KindReap events, safe for worker goroutines.
type reapLog struct {
	mu     sync.Mutex
	events []reapEvent
}

func (l *reapLog) onEvent(rec journal.Record) {
	if rec.Kind != journal.KindReap {
		return
	}
	l.mu.Lock()
	l.events = append(l.events, reapEvent{rec.Session, rec.T})
	l.mu.Unlock()
}

func (l *reapLog) snapshot() []reapEvent {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]reapEvent(nil), l.events...)
}

// TestReapDeterministicReplay is the acceptance test for stream-time
// reaping: two deterministic replays of one item sequence must evict
// the same sessions at the same stream times — bit-identical reap
// points, because the sweep reads only session clocks, never a wall
// clock.
func TestReapDeterministicReplay(t *testing.T) {
	f := getFixture(t)
	run := func() ([]reapEvent, serve.CounterSnapshot, int) {
		log := &reapLog{}
		m := serve.New(serve.Config{
			Deterministic: true,
			SessionTTLS:   2.0,
			OnEvent:       log.onEvent,
		})
		defer m.Close()
		for _, id := range []string{"live", "idle-1", "idle-2"} {
			if err := m.Open(id, f.profile, core.DefaultPipelineConfig()); err != nil {
				t.Fatal(err)
			}
		}
		// The idle sessions admit a couple of early samples, then go
		// silent; the live session streams on past their TTL horizon.
		for _, id := range []string{"idle-1", "idle-2"} {
			m.Push(serve.Item{Session: id, Kind: serve.KindPhase, Time: 0.10, Phi: 0})
			m.Push(serve.Item{Session: id, Kind: serve.KindPhase, Time: 0.12, Phi: 0})
		}
		for i := 0; i < 4000; i++ {
			m.Push(serve.Item{Session: "live", Kind: serve.KindPhase,
				Time: 0.2 + float64(i)*0.002, Phi: 0})
		}
		return log.snapshot(), m.Counters().Snapshot(), m.Sessions()
	}

	evA, snapA, openA := run()
	evB, snapB, openB := run()

	if len(evA) != 2 {
		t.Fatalf("reaped %d sessions %v, want the 2 idle ones", len(evA), evA)
	}
	// Sorted callback order: idle-1 before idle-2, same sweep time.
	if evA[0].id != "idle-1" || evA[1].id != "idle-2" {
		t.Fatalf("reap order %v, want [idle-1 idle-2] (sorted within a sweep)", evA)
	}
	if evA[0].t != evA[1].t {
		t.Fatalf("one sweep produced two reap times: %v", evA)
	}
	// The sweep fired past the idle horizon (idle since 0.12, TTL 2.0)
	// and not implausibly late (sweep cadence is TTL/4).
	if evA[0].t < 2.12 || evA[0].t > 2.12+0.5+0.01 {
		t.Fatalf("reap fired at stream time %v, want within (2.12, 2.63]", evA[0].t)
	}
	if snapA.SessionsReaped != 2 {
		t.Fatalf("SessionsReaped = %d, want 2", snapA.SessionsReaped)
	}
	if openA != 1 {
		t.Fatalf("Sessions() = %d after reap, want 1 (only the live one)", openA)
	}

	// Replay-identical: same events, same counters, same registry.
	if len(evA) != len(evB) || openA != openB {
		t.Fatalf("replays diverged: %v/%d vs %v/%d", evA, openA, evB, openB)
	}
	for i := range evA {
		if evA[i] != evB[i] {
			t.Fatalf("reap event %d differs across replays: %+v vs %+v", i, evA[i], evB[i])
		}
	}
	if snapA != snapB {
		t.Fatalf("replay counters differ:\n%+v\n%+v", snapA, snapB)
	}
}

// TestReapNeverFedSession covers the grace anchor: a session that was
// opened but never admitted an item has no clock, so it is granted one
// full TTL from the first sweep that sees it — then evicted.
func TestReapNeverFedSession(t *testing.T) {
	f := getFixture(t)
	log := &reapLog{}
	m := serve.New(serve.Config{
		Deterministic: true,
		SessionTTLS:   1.0,
		OnEvent:       log.onEvent,
	})
	defer m.Close()
	for _, id := range []string{"live", "never-fed"} {
		if err := m.Open(id, f.profile, core.DefaultPipelineConfig()); err != nil {
			t.Fatal(err)
		}
	}
	push := func(ts float64) {
		m.Push(serve.Item{Session: "live", Kind: serve.KindPhase, Time: ts, Phi: 0})
	}
	push(0.0)
	push(0.3) // first sweep due at 0.25 fires here, anchoring never-fed at 0.3
	if ev := log.snapshot(); len(ev) != 0 {
		t.Fatalf("reaped before any TTL could elapse: %v", ev)
	}
	push(1.0) // idle 0.7 < TTL: still within grace
	if ev := log.snapshot(); len(ev) != 0 {
		t.Fatalf("never-fed session reaped inside its grace TTL: %v", ev)
	}
	push(1.5) // idle 1.2 > TTL since the 0.3 anchor: evicted
	ev := log.snapshot()
	if len(ev) != 1 || ev[0].id != "never-fed" {
		t.Fatalf("reap log = %v, want exactly never-fed", ev)
	}
	if m.Sessions() != 1 {
		t.Fatalf("Sessions() = %d, want 1", m.Sessions())
	}
	// Items addressed to the reaped session now count DroppedUnknown,
	// exactly like a CloseSession'd one.
	m.Push(serve.Item{Session: "never-fed", Kind: serve.KindPhase, Time: 2, Phi: 0})
	if snap := m.Counters().Snapshot(); snap.DroppedUnknown != 1 {
		t.Fatalf("DroppedUnknown = %d after pushing to a reaped session, want 1", snap.DroppedUnknown)
	}
}

// TestReapConcurrentSmoke exercises the sweep under real workers (and
// -race): many sessions, half going idle, reaping driven purely by the
// live half's stream progress.
func TestReapConcurrentSmoke(t *testing.T) {
	f := getFixture(t)
	log := &reapLog{}
	// QueueLen holds the whole stream: shedding here would not just
	// mute sessions, it could skip one past the +5 s forward-jump
	// guard and wedge its clock — making a "live" session legitimately
	// idle. Reap behavior under load shedding is not what this test
	// pins.
	m := serve.New(serve.Config{
		Shards:      2,
		QueueLen:    1 << 15,
		SessionTTLS: 1.0,
		OnEvent:     log.onEvent,
	})
	defer m.Close()
	ids := []string{"a", "b", "c", "d", "e", "f"}
	for _, id := range ids {
		if err := m.Open(id, f.profile, core.DefaultPipelineConfig()); err != nil {
			t.Fatal(err)
		}
	}
	// One pusher interleaving all sessions round-robin, the shape a
	// receiver loop produces: live sessions advance in lock-step (so
	// none can fall a TTL behind its shard-mates and be reaped by
	// scheduling luck), idle ones simply stop appearing after t=0.1.
	var batch []serve.Item
	for i := 0; i < 3000; i++ {
		for _, id := range ids {
			if id >= "d" && i >= 50 {
				continue // idle half went out of range
			}
			batch = append(batch, serve.Item{Session: id, Kind: serve.KindPhase,
				Time: float64(i) * 0.002, Phi: 0})
		}
		if len(batch) >= 64 {
			m.PushBatch(batch)
			batch = batch[:0]
		}
	}
	m.PushBatch(batch)
	m.Flush()

	snap := m.Counters().Snapshot()
	reaped := map[string]bool{}
	for _, ev := range log.snapshot() {
		reaped[ev.id] = true
	}
	for _, id := range []string{"d", "e", "f"} {
		if !reaped[id] {
			t.Errorf("idle session %s not reaped (events %v)", id, log.snapshot())
		}
	}
	for _, id := range []string{"a", "b", "c"} {
		if reaped[id] {
			t.Errorf("live session %s was reaped", id)
		}
	}
	if snap.SessionsReaped != uint64(len(log.snapshot())) {
		t.Fatalf("SessionsReaped=%d but %d callbacks", snap.SessionsReaped, len(log.snapshot()))
	}
	if m.Sessions() != 3 {
		t.Fatalf("Sessions() = %d, want the 3 live ones", m.Sessions())
	}
	m.CloseDrain()
	final := m.Counters().Snapshot()
	if final.Total() != final.Processed+final.DroppedStale+final.DroppedUnknown+final.RejectedKind {
		t.Fatalf("conservation violated after drain: %+v", final)
	}
}
