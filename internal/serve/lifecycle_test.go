package serve_test

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"vihot/internal/core"
	"vihot/internal/csi"
	"vihot/internal/imu"
	"vihot/internal/obs"
	"vihot/internal/serve"
)

// phaseItems builds n monotone KindPhase items for one session,
// starting at t0 and spaced 2 ms apart — enough structure to be
// accepted by every admission guard without needing real CSI.
func phaseItems(id string, t0 float64, n int) []serve.Item {
	items := make([]serve.Item, 0, n)
	for i := 0; i < n; i++ {
		items = append(items, serve.Item{
			Session: id, Kind: serve.KindPhase,
			Time: t0 + float64(i)*0.002, Phi: 0.1,
		})
	}
	return items
}

// conservation asserts the post-shutdown identity of the acceptance
// criteria, with DroppedClosed folded in so it also holds after a
// hard Close that abandoned a backlog.
func conservation(t *testing.T, snap serve.CounterSnapshot) {
	t.Helper()
	want := snap.Processed + snap.DroppedStale + snap.DroppedUnknown +
		snap.DroppedClosed + snap.RejectedKind
	if snap.Total() != want {
		t.Fatalf("conservation violated: Total()=%d, processed=%d droppedStale=%d droppedUnknown=%d droppedClosed=%d rejectedKind=%d",
			snap.Total(), snap.Processed, snap.DroppedStale, snap.DroppedUnknown,
			snap.DroppedClosed, snap.RejectedKind)
	}
}

// TestPushAfterClose pins the shutdown intake contract: once Close
// returns, Push, PushBatch, and Open are all refused — counted in
// RejectedClosed (outside Total), never queued, never processed.
func TestPushAfterClose(t *testing.T) {
	f := getFixture(t)
	for _, det := range []bool{false, true} {
		t.Run(fmt.Sprintf("deterministic=%v", det), func(t *testing.T) {
			m := serve.New(serve.Config{Deterministic: det, Shards: 2})
			if err := m.Open("s", f.profile, core.DefaultPipelineConfig()); err != nil {
				t.Fatal(err)
			}
			for _, it := range phaseItems("s", 0, 10) {
				m.Push(it)
			}
			m.CloseDrain()
			before := m.Counters().Snapshot()

			m.Push(serve.Item{Session: "s", Kind: serve.KindPhase, Time: 1, Phi: 0})
			m.PushBatch(phaseItems("s", 2, 5))
			if err := m.Open("late", f.profile, core.DefaultPipelineConfig()); !errors.Is(err, serve.ErrClosed) {
				t.Fatalf("Open after Close = %v, want ErrClosed", err)
			}

			snap := m.Counters().Snapshot()
			if snap.RejectedClosed != before.RejectedClosed+6 {
				t.Fatalf("RejectedClosed = %d, want %d", snap.RejectedClosed, before.RejectedClosed+6)
			}
			if snap.Total() != before.Total() {
				t.Fatalf("Total moved on a closed manager: %d -> %d", before.Total(), snap.Total())
			}
			if snap.Processed != before.Processed {
				t.Fatalf("Processed moved on a closed manager: %d -> %d", before.Processed, snap.Processed)
			}
			if m.Sessions() != 0 {
				t.Fatalf("Sessions() = %d after Close, want 0", m.Sessions())
			}
			conservation(t, snap)
			if snap.DroppedClosed != 0 {
				t.Fatalf("CloseDrain abandoned %d items", snap.DroppedClosed)
			}
		})
	}
}

// TestCloseDrainConservation feeds a mixed stream — valid kinds,
// corrupt kinds, an unopened session — then drains to a stop and
// checks the acceptance-criteria identity exactly, plus the session
// gauge reading zero on the scrape registry.
func TestCloseDrainConservation(t *testing.T) {
	f := getFixture(t)
	reg := obs.NewRegistry()
	m := serve.New(serve.Config{Shards: 3, Metrics: reg})
	if err := m.Open("a", f.profile, core.DefaultPipelineConfig()); err != nil {
		t.Fatal(err)
	}
	if err := m.Open("b", f.profile, core.DefaultPipelineConfig()); err != nil {
		t.Fatal(err)
	}

	batch := phaseItems("a", 0, 200)
	batch = append(batch, phaseItems("b", 0, 200)...)
	batch = append(batch, phaseItems("ghost", 0, 50)...) // never opened
	batch = append(batch, serve.Item{Session: "a", Kind: serve.ItemKind(9)})
	batch = append(batch, serve.Item{Session: "b", Kind: serve.ItemKind(200)})
	m.PushBatch(batch)
	for _, it := range phaseItems("a", 1, 50) {
		m.Push(it)
	}
	m.Push(serve.Item{Session: "a", Kind: serve.ItemKind(42)})

	m.CloseDrain()
	snap := m.Counters().Snapshot()
	if want := uint64(len(batch)) + 51; snap.Total() != want {
		t.Fatalf("Total() = %d, want %d (every push accounted for)", snap.Total(), want)
	}
	if snap.RejectedKind != 3 {
		t.Fatalf("RejectedKind = %d, want 3", snap.RejectedKind)
	}
	if snap.DroppedUnknown != 50 {
		t.Fatalf("DroppedUnknown = %d, want 50", snap.DroppedUnknown)
	}
	if snap.DroppedClosed != 0 || snap.DroppedStale != 0 {
		t.Fatalf("drain dropped items: %+v", snap)
	}
	// The acceptance identity, without the DroppedClosed term: a drain
	// abandons nothing.
	if snap.Total() != snap.Processed+snap.DroppedStale+snap.DroppedUnknown+snap.RejectedKind {
		t.Fatalf("acceptance identity violated: %+v", snap)
	}
	if m.Sessions() != 0 {
		t.Fatalf("Sessions() = %d, want 0", m.Sessions())
	}
	if g := reg.Gauge("vihot_serve_sessions_open", "currently open tracking sessions").Value(); g != 0 {
		t.Fatalf("vihot_serve_sessions_open = %v after CloseDrain, want 0", g)
	}
	// Idempotent: a second drain (or close) changes nothing.
	m.CloseDrain()
	m.Close()
	if again := m.Counters().Snapshot(); again != snap {
		t.Fatalf("re-close moved counters: %+v -> %+v", snap, again)
	}
}

// TestHardCloseAccountsBacklog closes without flushing while the
// queues are still deep: whatever the workers had not yet processed
// must land in DroppedClosed, keeping Total conserved, and the
// session registry must still empty out.
func TestHardCloseAccountsBacklog(t *testing.T) {
	f := getFixture(t)
	m := serve.New(serve.Config{Shards: 1, QueueLen: 1 << 15})
	if err := m.Open("s", f.profile, core.DefaultPipelineConfig()); err != nil {
		t.Fatal(err)
	}
	items := phaseItems("s", 0, 20000)
	m.PushBatch(items)
	m.Close() // no flush: races the worker on purpose

	snap := m.Counters().Snapshot()
	if snap.Total() != uint64(len(items)) {
		t.Fatalf("Total() = %d, want %d", snap.Total(), len(items))
	}
	conservation(t, snap)
	if m.Sessions() != 0 {
		t.Fatalf("Sessions() = %d after hard Close, want 0", m.Sessions())
	}
	t.Logf("hard close: processed=%d abandoned=%d", snap.Processed, snap.DroppedClosed)
}

// TestPushCloseRace runs pushers into one session while another
// goroutine hard-closes the manager: nothing may panic, every item
// accepted before the close is processed or counted dropped, and every
// item refused after it lands in RejectedClosed.
func TestPushCloseRace(t *testing.T) {
	f := getFixture(t)
	const perPusher = 500
	for trial := 0; trial < 20; trial++ {
		m := serve.New(serve.Config{Shards: 2, QueueLen: 64})
		if err := m.Open("car-0", f.profile, core.DefaultPipelineConfig()); err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		start := make(chan struct{})
		for w := 0; w < 3; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				items := phaseItems("car-0", 0, perPusher)
				<-start
				if w == 0 {
					for _, it := range items {
						m.Push(it)
					}
					return
				}
				for i := 0; i < len(items); i += 16 {
					m.PushBatch(items[i:min(i+16, len(items))])
				}
			}(w)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			// Close mid-stream: once a third of the items are in, so
			// the close lands on a live backlog with pushes still due.
			for m.Counters().Snapshot().Total() < perPusher {
				runtime.Gosched()
			}
			m.Close()
		}()
		close(start)
		wg.Wait()
		snap := m.Counters().Snapshot()
		conservation(t, snap)
		if got := snap.Total() + snap.RejectedClosed; got != 3*perPusher {
			t.Fatalf("trial %d: accepted %d + refused %d = %d, want %d pushed",
				trial, snap.Total(), snap.RejectedClosed, got, 3*perPusher)
		}
	}
}

// TestRejectedKindTable is the satellite's table test: every valid
// kind routes, every invalid kind is refused at the door with
// RejectedKind counted — and Total() still covers it, so one corrupt
// byte can no longer break conservation.
func TestRejectedKindTable(t *testing.T) {
	f := getFixture(t)
	cases := []struct {
		name       string
		kind       serve.ItemKind
		wantReject bool
	}{
		{"phase", serve.KindPhase, false},
		{"frame", serve.KindFrame, false},
		{"imu", serve.KindIMU, false},
		{"camera", serve.KindCamera, false},
		{"one-past-camera", serve.KindCamera + 1, true},
		{"bit-flipped", serve.ItemKind(0x42), true},
		{"all-ones", serve.ItemKind(0xff), true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := serve.New(serve.Config{Deterministic: true})
			defer m.Close()
			if err := m.Open("s", f.profile, core.DefaultPipelineConfig()); err != nil {
				t.Fatal(err)
			}
			it := serve.Item{Session: "s", Kind: tc.kind, Time: 1, Phi: 0,
				IMU: imu.Reading{Time: 1}}
			if tc.kind == serve.KindFrame {
				it.Frame = &csi.Frame{Time: 1, H: [][]complex128{{1, 1i}, {1i, 1}}}
			}
			m.Push(it)
			m.PushBatch([]serve.Item{it}) // batch path must agree
			snap := m.Counters().Snapshot()
			if tc.wantReject {
				if snap.RejectedKind != 2 || snap.Processed != 0 {
					t.Fatalf("RejectedKind=%d Processed=%d, want 2/0", snap.RejectedKind, snap.Processed)
				}
			} else {
				if snap.RejectedKind != 0 || snap.Processed != 2 {
					t.Fatalf("RejectedKind=%d Processed=%d, want 0/2", snap.RejectedKind, snap.Processed)
				}
			}
			if snap.Total() != 2 {
				t.Fatalf("Total() = %d, want 2", snap.Total())
			}
			conservation(t, snap)
		})
	}
}

// TestNilFrameRejected: a KindFrame item with a nil Frame is refused at
// push and counted in RejectedKind, on the single-item and the batch
// path, by a deterministic and a concurrent manager with an open
// session. It used to be accepted and to panic the worker that
// sanitized it.
func TestNilFrameRejected(t *testing.T) {
	f := getFixture(t)
	for _, deterministic := range []bool{true, false} {
		m := serve.New(serve.Config{Deterministic: deterministic, Shards: 2})
		if err := m.Open("s", f.profile, core.DefaultPipelineConfig()); err != nil {
			t.Fatal(err)
		}
		nilFrame := serve.Item{Session: "s", Kind: serve.KindFrame, Time: 1}
		m.Push(nilFrame)
		m.PushBatch(append(phaseItems("s", 0, 20), nilFrame))
		m.CloseDrain()
		snap := m.Counters().Snapshot()
		if snap.RejectedKind != 2 || snap.FramesIn != 0 || snap.Processed != 20 {
			t.Fatalf("deterministic=%v: RejectedKind=%d FramesIn=%d Processed=%d, want 2/0/20",
				deterministic, snap.RejectedKind, snap.FramesIn, snap.Processed)
		}
		if snap.Total() != 22 {
			t.Fatalf("deterministic=%v: Total() = %d, want 22", deterministic, snap.Total())
		}
		conservation(t, snap)
	}
}

// TestOpenCloseRace races session opens against Close: every Open
// must either fully register (and be purged by Close, keeping the
// count consistent) or be refused with ErrClosed — under -race this
// also proves the registration/purge locking. Regression for the seed
// bug where Open could register onto an already-closed shard whose
// worker had exited.
func TestOpenCloseRace(t *testing.T) {
	f := getFixture(t)
	for round := 0; round < 8; round++ {
		m := serve.New(serve.Config{Shards: 4})
		var wg sync.WaitGroup
		start := make(chan struct{})
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				<-start
				for i := 0; i < 16; i++ {
					id := fmt.Sprintf("s-%d-%d", g, i)
					err := m.Open(id, f.profile, core.DefaultPipelineConfig())
					if err != nil && !errors.Is(err, serve.ErrClosed) {
						t.Errorf("Open(%s) = %v", id, err)
					}
					m.Push(serve.Item{Session: id, Kind: serve.KindPhase, Time: 1, Phi: 0})
				}
			}(g)
		}
		close(start)
		m.Close()
		wg.Wait()
		// Everything that registered was purged; late opens refused.
		if n := m.Sessions(); n != 0 {
			t.Fatalf("round %d: Sessions() = %d after Close, want 0", round, n)
		}
		if err := m.Open("late", f.profile, core.DefaultPipelineConfig()); !errors.Is(err, serve.ErrClosed) {
			t.Fatalf("round %d: Open after Close = %v", round, err)
		}
		conservation(t, m.Counters().Snapshot())
	}
}

// TestCloseSessionVsWorkerDrain churns sessions open/closed while a
// pusher keeps their shard's queue fed: items that outlive their
// session drain as DroppedUnknown, the counters conserve, and -race
// gets a real interleaving of registry mutation vs worker resolution.
func TestCloseSessionVsWorkerDrain(t *testing.T) {
	f := getFixture(t)
	m := serve.New(serve.Config{Shards: 2, QueueLen: 256})
	defer m.Close()

	const churns = 40
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // churner: open/close the same two ids repeatedly
		defer wg.Done()
		for i := 0; i < churns; i++ {
			for _, id := range []string{"x", "y"} {
				if err := m.Open(id, f.profile, core.DefaultPipelineConfig()); err != nil {
					t.Errorf("Open(%s): %v", id, err)
					return
				}
			}
			for _, id := range []string{"x", "y"} {
				if err := m.CloseSession(id); err != nil {
					t.Errorf("CloseSession(%s): %v", id, err)
					return
				}
			}
		}
	}()
	var pushed uint64
	go func() { // pusher: keeps both ids' items flowing regardless
		defer wg.Done()
		for i := 0; i < churns*50; i++ {
			t0 := float64(i) * 0.002
			m.PushBatch([]serve.Item{
				{Session: "x", Kind: serve.KindPhase, Time: t0, Phi: 0},
				{Session: "y", Kind: serve.KindPhase, Time: t0, Phi: 0},
			})
			pushed += 2
		}
	}()
	wg.Wait()
	m.Flush()
	snap := m.Counters().Snapshot()
	if snap.Total() != pushed {
		t.Fatalf("Total() = %d, want %d", snap.Total(), pushed)
	}
	conservation(t, snap)
	if m.Sessions() != 0 {
		t.Fatalf("Sessions() = %d, want 0 (all churned closed)", m.Sessions())
	}
	if err := m.CloseSession("x"); !errors.Is(err, serve.ErrUnknownSession) {
		t.Fatalf("double CloseSession = %v, want ErrUnknownSession", err)
	}
}

// TestRecycleEquivalence proves frame pooling is invisible to the
// results: the raw-frame fixture stream produces identical estimates
// with RecycleFrames on and off. The recycled run pushes cloned
// frames (ownership transfers to the manager; the fixture's are
// shared), which is exactly the contract real pooled ingest honours.
func TestRecycleEquivalence(t *testing.T) {
	f := getFixture(t)
	run := func(recycle bool) map[string][]core.Estimate {
		col := newCollector()
		m := serve.New(serve.Config{
			Deterministic: true,
			RecycleFrames: recycle,
			OnEstimate:    col.sink,
		})
		defer m.Close()
		if err := m.Open("driver-b", f.profile, core.DefaultPipelineConfig()); err != nil {
			t.Fatal(err)
		}
		for _, it := range f.streams["driver-b"] {
			if it.Frame != nil {
				it.Frame = it.Frame.Clone()
			}
			m.Push(it)
		}
		return col.got
	}
	off := run(false)
	on := run(true)
	if len(off["driver-b"]) == 0 {
		t.Fatal("raw-frame stream produced no estimates")
	}
	assertSameEstimates(t, "recycle", off, on)
}
