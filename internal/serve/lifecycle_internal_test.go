package serve

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vihot/internal/core"
	"vihot/internal/csi"
)

// testFrame builds a small sanitizable frame.
func testFrame(t float64) *csi.Frame {
	return &csi.Frame{Time: t, H: [][]complex128{
		{1 + 1i, 1 - 1i, 2, 1i},
		{1, 1i, 1 + 2i, -1},
	}}
}

// TestTTLNotPositiveNeverArmsSweep: a SessionTTLS that is not > 0 —
// negative or NaN — disables reaping, so no shard ever arms its idle
// sweep. A NaN TTL used to arm one at clock+NaN, which fell due on
// every processed item and walked the session map each time.
func TestTTLNotPositiveNeverArmsSweep(t *testing.T) {
	for _, ttl := range []float64{math.NaN(), -1} {
		m := New(Config{Deterministic: true, SessionTTLS: ttl})
		pushSweep(t, m, "s", 50)
		for i, sh := range m.shards {
			if sh.haveClock || sh.nextSweep != 0 {
				t.Errorf("TTL %v: shard %d armed its sweep (haveClock=%v nextSweep=%v)",
					ttl, i, sh.haveClock, sh.nextSweep)
			}
		}
		m.Close()
	}
}

// TestWorkerZeroesDrainedRingSlots pins the frame-retention fix: after
// the worker drains a chunk, the ring slots it copied from must be
// zeroed, not left holding stale Items whose *csi.Frame pointers would
// stay pinned until the slot happened to be overwritten.
func TestWorkerZeroesDrainedRingSlots(t *testing.T) {
	m := New(Config{Shards: 1, QueueLen: 64})
	defer m.Close()

	// No session opened: every item drains as DroppedUnknown, which is
	// fine — the ring mechanics are what is under test.
	for i := 0; i < 40; i++ {
		m.Push(Item{Session: "ghost", Kind: KindFrame, Frame: testFrame(float64(i))})
	}
	m.Flush()

	sh := m.shards[0]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.count != 0 {
		t.Fatalf("queue not drained: count=%d", sh.count)
	}
	for i, it := range sh.ring {
		if it != (Item{}) {
			t.Fatalf("ring slot %d not zeroed after drain: %+v", i, it)
		}
	}
}

// TestRingDoesNotPinFrames is the heap-regression guard for the same
// bug, from the allocator's point of view: frames pushed through a
// shard must become collectable once processed. Before the fix the
// drained-but-unzeroed ring slots kept every frame of the last
// QueueLen items alive indefinitely.
func TestRingDoesNotPinFrames(t *testing.T) {
	m := New(Config{Shards: 1, QueueLen: 256})
	defer m.Close()

	const n = 64
	var collected atomic.Int32
	for i := 0; i < n; i++ {
		f := testFrame(float64(i))
		runtime.SetFinalizer(f, func(*csi.Frame) { collected.Add(1) })
		m.Push(Item{Session: "ghost", Kind: KindFrame, Frame: f})
	}
	m.Flush()

	deadline := time.Now().Add(5 * time.Second)
	for collected.Load() < n && time.Now().Before(deadline) {
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
	if got := collected.Load(); got < n {
		t.Fatalf("only %d/%d frames were collectable after processing; the ring is pinning frames", got, n)
	}
}

// TestEnqueueShedReleasesPooledFrame checks the load-shedding release
// point: with recycling on, the frame of a shed (stalest) item goes
// back to the csi pool instead of leaking to nowhere.
func TestEnqueueShedReleasesPooledFrame(t *testing.T) {
	sh := &shard{ring: make([]Item, 2), recycle: true}
	sh.cond = sync.NewCond(&sh.mu)

	var fin atomic.Int32
	f := csi.GetFrame(2, 4)
	runtime.SetFinalizer(f, func(*csi.Frame) { fin.Add(1) })
	sh.push(Item{Kind: KindFrame, Frame: f})
	sh.push(Item{Kind: KindPhase, Time: 1})
	// Ring full: this push sheds the frame item.
	if dropped, _ := sh.push(Item{Kind: KindPhase, Time: 2}); !dropped {
		t.Fatal("full ring did not shed")
	}
	// The shed frame went back to the pool, so the ring no longer
	// references it: once our own handle drops, nothing pins it but
	// the pool's caches, which the GC clears (over two cycles). Had
	// enqueue leaked the shed item's frame into the overwritten slot's
	// limbo instead of releasing it, this would still pass — but had
	// it *retained* it (no release, slot referenced), it cannot.
	f = nil
	deadline := time.Now().Add(5 * time.Second)
	for fin.Load() == 0 && time.Now().Before(deadline) {
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
	if fin.Load() != 1 {
		t.Fatal("shed pooled frame still pinned after shed + GC")
	}
}

// TestCameraCoastCarriesPosition pins the satellite fix: the camera
// branch of maybeCoast must carry the last tracked seat position, like
// the forecast branch always has, so fused output does not flicker the
// position to zero whenever coasting switches to the camera.
func TestCameraCoastCarriesPosition(t *testing.T) {
	var got []core.Estimate
	m := New(Config{
		Deterministic: true,
		OnEstimate:    func(id string, est core.Estimate) { got = append(got, est) },
	})
	defer m.Close()

	s := &session{
		id: "s", h: Coasting,
		haveCam: true, lastCam: 10.0, camYaw: 0.4,
		hasEst: true,
		lastEst: core.Estimate{
			Time: 9.0, Yaw: 0.1, Position: 3, Source: core.SourceCSI,
		},
	}
	m.maybeCoast(s, 10.05)

	if len(got) != 1 {
		t.Fatalf("maybeCoast emitted %d estimates, want 1", len(got))
	}
	est := got[0]
	if est.Source != core.SourceCamera {
		t.Fatalf("Source = %v, want camera (camera is fresh)", est.Source)
	}
	if est.Yaw != 0.4 {
		t.Fatalf("Yaw = %v, want the camera's 0.4", est.Yaw)
	}
	if est.Position != 3 {
		t.Fatalf("Position = %d, want 3 (last tracked position carried through camera coasting)", est.Position)
	}
}
