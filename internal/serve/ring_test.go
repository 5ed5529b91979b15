package serve

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"vihot/internal/core"
)

// TestShardRingShedsOldest pins the load-shedding contract: a full
// queue drops the stalest item, keeps FIFO order for the rest, and
// reports the drop to the caller.
func TestShardRingShedsOldest(t *testing.T) {
	sh := &shard{ring: make([]Item, 4)}
	sh.cond = sync.NewCond(&sh.mu)

	for i := 0; i < 4; i++ {
		dropped, closed := sh.push(Item{Time: float64(i)})
		if dropped || closed {
			t.Fatalf("push %d: dropped=%v closed=%v with queue not full and shard open", i, dropped, closed)
		}
	}
	// Two overflowing pushes shed the two oldest items (t=0, t=1).
	for i := 4; i < 6; i++ {
		dropped, closed := sh.push(Item{Time: float64(i)})
		if !dropped || closed {
			t.Fatalf("push %d: dropped=%v closed=%v, want a reported drop on a full open shard", i, dropped, closed)
		}
	}
	if sh.count != 4 {
		t.Fatalf("count = %d, want 4", sh.count)
	}
	for i := 0; i < 4; i++ {
		got := sh.ring[(sh.head+i)%len(sh.ring)].Time
		if want := float64(i + 2); got != want {
			t.Fatalf("queue[%d].Time = %v, want %v (oldest must be shed first)", i, got, want)
		}
	}
}

// TestProducerConcurrentConservation runs several batching producer
// goroutines and one item-at-a-time pusher into the same shards, with
// one corrupt-kind item riding along and one unknown-session item
// pushed last, so every accounting branch runs. After CloseDrain every item
// counted in must be processed or counted dropped.
func TestProducerConcurrentConservation(t *testing.T) {
	m := New(Config{Shards: 4, QueueLen: 256})
	const sessions = 8
	for s := 0; s < sessions; s++ {
		if err := m.Open(fmt.Sprintf("car-%d", s), testProfile(t), core.DefaultPipelineConfig()); err != nil {
			t.Fatal(err)
		}
	}
	const producers = 4
	const perProducer = 3000
	var wg sync.WaitGroup
	for w := 0; w < producers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			batch := make([]Item, 0, 32)
			for i := 0; i < perProducer; i++ {
				ts := float64(i) * 0.002
				batch = append(batch, Item{
					Session: fmt.Sprintf("car-%d", (w*perProducer+i)%sessions),
					Kind:    KindPhase, Time: ts, Phi: math.Sin(ts * 6),
				})
				if len(batch) == cap(batch) {
					m.PushBatch(batch)
					batch = batch[:0]
				}
			}
			m.PushBatch(batch)
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 2000; i++ {
			ts := float64(i) * 0.002
			m.Push(Item{Session: fmt.Sprintf("car-%d", i%sessions), Kind: KindPhase, Time: ts, Phi: math.Cos(ts * 5)})
		}
		m.Push(Item{Session: "car-0", Kind: ItemKind(200)})
	}()
	wg.Wait()
	// Pushed after the producers stop, so no later push can shed it: it
	// must reach a worker and count as DroppedUnknown.
	m.Push(Item{Session: "ghost", Kind: KindPhase, Time: 1, Phi: 0})
	m.CloseDrain()
	snap := m.Counters().Snapshot()
	if got, want := snap.Total(), uint64(producers*perProducer+2000+2); got != want {
		t.Fatalf("items counted in = %d, want %d (%+v)", got, want, snap)
	}
	want := snap.Processed + snap.DroppedStale + snap.DroppedUnknown +
		snap.DroppedClosed + snap.RejectedKind
	if snap.Total() != want {
		t.Fatalf("conservation violated: Total=%d, accounted=%d (%+v)", snap.Total(), want, snap)
	}
	if snap.PhasesIn == 0 || snap.Processed == 0 || snap.Estimates == 0 {
		t.Fatalf("no traffic made it through: %+v", snap)
	}
	if snap.RejectedKind != 1 || snap.DroppedUnknown < 1 {
		t.Fatalf("accounting branches unexercised: %+v", snap)
	}
}
