package faults_test

import (
	"fmt"
	"sort"
	"sync"
	"testing"

	"vihot/internal/core"
	"vihot/internal/faults"
	"vihot/internal/journal"
	"vihot/internal/scenario"
	"vihot/internal/serve"
)

// soakDurationS is the simulated drive length per session. The fault
// schedule below places every episode well inside it.
const soakDurationS = 32

// soakSessions is how many concurrent sessions the soak drives,
// apportioned across the mix by weight.
const soakSessions = 4

// soakConfig is the chaos schedule of the acceptance criteria: 20%
// UDP loss with reordering, duplication and corruption, a 2 s CSI
// blackout, a camera outage, a burst-noise episode, an
// antenna-dropout episode, and low-rate clock faults.
func soakConfig(seed int64) faults.Config {
	return faults.Config{
		Seed: seed,
		Packet: faults.PacketConfig{
			Loss:         0.20,
			Reorder:      0.05,
			ReorderDepth: 6,
			Dup:          0.02,
			Corrupt:      0.01,
		},
		CSI: faults.CSIConfig{
			NoiseWindows:   []faults.Window{{Start: 5, End: 5.5}},
			NoiseStd:       0.6,
			DropoutWindows: []faults.Window{{Start: 25, End: 25.6}},
		},
		Clock: faults.ClockConfig{
			Regress:   0.002,
			RegressBy: 0.5,
			Dup:       0.002,
		},
		CSIBlackouts:  []faults.Window{{Start: 10, End: 12}},
		CameraOutages: []faults.Window{{Start: 20, End: 21.5}},
	}
}

// soakMix is the weighted multi-scenario mix the soak drives: the
// paper's baseline workload carries double weight, with passenger
// interference and the drowsy long-haul riding along — three distinct
// cabins, channel conditions, and trajectory families through one
// manager. The scenarios' own fault schedules are cleared (the soak's
// chaos comes from soakConfig's injector, so the fault timeline stays
// the one the assertions below expect) and every stream carries a
// camera so blackouts can coast.
func soakMix() ([]scenario.MixEntry, error) {
	mix, err := scenario.ParseMix("baseline:2,multi-occupant:1,longhaul-drowsy:1", soakDurationS)
	if err != nil {
		return nil, err
	}
	for i := range mix {
		mix[i].Config.Camera = true
		mix[i].Config.Faults = nil
		mix[i].Config.Profile = scenario.ProfileSpec{Positions: 4, PerPositionS: 3}
	}
	return mix, nil
}

// soakFixture is the rendered clean streams plus each session's
// profile, built once: rendering the mix's 32 s CSI streams is the
// expensive part.
type soakFixture struct {
	profiles map[string]*core.Profile
	streams  map[string][]serve.Item // clean, pre-fault
	pumped   map[string][]serve.Item // post-fault, as the receiver sees them
}

// ids returns the fixture's session IDs in stable order.
func (fx *soakFixture) ids() []string {
	out := make([]string, 0, len(fx.pumped))
	for id := range fx.pumped {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

var (
	soakOnce sync.Once
	soak     *soakFixture
	soakErr  error
)

func getSoakFixture(t *testing.T) *soakFixture {
	t.Helper()
	soakOnce.Do(func() { soak, soakErr = buildSoakFixture() })
	if soakErr != nil {
		t.Fatal(soakErr)
	}
	return soak
}

func buildSoakFixture() (*soakFixture, error) {
	mix, err := soakMix()
	if err != nil {
		return nil, err
	}
	weights := make([]float64, len(mix))
	for i, e := range mix {
		weights[i] = e.Weight
	}
	counts := scenario.Apportion(weights, soakSessions)
	fx := &soakFixture{
		profiles: map[string]*core.Profile{},
		streams:  map[string][]serve.Item{},
		pumped:   map[string][]serve.Item{},
	}
	n := 0
	for i, e := range mix {
		if counts[i] == 0 {
			continue
		}
		// One profile per scenario, fingerprinting that scenario's own
		// cabin, shared by its sessions.
		prof, err := e.Config.CollectProfile()
		if err != nil {
			return nil, err
		}
		for j := 0; j < counts[i]; j++ {
			id := fmt.Sprintf("car-%d-%s", n, e.Config.Name)
			st, err := e.Config.BuildStream(id, j)
			if err != nil {
				return nil, err
			}
			fx.profiles[id] = prof
			fx.streams[id] = st.Items
			fx.pumped[id] = faults.New(soakConfig(7000+int64(n))).Pump(id, st.Items)
			n++
		}
	}
	return fx, nil
}

// soakLog records health transitions and per-estimate health, keyed by
// session, safe for concurrent worker callbacks. An estimate's health
// is read through m.Health inside the sink: the session's worker
// publishes each transition before it emits, so the read is the state
// the estimate left under.
type soakLog struct {
	m      *serve.Manager
	mu     sync.Mutex
	trans  map[string][]serve.Health // "to" states in order
	staleE map[string]int            // estimates emitted while STALE
	ests   map[string]int
}

func newSoakLog() *soakLog {
	return &soakLog{trans: map[string][]serve.Health{}, staleE: map[string]int{}, ests: map[string]int{}}
}

func (l *soakLog) onEvent(rec journal.Record) {
	if rec.Kind != journal.KindHealth {
		return
	}
	l.mu.Lock()
	l.trans[rec.Session] = append(l.trans[rec.Session], serve.Health(rec.To))
	l.mu.Unlock()
}

func (l *soakLog) onEst(id string, est core.Estimate) {
	h, _ := l.m.Health(id)
	l.mu.Lock()
	l.ests[id]++
	if h == serve.Stale {
		l.staleE[id]++
	}
	l.mu.Unlock()
}

// TestChaosSoak is the acceptance soak: a weighted multi-scenario mix
// (baseline ×2, passenger interference, drowsy long-haul), ≥30 s of
// simulated driving per session, pushed concurrently through a
// sharded Manager while the full fault schedule runs. Every session
// must ride out every fault window and re-enter HEALTHY, no estimate
// may be emitted while STALE, and the counters must conserve.
func TestChaosSoak(t *testing.T) {
	fx := getSoakFixture(t)
	log := newSoakLog()
	m := serve.New(serve.Config{
		Shards:     2,
		QueueLen:   1 << 17,
		OnEvent:    log.onEvent,
		OnEstimate: log.onEst,
	})
	log.m = m
	defer m.Close()
	for id := range fx.pumped {
		if err := m.Open(id, fx.profiles[id], core.DefaultPipelineConfig()); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	var pushed uint64
	var pushedMu sync.Mutex
	for _, items := range fx.pumped {
		wg.Add(1)
		go func(items []serve.Item) {
			defer wg.Done()
			for i := 0; i < len(items); i += 64 {
				hi := i + 64
				if hi > len(items) {
					hi = len(items)
				}
				m.PushBatch(items[i:hi])
			}
			pushedMu.Lock()
			pushed += uint64(len(items))
			pushedMu.Unlock()
		}(items)
	}
	wg.Wait()
	m.Flush()
	snap := m.Counters().Snapshot()

	// Conservation: every accepted item is processed or dropped. The
	// fault injector corrupts payloads, not the Item.Kind byte, so
	// RejectedKind must stay zero here — but it belongs in the
	// identity, which is exactly the acceptance-criteria equation.
	if snap.Total() != pushed {
		t.Fatalf("counted in %d items, pushed %d", snap.Total(), pushed)
	}
	if snap.Total() != snap.Processed+snap.DroppedStale+snap.DroppedUnknown+snap.RejectedKind {
		t.Fatalf("conservation violated: total=%d processed=%d droppedStale=%d droppedUnknown=%d rejectedKind=%d",
			snap.Total(), snap.Processed, snap.DroppedStale, snap.DroppedUnknown, snap.RejectedKind)
	}

	log.mu.Lock()
	defer log.mu.Unlock()
	var sunk uint64
	for id := range fx.pumped {
		sunk += uint64(log.ests[id])

		// Silence while STALE.
		if log.staleE[id] != 0 {
			t.Errorf("%s: %d estimates emitted while STALE", id, log.staleE[id])
		}

		// The session rode out the blackout: it went all the way to
		// STALE and came back, plus at least one more degradation
		// (camera outage, antenna dropout) also recovered.
		trans := log.trans[id]
		counts := map[serve.Health]int{}
		for _, h := range trans {
			counts[h]++
		}
		if counts[serve.Stale] == 0 || counts[serve.Coasting] == 0 || counts[serve.Degraded] == 0 {
			t.Errorf("%s: fault windows missed states: transitions %v", id, trans)
		}
		if counts[serve.Healthy] < 2 {
			t.Errorf("%s: only %d recoveries, want ≥2 (blackout + outage): %v", id, counts[serve.Healthy], trans)
		}
		if len(trans) == 0 || trans[len(trans)-1] != serve.Healthy {
			t.Errorf("%s: did not end HEALTHY: %v", id, trans)
		}
		if h, ok := m.Health(id); !ok || h != serve.Healthy {
			t.Errorf("%s: final Health = %v/%v", id, h, ok)
		}
	}
	if sunk != snap.Estimates {
		t.Fatalf("sinks saw %d estimates, counters say %d", sunk, snap.Estimates)
	}

	// The fault schedule visibly exercised every defense layer.
	if snap.Estimates == 0 {
		t.Fatal("soak produced no estimates at all")
	}
	if snap.Coasted == 0 {
		t.Fatal("no coasted estimates during a 2 s CSI blackout with a live camera")
	}
	if snap.RejectedTime == 0 {
		t.Fatal("reordering/duplication/clock faults produced no timestamp rejections")
	}
	if snap.SanitizeErrors == 0 {
		t.Fatal("the antenna-dropout episode produced no sanitize errors")
	}
	if snap.TrackerResets < uint64(len(fx.pumped)) {
		t.Fatalf("TrackerResets = %d, want ≥%d (one per session after the blackout)", snap.TrackerResets, len(fx.pumped))
	}
	t.Logf("soak: in=%d processed=%d estimates=%d coasted=%d rejected=%d sanitizeErr=%d transitions(d/c/s/h)=%d/%d/%d/%d",
		snap.Total(), snap.Processed, snap.Estimates, snap.Coasted, snap.RejectedTime,
		snap.SanitizeErrors, snap.ToDegraded, snap.ToCoasting, snap.ToStale, snap.Recoveries)

	// Graceful end of life after the chaos: the drain-then-stop must
	// abandon nothing, purge every session, and leave the acceptance
	// conservation identity exact on the final snapshot.
	m.CloseDrain()
	final := m.Counters().Snapshot()
	if final.DroppedClosed != 0 {
		t.Fatalf("CloseDrain abandoned %d items", final.DroppedClosed)
	}
	if final.Total() != final.Processed+final.DroppedStale+final.DroppedUnknown+final.RejectedKind {
		t.Fatalf("post-close conservation violated: %+v", final)
	}
	if m.Sessions() != 0 {
		t.Fatalf("Sessions() = %d after CloseDrain, want 0", m.Sessions())
	}
}

// TestChaosSoakDeterministicReplay replays the identical pumped
// streams through two deterministic-mode managers: estimates and
// transition logs must match exactly. Combined with the injector's own
// determinism (TestInjectorPumpDeterminism), a seed fully determines a
// chaos run end to end.
func TestChaosSoakDeterministicReplay(t *testing.T) {
	fx := getSoakFixture(t)
	run := func() (map[string][]core.Estimate, map[string][]serve.Health) {
		log := newSoakLog()
		ests := map[string][]core.Estimate{}
		m := serve.New(serve.Config{
			Deterministic: true,
			OnEvent:       log.onEvent,
			OnEstimate: func(id string, est core.Estimate) {
				ests[id] = append(ests[id], est)
			},
		})
		defer m.Close()
		ids := fx.ids()
		for _, id := range ids {
			if err := m.Open(id, fx.profiles[id], core.DefaultPipelineConfig()); err != nil {
				t.Fatal(err)
			}
		}
		for _, id := range ids {
			for _, it := range fx.pumped[id] {
				m.Push(it)
			}
		}
		return ests, log.trans
	}
	estA, transA := run()
	estB, transB := run()
	for id := range estA {
		if len(estA[id]) != len(estB[id]) {
			t.Fatalf("%s: replay produced %d vs %d estimates", id, len(estA[id]), len(estB[id]))
		}
		for i := range estA[id] {
			if estA[id][i] != estB[id][i] {
				t.Fatalf("%s: estimate %d differs between replays", id, i)
			}
		}
		if len(estA[id]) == 0 {
			t.Fatalf("%s: replay produced no estimates", id)
		}
	}
	for id := range transA {
		if len(transA[id]) != len(transB[id]) {
			t.Fatalf("%s: replay transition counts differ: %v vs %v", id, transA[id], transB[id])
		}
		for i := range transA[id] {
			if transA[id][i] != transB[id][i] {
				t.Fatalf("%s: transition %d differs between replays", id, i)
			}
		}
	}
}
