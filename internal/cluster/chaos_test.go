package cluster_test

import (
	"bytes"
	"fmt"
	"reflect"
	"sort"
	"sync"
	"testing"

	"vihot/internal/cluster"
	"vihot/internal/core"
	"vihot/internal/faults"
	"vihot/internal/journal"
	"vihot/internal/scenario"
	"vihot/internal/serve"
)

// The chaos soak: a scenario-mix workload (PR 6 corpus) over a
// four-node cluster that loses one member to a partition window and
// another to a crash mid-stream. The partitioned member must ride it
// out (the cut is shorter than the death threshold); the crashed one
// must be detected on stream time and its sessions failed over; every
// session must converge back to HEALTHY with the cluster-wide item
// ledger balanced — and the whole run must replay bit-identically
// from its seeds.

const (
	chaosDurationS  = 20.0
	chaosPartStart  = 6.0
	chaosPartEnd    = 7.3 // < heartbeat death threshold (2.0s) past the last pong
	chaosKillT      = 11.0
	chaosSessPerCfg = 3
)

// chaosWorkload is the rendered scenario mix: per-scenario profiles
// and the merged cluster timeline.
type chaosWorkload struct {
	profiles map[string]*core.Profile // key → profile
	keys     map[string]string        // session → profile key
	sessions []string
	timeline []serve.Item
}

var (
	chaosOnce sync.Once
	chaosW    *chaosWorkload
	chaosErr  error
)

func getChaosWorkload(t *testing.T) *chaosWorkload {
	t.Helper()
	chaosOnce.Do(func() { chaosW, chaosErr = buildChaosWorkload() })
	if chaosErr != nil {
		t.Fatal(chaosErr)
	}
	return chaosW
}

func buildChaosWorkload() (*chaosWorkload, error) {
	w := &chaosWorkload{
		profiles: map[string]*core.Profile{},
		keys:     map[string]string{},
	}
	for _, name := range []string{scenario.Baseline, scenario.CarFiRider} {
		cfg, err := scenario.ByName(name)
		if err != nil {
			return nil, err
		}
		cfg.DurationS = chaosDurationS
		p, err := cfg.CollectProfile()
		if err != nil {
			return nil, err
		}
		w.profiles[name] = p
		for s := 0; s < chaosSessPerCfg; s++ {
			id := fmt.Sprintf("%s-%d", name, s)
			st, err := cfg.BuildStream(id, s)
			if err != nil {
				return nil, err
			}
			w.sessions = append(w.sessions, id)
			w.keys[id] = name
			w.timeline = append(w.timeline, st.Items...)
		}
	}
	sort.SliceStable(w.timeline, func(i, j int) bool {
		a, b := &w.timeline[i], &w.timeline[j]
		if ta, tb := itemT(a), itemT(b); ta != tb {
			return ta < tb
		}
		return a.Session < b.Session
	})
	return w, nil
}

// chaosResult is everything a chaos run produces that the replay test
// compares: ring assignment, handoff ordering, per-session estimate
// counts, final state, counters, and every node's journal bytes.
type chaosResult struct {
	openOwners  map[string]string
	partitioned string
	killed      string
	events      []cluster.HandoffEvent
	estimates   map[string]int
	finalOwners map[string]string
	health      map[string]serve.Health
	stats       cluster.Stats
	journals    map[string][]byte // node → journal bytes
	jdropped    uint64            // records any node journal shed
	chaos       faults.ClusterChaosStats
	memberTotal uint64
}

// runChaos executes one full chaos scenario on a fresh cluster.
// Deterministic mode runs the whole fleet on this goroutine (the
// replay test's mode); concurrent mode runs real shard workers under
// the race detector.
func runChaos(t *testing.T, w *chaosWorkload, deterministic bool) chaosResult {
	t.Helper()
	r := chaosResult{
		openOwners:  map[string]string{},
		estimates:   map[string]int{},
		finalOwners: map[string]string{},
		health:      map[string]serve.Health{},
		journals:    map[string][]byte{},
	}

	nodes := []string{"car-east", "car-north", "car-south", "car-west"}
	nj := newNodeJournals()
	defer nj.close()
	var chaos *faults.ClusterChaos
	var estMu sync.Mutex
	cfg := cluster.Config{
		Nodes:         nodes,
		Deterministic: deterministic,
		Serve: serve.Config{
			OnEstimate: func(id string, est core.Estimate) {
				estMu.Lock()
				r.estimates[id]++
				estMu.Unlock()
			},
		},
		NodeServe: nj.nodeServe(t),
		// The injector is built after the opens (its targets are picked
		// from the ring), so the filter passes everything until then.
		Drop: func(m *cluster.Message) bool {
			return chaos != nil && chaos.Drop(m)
		},
		OnHandoff: func(ev cluster.HandoffEvent) {
			r.events = append(r.events, ev)
		},
	}
	c, err := cluster.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	for _, id := range w.sessions {
		key := w.keys[id]
		if err := c.Open(id, key, w.profiles[key]); err != nil {
			t.Fatal(err)
		}
		owner, _ := c.Owner(id)
		r.openOwners[id] = owner
	}
	// The partition hits the first session's owner; the crash hits the
	// first session owned by someone else. Both picks are pure
	// functions of the ring, so replays agree.
	r.partitioned = r.openOwners[w.sessions[0]]
	for _, id := range w.sessions {
		if o := r.openOwners[id]; o != r.partitioned {
			r.killed = o
			break
		}
	}
	if r.killed == "" {
		t.Fatalf("every session landed on %s; need two loaded nodes", r.partitioned)
	}
	chaos = faults.NewClusterChaos(faults.ClusterConfig{
		Partitions: []faults.PartitionSpec{
			{Node: r.partitioned, Window: faults.Window{Start: chaosPartStart, End: chaosPartEnd}},
		},
		Seed: 7,
	})

	// A real deployment's senders pace at stream rate; a full-speed
	// replay would overrun the shard queues and shed the stream tail.
	// Periodic flushes bound the workers' backlog instead of sleeping.
	push := func(items []serve.Item) {
		const batch = 64
		for i := 0; len(items) > 0; i++ {
			n := batch
			if n > len(items) {
				n = len(items)
			}
			c.PushBatch(items[:n])
			items = items[n:]
			if !deterministic && i%32 == 31 {
				c.Flush()
			}
		}
	}
	cut := splitAt(w.timeline, chaosKillT)
	push(w.timeline[:cut])
	if err := c.KillNode(r.killed); err != nil {
		t.Fatal(err)
	}
	push(w.timeline[cut:])
	c.Flush()

	for _, id := range w.sessions {
		owner, _ := c.Owner(id)
		r.finalOwners[id] = owner
		h, ok := c.Health(id)
		if !ok {
			t.Fatalf("session %s lost by the cluster", id)
		}
		r.health[id] = h
	}
	r.stats = c.Stats()
	r.chaos = chaos.Stats()
	for _, name := range nodes {
		r.memberTotal += c.Node(name).Manager().Counters().Snapshot().Total()
	}
	// Stop the members before their journals: the writers' Close then
	// flushes everything the managers appended.
	c.CloseDrain()
	for _, name := range nodes {
		if err := nj.writers[name].Close(); err != nil {
			t.Fatal(err)
		}
		st := nj.writers[name].Stats()
		r.jdropped += st.DroppedFull + st.DroppedClosed
		r.journals[name] = append([]byte(nil), nj.bufs[name].Bytes()...)
	}
	return r
}

// checkChaosInvariants asserts the soak contract on one run.
func checkChaosInvariants(t *testing.T, w *chaosWorkload, r chaosResult) {
	t.Helper()
	// The partitioned node survived; the killed node did not.
	if r.stats.LiveNodes != 3 || r.stats.Reassignments != 1 {
		t.Fatalf("membership after chaos: %+v", r.stats)
	}
	if r.stats.FailoverHandoffs == 0 || r.stats.DrainHandoffs != 0 {
		t.Fatalf("handoff counters: %+v", r.stats)
	}
	// Every failover event moved a session off the killed node, in
	// sorted session order (the reassignment ordering contract).
	var lastSess string
	for _, ev := range r.events {
		if !ev.Failover || ev.From != r.killed || ev.To == r.killed || ev.To == "" {
			t.Fatalf("bad failover event %+v", ev)
		}
		if ev.Session <= lastSess {
			t.Fatalf("failover order not sorted: %q after %q", ev.Session, lastSess)
		}
		lastSess = ev.Session
	}
	// Everyone converged back to HEALTHY, on a live owner.
	for _, id := range w.sessions {
		if r.finalOwners[id] == r.killed || r.finalOwners[id] == "" {
			t.Fatalf("%s still assigned to the dead node", id)
		}
		if r.health[id] != serve.Healthy {
			t.Fatalf("%s ended %v, want healthy", id, r.health[id])
		}
		if r.estimates[id] == 0 {
			t.Fatalf("no estimates for %s", id)
		}
	}
	// Cluster-wide conservation: every routed item is delivered or
	// dropped for an attributed reason, and delivered items are
	// exactly what the member managers account for.
	st := r.stats
	if st.Routed != uint64(len(w.timeline)) {
		t.Fatalf("Routed = %d, want %d", st.Routed, len(w.timeline))
	}
	if st.Routed != st.Delivered+st.DroppedPartition+st.DroppedDown+st.DroppedUnowned {
		t.Fatalf("conservation broke: %+v", st)
	}
	if st.DroppedPartition == 0 || st.DroppedDown == 0 {
		t.Fatalf("chaos drew no blood: %+v", st)
	}
	if r.memberTotal != st.Delivered {
		t.Fatalf("members hold %d items, router delivered %d", r.memberTotal, st.Delivered)
	}
	// The node journals hold every estimate the sink saw: a failed-over
	// session's records sit in the dead node's journal up to the crash
	// and in its new owner's journal after.
	if r.jdropped != 0 {
		t.Fatalf("node journals shed %d records", r.jdropped)
	}
	journaled, sunk := 0, 0
	for name, b := range r.journals {
		res, err := journal.Recover(bytes.NewReader(b), int64(len(b)))
		if err != nil || res.Diag.Truncated || !res.CleanShutdown {
			t.Fatalf("%s journal: err=%v diag=%+v clean=%v", name, err, res.Diag, res.CleanShutdown)
		}
		journaled += res.Counts[journal.KindEstimate]
		for _, ev := range r.events {
			if ev.To == name && res.Sessions[ev.Session] == nil {
				t.Fatalf("%s journal has no records of failed-over %s", name, ev.Session)
			}
		}
	}
	for _, n := range r.estimates {
		sunk += n
	}
	if journaled != sunk {
		t.Fatalf("node journals hold %d estimates, the sink saw %d", journaled, sunk)
	}
}

// TestChaosSoak runs the kill+partition scenario in concurrent mode —
// real shard workers, real journal writers — under whatever the
// harness adds (the Makefile race matrix runs this package with
// -race).
func TestChaosSoak(t *testing.T) {
	w := getChaosWorkload(t)
	r := runChaos(t, w, false)
	checkChaosInvariants(t, w, r)
}

// TestChaosDeterministicReplay runs the same scenario twice in
// deterministic mode and demands bit-identical outcomes: ring
// assignment, handoff ordering, per-session estimate counts, final
// health, every counter, and every node's journal bytes.
func TestChaosDeterministicReplay(t *testing.T) {
	w := getChaosWorkload(t)
	a := runChaos(t, w, true)
	checkChaosInvariants(t, w, a)
	b := runChaos(t, w, true)

	if !reflect.DeepEqual(a.openOwners, b.openOwners) {
		t.Fatalf("ring assignment not seed-stable:\n%v\n%v", a.openOwners, b.openOwners)
	}
	if a.partitioned != b.partitioned || a.killed != b.killed {
		t.Fatalf("chaos targets differ: %s/%s vs %s/%s", a.partitioned, a.killed, b.partitioned, b.killed)
	}
	if !reflect.DeepEqual(a.events, b.events) {
		t.Fatalf("handoff ordering not seed-stable:\n%v\n%v", a.events, b.events)
	}
	if !reflect.DeepEqual(a.estimates, b.estimates) {
		t.Fatalf("estimate counts not seed-stable")
	}
	if !reflect.DeepEqual(a.finalOwners, b.finalOwners) || !reflect.DeepEqual(a.health, b.health) {
		t.Fatalf("final state not seed-stable")
	}
	if a.stats != b.stats || a.chaos != b.chaos || a.memberTotal != b.memberTotal {
		t.Fatalf("counters not seed-stable:\n%+v\n%+v", a.stats, b.stats)
	}
	for name, ja := range a.journals {
		if jb := b.journals[name]; !bytes.Equal(ja, jb) {
			t.Fatalf("%s journal bytes not seed-stable (%d vs %d bytes)", name, len(ja), len(jb))
		}
	}
}
