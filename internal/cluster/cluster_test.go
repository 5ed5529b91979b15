package cluster_test

import (
	"bytes"
	"errors"
	"testing"

	"vihot/internal/cluster"
	"vihot/internal/core"
	"vihot/internal/journal"
	"vihot/internal/serve"
)

const fixKey = "default-cab"

// newTestCluster builds a deterministic loopback cluster over the
// fixture profile with every fixture session open.
func newTestCluster(t *testing.T, f *fixture, cfg cluster.Config) *cluster.Cluster {
	t.Helper()
	cfg.Deterministic = true
	c, err := cluster.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range f.sessions {
		if err := c.Open(id, fixKey, f.profile); err != nil {
			c.Close()
			t.Fatal(err)
		}
	}
	return c
}

// TestClusterRouting is the happy path: every fixture session routed
// to its ring owner over the wire, estimates flowing, books balanced,
// everyone HEALTHY.
func TestClusterRouting(t *testing.T) {
	f := getFixture(t)
	estBySession := map[string]int{}
	c := newTestCluster(t, f, cluster.Config{
		Nodes: []string{"n0", "n1", "n2"},
		Serve: serve.Config{
			OnEstimate: func(id string, est core.Estimate) {
				estBySession[id]++
			},
		},
	})
	defer c.Close()

	if got := c.Sessions(); got != len(f.sessions) {
		t.Fatalf("Sessions() = %d, want %d", got, len(f.sessions))
	}
	pushTimeline(c, f.timeline)
	c.Flush()

	st := c.Stats()
	if st.Routed != uint64(len(f.timeline)) {
		t.Fatalf("Routed = %d, want %d", st.Routed, len(f.timeline))
	}
	if st.Delivered != st.Routed || st.DroppedPartition+st.DroppedDown+st.DroppedUnowned != 0 {
		t.Fatalf("unclean books on a clean run: %+v", st)
	}
	// Delivered items land, item for item, in the member managers.
	var total uint64
	owners := map[string]bool{}
	for _, name := range c.Members() {
		total += c.Node(name).Manager().Counters().Snapshot().Total()
	}
	if total != st.Delivered {
		t.Fatalf("members hold %d items, router delivered %d", total, st.Delivered)
	}
	for _, id := range f.sessions {
		owner, ok := c.Owner(id)
		if !ok {
			t.Fatalf("no owner for %s", id)
		}
		owners[owner] = true
		if h, ok := c.Health(id); !ok || h != serve.Healthy {
			t.Fatalf("%s (on %s): health %v, want healthy", id, owner, h)
		}
		if estBySession[id] == 0 {
			t.Fatalf("no estimates for %s", id)
		}
	}
	if len(owners) < 2 {
		t.Fatalf("all sessions landed on one node: %v", owners)
	}
	if st.MessagesSent == 0 {
		t.Fatalf("no wire traffic recorded: %+v", st)
	}
}

// TestClusterAdmissionAndErrors covers the refusal paths.
func TestClusterAdmissionAndErrors(t *testing.T) {
	f := getFixture(t)
	if _, err := cluster.New(cluster.Config{}); !errors.Is(err, cluster.ErrNoMembers) {
		t.Fatalf("no members: %v", err)
	}
	c := newTestCluster(t, f, cluster.Config{Nodes: []string{"n0", "n1"}})
	defer c.Close()

	if err := c.Open("", fixKey, f.profile); err == nil {
		t.Fatal("open with empty session accepted")
	}
	if err := c.Open("x", "", f.profile); err == nil {
		t.Fatal("open with empty key accepted")
	}
	if err := c.CloseSession("ghost"); !errors.Is(err, cluster.ErrUnknownSession) {
		t.Fatalf("close ghost: %v", err)
	}
	if _, err := c.DrainNode("ghost"); !errors.Is(err, cluster.ErrUnknownNode) {
		t.Fatalf("drain ghost: %v", err)
	}

	// Items for a session the router never opened drop as unowned.
	c.Push(serve.Item{Session: "never-opened", Kind: serve.KindPhase, Time: 1, Phi: 0})
	st := c.Stats()
	if st.DroppedUnowned != 1 || st.Delivered != 0 {
		t.Fatalf("unowned push books: %+v", st)
	}

	// Closing a session stops its routing.
	id := f.sessions[0]
	if err := c.CloseSession(id); err != nil {
		t.Fatal(err)
	}
	c.Push(f.streams[id][0])
	if st := c.Stats(); st.DroppedUnowned != 2 {
		t.Fatalf("closed-session push books: %+v", st)
	}
}

// nodeJournals gives every member its own in-memory journal through
// NodeServe, the per-node durable log a warm restart would recover.
// The queue holds a whole test run's records per node, so no journal
// sheds and the bytes are a pure function of the workload.
type nodeJournals struct {
	bufs    map[string]*bytes.Buffer
	writers map[string]*journal.Writer
}

func newNodeJournals() *nodeJournals {
	return &nodeJournals{bufs: map[string]*bytes.Buffer{}, writers: map[string]*journal.Writer{}}
}

func (nj *nodeJournals) nodeServe(t *testing.T) func(string, serve.Config) serve.Config {
	return func(name string, base serve.Config) serve.Config {
		nj.bufs[name] = &bytes.Buffer{}
		jw, err := journal.New(journal.Config{W: nj.bufs[name], QueueLen: 1 << 15})
		if err != nil {
			t.Fatal(err)
		}
		nj.writers[name] = jw
		base.Journal = jw
		return base
	}
}

// recover closes one member's journal and replays it.
func (nj *nodeJournals) recover(t *testing.T, name string) *journal.RecoverResult {
	t.Helper()
	if err := nj.writers[name].Close(); err != nil {
		t.Fatal(err)
	}
	b := nj.bufs[name].Bytes()
	res, err := journal.Recover(bytes.NewReader(b), int64(len(b)))
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func (nj *nodeJournals) close() {
	for _, jw := range nj.writers {
		_ = jw.Close()
	}
}

// TestClusterDrainHandoff drains a loaded node mid-stream: its
// sessions must close on the source (its journal records the close)
// and reopen on survivors, HEALTHY on arrival with the profile
// present, and the stream must carry on end to end.
func TestClusterDrainHandoff(t *testing.T) {
	f := getFixture(t)
	nj := newNodeJournals()
	defer nj.close()
	var handoffs []cluster.HandoffEvent
	c := newTestCluster(t, f, cluster.Config{
		Nodes:     []string{"n0", "n1", "n2"},
		NodeServe: nj.nodeServe(t),
		OnHandoff: func(ev cluster.HandoffEvent) {
			handoffs = append(handoffs, ev)
		},
	})
	defer c.Close()

	// Drain the node owning the first session, halfway through.
	victim, _ := c.Owner(f.sessions[0])
	moved := map[string]bool{}
	for _, id := range f.sessions {
		if o, _ := c.Owner(id); o == victim {
			moved[id] = true
		}
	}
	half := splitAt(f.timeline, fixDurationS/2)
	pushTimeline(c, f.timeline[:half])

	events, err := c.DrainNode(victim)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != len(moved) {
		t.Fatalf("drained %d sessions, node owned %d", len(events), len(moved))
	}
	for i, ev := range events {
		if ev.From != victim || ev.To == victim || !moved[ev.Session] || ev.Failover {
			t.Fatalf("bad drain event %+v", ev)
		}
		if i > 0 && ev.Session <= events[i-1].Session {
			t.Fatalf("drain order not sorted: %q after %q", ev.Session, events[i-1].Session)
		}
		if ev.T <= 0 {
			t.Fatalf("drain event carries no router clock: %+v", ev)
		}
		// The arrival contract: a reopened session is a fresh one —
		// open and HEALTHY on a node that has the replicated profile.
		if h, ok := c.Health(ev.Session); !ok || h != serve.Healthy {
			t.Fatalf("%s after drain: health %v (open %v), want healthy", ev.Session, h, ok)
		}
		if o, _ := c.Owner(ev.Session); o != ev.To {
			t.Fatalf("%s owner %s, event says %s", ev.Session, o, ev.To)
		}
		if _, ok := c.Node(ev.To).Manager().Profile(ev.Session); !ok {
			t.Fatalf("%s reopened without a profile on %s", ev.Session, ev.To)
		}
	}
	if len(handoffs) != len(events) {
		t.Fatalf("OnHandoff saw %d transfers, DrainNode returned %d", len(handoffs), len(events))
	}

	// The rest of the stream flows to the survivors.
	pushTimeline(c, f.timeline[half:])
	c.Flush()
	for _, id := range f.sessions {
		if h, ok := c.Health(id); !ok || h != serve.Healthy {
			t.Fatalf("%s post-drain health %v, want healthy", id, h)
		}
	}
	st := c.Stats()
	if st.Routed != st.Delivered || st.DroppedDown+st.DroppedUnowned+st.DroppedPartition != 0 {
		t.Fatalf("drain lost items: %+v", st)
	}
	if st.DrainHandoffs != uint64(len(events)) || st.FailoverHandoffs != 0 {
		t.Fatalf("handoff counters: %+v", st)
	}

	// The source journal closes every drained session, so a warm
	// restart of the drained node brings none of them back; their new
	// owners' journals carry them on.
	src := nj.recover(t, victim)
	if !src.CleanShutdown {
		t.Fatalf("%s journal has no clean-shutdown trailer", victim)
	}
	for _, ev := range events {
		s, ok := src.Sessions[ev.Session]
		if !ok || !s.Closed || s.Reaped {
			t.Fatalf("source journal: %s recovers %+v, want closed", ev.Session, s)
		}
	}
	if live := src.Live(); len(live) != 0 {
		t.Fatalf("source journal recovers live sessions %v", live)
	}
	c.CloseDrain()
	dests := map[string]*journal.RecoverResult{}
	for _, ev := range events {
		if dests[ev.To] == nil {
			dests[ev.To] = nj.recover(t, ev.To)
		}
		if s := dests[ev.To].Sessions[ev.Session]; s == nil || s.Closed || !s.HasEstimate {
			t.Fatalf("%s journal: %s recovers %+v, want live with estimates", ev.To, ev.Session, s)
		}
	}
}

// TestClusterHandoffEqualsFreshOpen pins the handoff contract: a
// session moved by a drain or a failover produces, on its new owner,
// exactly the estimates of a standalone manager that opens the
// session fresh and receives the same post-handoff items.
func TestClusterHandoffEqualsFreshOpen(t *testing.T) {
	f := getFixture(t)
	for _, failover := range []bool{false, true} {
		name := "drain"
		if failover {
			name = "failover"
		}
		t.Run(name, func(t *testing.T) {
			byNode := map[string]map[string][]core.Estimate{}
			pushed, at := 0, -1
			id := f.sessions[0]
			c := newTestCluster(t, f, cluster.Config{
				Nodes: []string{"n0", "n1", "n2"},
				NodeServe: func(node string, base serve.Config) serve.Config {
					byNode[node] = map[string][]core.Estimate{}
					base.OnEstimate = func(sess string, est core.Estimate) {
						byNode[node][sess] = append(byNode[node][sess], est)
					}
					return base
				},
				OnHandoff: func(ev cluster.HandoffEvent) {
					if ev.Session == id {
						at = pushed
					}
				},
			})
			defer c.Close()
			victim, _ := c.Owner(id)
			half := splitAt(f.timeline, fixDurationS/2)
			// One item per push, so the handoff instant is an exact
			// timeline index.
			for _, it := range f.timeline {
				if pushed == half {
					var err error
					if failover {
						err = c.KillNode(victim)
					} else {
						_, err = c.DrainNode(victim)
					}
					if err != nil {
						t.Fatal(err)
					}
				}
				c.Push(it)
				pushed++
			}
			c.Flush()
			if at < 0 {
				t.Fatal("the session never moved")
			}
			if failover {
				// The detector fires after routing the push that
				// crossed its deadline, so that item still went to
				// the dead node.
				at++
			}
			dest, _ := c.Owner(id)

			var want []core.Estimate
			ref := serve.New(serve.Config{Deterministic: true, OnEstimate: func(_ string, est core.Estimate) {
				want = append(want, est)
			}})
			defer ref.Close()
			if err := ref.Open(id, f.profile, core.DefaultPipelineConfig()); err != nil {
				t.Fatal(err)
			}
			for _, it := range f.timeline[at:] {
				if it.Session == id {
					ref.Push(it)
				}
			}
			got := byNode[dest][id]
			if len(want) == 0 || len(got) != len(want) {
				t.Fatalf("%s on %s: %d estimates, fresh open gives %d", id, dest, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s estimate %d = %+v, fresh open gives %+v", id, i, got[i], want[i])
				}
			}
		})
	}
}

// TestClusterFailover kills a node without telling the router: items
// for its sessions drop until the stream-time heartbeat declares it
// dead, then the sessions fail over from the router's directory and
// recover as their frames resume.
func TestClusterFailover(t *testing.T) {
	f := getFixture(t)
	c := newTestCluster(t, f, cluster.Config{Nodes: []string{"n0", "n1", "n2", "n3"}})
	defer c.Close()

	victim, _ := c.Owner(f.sessions[0])
	moved := map[string]bool{}
	for _, id := range f.sessions {
		if o, _ := c.Owner(id); o == victim {
			moved[id] = true
		}
	}
	const killT = 3.0
	cut := splitAt(f.timeline, killT)
	pushTimeline(c, f.timeline[:cut])
	if err := c.KillNode(victim); err != nil {
		t.Fatal(err)
	}
	pushTimeline(c, f.timeline[cut:])
	c.Flush()

	st := c.Stats()
	if st.LiveNodes != 3 || st.Reassignments != 1 {
		t.Fatalf("failover bookkeeping: %+v", st)
	}
	if st.FailoverHandoffs != uint64(len(moved)) || st.DrainHandoffs != 0 {
		t.Fatalf("failover handoffs = %d, want %d: %+v", st.FailoverHandoffs, len(moved), st)
	}
	// The detection gap is real: items addressed to the dead node
	// dropped (visibly) until the detector fired, and nothing else.
	if st.DroppedDown == 0 {
		t.Fatal("no items dropped during the detection window")
	}
	if st.Routed != st.Delivered+st.DroppedDown {
		t.Fatalf("conservation broke: %+v", st)
	}
	for _, id := range f.sessions {
		owner, ok := c.Owner(id)
		if !ok || owner == victim {
			t.Fatalf("%s still owned by the dead node", id)
		}
		if h, ok := c.Health(id); !ok || h != serve.Healthy {
			t.Fatalf("%s post-failover health %v, want healthy", id, h)
		}
	}
	if st.HeartbeatMisses == 0 {
		t.Fatal("detector never recorded a miss")
	}
}

// TestClusterCloseDrain is fleet shutdown: every member's conservation
// identity closes exactly and later calls refuse.
func TestClusterCloseDrain(t *testing.T) {
	f := getFixture(t)
	c := newTestCluster(t, f, cluster.Config{Nodes: []string{"n0", "n1"}})
	half := splitAt(f.timeline, fixDurationS/2)
	pushTimeline(c, f.timeline[:half])
	c.CloseDrain()
	for _, name := range c.Members() {
		snap := c.Node(name).Manager().Counters().Snapshot()
		if snap.Total() != snap.Processed+snap.DroppedStale+snap.DroppedUnknown+snap.RejectedKind {
			t.Fatalf("%s books unbalanced after drain: %+v", name, snap)
		}
	}
	if err := c.Open("late", fixKey, f.profile); !errors.Is(err, cluster.ErrClusterClosed) {
		t.Fatalf("open after close: %v", err)
	}
}
