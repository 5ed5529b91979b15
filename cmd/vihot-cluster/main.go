// Command vihot-cluster runs the distributed serving tier end to end:
// a scenario-corpus workload replayed through an N-node
// consistent-hash cluster, with optional mid-run node maintenance
// (drain) and node crash (kill + stream-time failure detection), and a
// final cluster-wide ledger.
//
// Usage:
//
//	vihot-cluster [-nodes N] [-sessions N] [-scenario name[,name...]]
//	              [-duration S] [-drain T] [-kill T] [-v]
//
// -drain T retires the member owning the most sessions at stream time
// T (orderly handoff: each session closes there and reopens on its new
// owner, then the member stops gracefully). -kill T crashes a
// different loaded member at stream time T; the router notices via
// heartbeat silence and reopens its sessions on the survivors.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"vihot/internal/cluster"
	"vihot/internal/core"
	"vihot/internal/profilestore"
	"vihot/internal/scenario"
	"vihot/internal/serve"
)

func main() {
	nodes := flag.Int("nodes", 4, "cluster member count")
	sessions := flag.Int("sessions", 8, "sessions, apportioned round-robin across the scenario mix")
	names := flag.String("scenario", scenario.Baseline,
		fmt.Sprintf("comma-separated corpus scenarios (have %v)", scenario.CorpusNames()))
	duration := flag.Float64("duration", 0, "override scenario duration seconds (0 = corpus defaults)")
	drainT := flag.Float64("drain", 0, "drain the busiest member at this stream time (0 = never)")
	killT := flag.Float64("kill", 0, "crash a loaded member at this stream time (0 = never)")
	verbose := flag.Bool("v", false, "print every handoff event")
	flag.Parse()

	if _, err := run(os.Stdout, *nodes, *sessions, *names, *duration, *drainT, *killT, *verbose); err != nil {
		fmt.Fprintln(os.Stderr, "vihot-cluster:", err)
		os.Exit(1)
	}
}

// outcome is what a run ends with: the cluster ledger and every
// session's final owner.
type outcome struct {
	stats  cluster.Stats
	owners map[string]string
}

func run(out io.Writer, nodes, sessions int, names string, duration, drainT, killT float64, verbose bool) (outcome, error) {
	res := outcome{owners: map[string]string{}}
	// Render the workload: per-scenario profiles, per-session streams,
	// one merged timeline ordered by stream time.
	var cfgs []scenario.Config
	for _, name := range strings.Split(names, ",") {
		cfg, err := scenario.ByName(strings.TrimSpace(name))
		if err != nil {
			return res, err
		}
		if duration > 0 {
			cfg.DurationS = duration
		}
		cfgs = append(cfgs, cfg)
	}
	cfgByName := make(map[string]scenario.Config)
	keys := make(map[string]string)
	var ids []string
	var timeline []serve.Item
	for i := 0; i < sessions; i++ {
		cfg := cfgs[i%len(cfgs)]
		cfgByName[cfg.Name] = cfg
		id := fmt.Sprintf("%s-%d", cfg.Name, i)
		st, err := cfg.BuildStream(id, i)
		if err != nil {
			return res, err
		}
		ids = append(ids, id)
		keys[id] = cfg.Name
		timeline = append(timeline, st.Items...)
	}
	sort.SliceStable(timeline, func(i, j int) bool {
		if ta, tb := itemTime(timeline[i]), itemTime(timeline[j]); ta != tb {
			return ta < tb
		}
		return timeline[i].Session < timeline[j].Session
	})

	members := make([]string, nodes)
	for i := range members {
		members[i] = fmt.Sprintf("node-%02d", i)
	}
	c, err := cluster.New(cluster.Config{
		Nodes: members,
		OnHandoff: func(ev cluster.HandoffEvent) {
			if verbose {
				kind := "drain"
				if ev.Failover {
					kind = "failover"
				}
				fmt.Fprintf(out, "  handoff %-8s %-24s %s -> %s (t=%.2fs)\n", kind, ev.Session, ev.From, ev.To, ev.T)
			}
		},
	})
	if err != nil {
		return res, err
	}
	defer c.Close()

	// Profiles resolve lazily through a loader-backed store: OpenMany's
	// batch dedup guarantees one CollectProfile per scenario no matter
	// how many sessions share it, and the cluster replicates each key to
	// its members exactly once.
	store := profilestore.New(profilestore.Config{
		Loader: profilestore.LoaderFunc(func(name string) (*core.Profile, error) {
			cfg, ok := cfgByName[name]
			if !ok {
				return nil, fmt.Errorf("unknown scenario %q", name)
			}
			fmt.Fprintf(out, "profiling %s ...\n", name)
			return cfg.CollectProfile()
		}),
	})
	opens := make([]serve.KeyedOpen, len(ids))
	for i, id := range ids {
		opens[i] = serve.KeyedOpen{ID: id, Key: keys[id]}
	}
	for i, err := range c.OpenMany(opens, store) {
		if err != nil {
			return res, err
		}
		owner, _ := c.Owner(ids[i])
		fmt.Fprintf(out, "open %-24s -> %s\n", ids[i], owner)
	}

	// The chaos targets are ring facts: drain hits the busiest member,
	// kill hits the next-most-loaded other member.
	load := map[string]int{}
	for _, id := range ids {
		owner, _ := c.Owner(id)
		load[owner]++
	}
	ranked := append([]string(nil), members...)
	sort.SliceStable(ranked, func(i, j int) bool { return load[ranked[i]] > load[ranked[j]] })
	drainTarget, killTarget := ranked[0], ""
	for _, n := range ranked[1:] {
		if load[n] > 0 {
			killTarget = n
			break
		}
	}

	// Replay, firing the scheduled faults as stream time passes them.
	flush := func() { c.Flush() }
	drained, killed := drainT <= 0, killT <= 0 || killTarget == ""
	for i := 0; i < len(timeline); {
		j := i + 256
		if j > len(timeline) {
			j = len(timeline)
		}
		c.PushBatch(timeline[i:j])
		t := itemTime(timeline[j-1])
		if !drained && t >= drainT {
			drained = true
			flush()
			fmt.Fprintf(out, "t=%.2fs draining %s (%d sessions)\n", t, drainTarget, owned(c, ids, drainTarget))
			if _, err := c.DrainNode(drainTarget); err != nil {
				return res, err
			}
		}
		if !killed && t >= killT {
			killed = true
			flush()
			fmt.Fprintf(out, "t=%.2fs killing %s (%d sessions)\n", t, killTarget, owned(c, ids, killTarget))
			if err := c.KillNode(killTarget); err != nil {
				return res, err
			}
		}
		i = j
	}
	flush()

	st := c.Stats()
	res.stats = st
	fmt.Fprintf(out, "\ncluster: %d/%d nodes live, %d sessions, %d reassignments\n",
		st.LiveNodes, st.Nodes, st.Sessions, st.Reassignments)
	fmt.Fprintf(out, "items:   routed %d = delivered %d + dropped %d (partition %d, node-down %d, unowned %d)\n",
		st.Routed, st.Delivered, st.DroppedPartition+st.DroppedDown+st.DroppedUnowned,
		st.DroppedPartition, st.DroppedDown, st.DroppedUnowned)
	fmt.Fprintf(out, "handoff: %d drain, %d failover\n", st.DrainHandoffs, st.FailoverHandoffs)
	for _, id := range ids {
		owner, _ := c.Owner(id)
		h, _ := c.Health(id)
		res.owners[id] = owner
		fmt.Fprintf(out, "  %-24s on %-8s %v\n", id, owner, h)
	}
	return res, nil
}

// owned counts the sessions a member owns right now — after a drain,
// that includes the sessions the drain moved onto it.
func owned(c *cluster.Cluster, ids []string, member string) int {
	n := 0
	for _, id := range ids {
		if owner, _ := c.Owner(id); owner == member {
			n++
		}
	}
	return n
}

// itemTime mirrors the router's stream-clock extraction.
func itemTime(it serve.Item) float64 {
	switch it.Kind {
	case serve.KindFrame:
		if it.Frame != nil {
			return it.Frame.Time
		}
		return 0
	case serve.KindIMU:
		return it.IMU.Time
	case serve.KindCamera:
		return it.Camera.Time
	default:
		return it.Time
	}
}
