package main

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

// TestRunDrainAndKill drives the demo end to end on a small fleet: a
// drain and a crash mid-stream must leave the router's ledger balanced
// and every session owned by a member that is still up. With five
// sessions the drain moves one onto the member later killed, so the
// kill line must count it.
func TestRunDrainAndKill(t *testing.T) {
	for _, sessions := range []int{4, 5} {
		t.Run(fmt.Sprintf("sessions=%d", sessions), func(t *testing.T) {
			var out bytes.Buffer
			res, err := run(&out, 4, sessions, "baseline", 8, 2, 4, true)
			if err != nil {
				t.Fatal(err)
			}
			st := res.stats
			if st.Routed == 0 || st.Routed != st.Delivered+st.DroppedPartition+st.DroppedDown+st.DroppedUnowned {
				t.Fatalf("ledger does not balance: %+v", st)
			}
			if st.DrainHandoffs == 0 || st.FailoverHandoffs == 0 || st.LiveNodes != 2 {
				t.Fatalf("drain and kill did not both land: %+v\n%s", st, out.String())
			}
			down := map[string]bool{}
			killedCount := -1
			for _, line := range strings.Split(out.String(), "\n") {
				f := strings.Fields(line)
				if len(f) < 4 || (f[1] != "draining" && f[1] != "killing") {
					continue
				}
				down[f[2]] = true
				if f[1] == "killing" {
					fmt.Sscanf(f[3], "(%d", &killedCount)
				}
			}
			if len(down) != 2 {
				t.Fatalf("expected one drained and one killed member:\n%s", out.String())
			}
			// Every session the killed member owned at the kill fails over.
			if uint64(killedCount) != st.FailoverHandoffs {
				t.Fatalf("kill line counts %d sessions, %d failed over:\n%s", killedCount, st.FailoverHandoffs, out.String())
			}
			if len(res.owners) != sessions {
				t.Fatalf("final owners %v, want %d sessions", res.owners, sessions)
			}
			for id, owner := range res.owners {
				if owner == "" || down[owner] {
					t.Fatalf("%s ended on %q, which is down", id, owner)
				}
			}
		})
	}
}
