package core

import (
	"math"
	"runtime"
	"testing"
	"time"
	"weak"
)

// sweepStream feeds the synthetic run-time stream of position 2 (a
// stable front period, then head sweeps) to tk and returns every
// estimate it emits.
func sweepStream(t *testing.T, tk *Tracker) []Estimate {
	t.Helper()
	offset := float64(2)*0.5 - 1
	var out []Estimate
	for ts := 0.0; ts < 9; ts += 0.002 {
		phi := offset
		if ts >= 2 {
			theta := 80 * math.Sin(2*math.Pi*(ts-2)/4)
			phi += 0.8 * math.Sin(theta*math.Pi/180)
		}
		if est, ok := tk.Push(ts, phi); ok {
			out = append(out, est)
		}
	}
	return out
}

// TestTrackersShareMatchView: two trackers over one *Profile read the
// same recentred grids, a tracker over a clone builds its own, and
// all three emit bit-identical estimates over the same stream.
func TestTrackersShareMatchView(t *testing.T) {
	p := synthProfile(t, 4)
	var tks [3]*Tracker
	for i, q := range []*Profile{p, p, p.Clone()} {
		tk, err := NewTracker(q, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		tks[i] = tk
	}
	for i := range p.Positions {
		a, b, c := tks[0].view.centered[i], tks[1].view.centered[i], tks[2].view.centered[i]
		if &a[0] != &b[0] {
			t.Errorf("position %d: trackers over one profile hold separate grids", i)
		}
		if &a[0] == &c[0] {
			t.Errorf("position %d: tracker over a clone shares the original's grid", i)
		}
	}
	if tks[0].view != tks[1].view || tks[0].view == tks[2].view {
		t.Error("views not shared by profile instance")
	}

	want := sweepStream(t, tks[0])
	csi := 0
	for _, e := range want {
		if e.Source == SourceCSI {
			csi++
		}
	}
	if csi < 100 {
		t.Fatalf("only %d CSI estimates; the stream must exercise the matcher", csi)
	}
	for i, tk := range tks[1:] {
		got := sweepStream(t, tk)
		if len(got) != len(want) {
			t.Fatalf("tracker %d: %d estimates, want %d", i+1, len(got), len(want))
		}
		for k := range want {
			w, g := want[k], got[k]
			if math.Float64bits(g.Time) != math.Float64bits(w.Time) ||
				math.Float64bits(g.Yaw) != math.Float64bits(w.Yaw) ||
				math.Float64bits(g.MatchDist) != math.Float64bits(w.MatchDist) ||
				g.Source != w.Source || g.Position != w.Position {
				t.Fatalf("tracker %d estimate %d = %+v, want %+v", i+1, k, g, w)
			}
		}
	}
}

// openAndDrop builds a profile and two trackers over it, runs them,
// and returns only weak references plus a copy of the view's grids,
// so nothing here keeps them reachable.
func openAndDrop(t *testing.T) (weak.Pointer[Profile], weak.Pointer[matchView], [][]float64) {
	p := synthProfile(t, 3)
	tk1, err := NewTracker(p, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	tk2, err := NewTracker(p, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	sweepStream(t, tk1)
	sweepStream(t, tk2)
	if tk1.view != tk2.view {
		t.Fatal("trackers over one profile hold separate views")
	}
	grids := make([][]float64, len(tk1.view.centered))
	for i, c := range tk1.view.centered {
		grids[i] = append([]float64(nil), c...)
	}
	return weak.Make(p), weak.Make(tk1.view), grids
}

// TestMatchViewLifetime: once every tracker over a profile and the
// profile itself are unreachable, the GC reclaims both and the view's
// entry leaves the table; a fresh profile of equal content then gets
// bit-identical grids.
func TestMatchViewLifetime(t *testing.T) {
	wp, wv, grids := openAndDrop(t)
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		viewsMu.Lock()
		_, listed := views[wp]
		viewsMu.Unlock()
		if wp.Value() == nil && wv.Value() == nil && !listed {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("after GC: profile live %v, view live %v, table entry %v",
				wp.Value() != nil, wv.Value() != nil, listed)
		}
		time.Sleep(time.Millisecond)
	}

	tk, err := NewTracker(synthProfile(t, 3), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range tk.view.centered {
		if len(c) != len(grids[i]) {
			t.Fatalf("position %d: grid length %d, want %d", i, len(c), len(grids[i]))
		}
		for k := range c {
			if math.Float64bits(c[k]) != math.Float64bits(grids[i][k]) {
				t.Fatalf("position %d sample %d: %v, want %v", i, k, c[k], grids[i][k])
			}
		}
	}
}

// stretched returns a copy of p whose grids repeat each position's
// grids n times.
func stretched(p *Profile, n int) *Profile {
	q := p.Clone()
	for i := range q.Positions {
		pos := &q.Positions[i]
		phi, theta := pos.PhiGrid, pos.ThetaGrid
		for r := 1; r < n; r++ {
			pos.PhiGrid = append(pos.PhiGrid, phi...)
			pos.ThetaGrid = append(pos.ThetaGrid, theta...)
		}
	}
	return q
}

// bytesPerCall returns the heap bytes one call of f allocates,
// averaged over n calls.
func bytesPerCall(n int, f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(n)
}

// TestNewPipelineWarmProfileAllocation: opening a pipeline over a
// profile another tracker already uses allocates nothing that grows
// with the grid length, and no DTW scratch before its first match.
func TestNewPipelineWarmProfileAllocation(t *testing.T) {
	short := synthProfile(t, 3)
	long := stretched(short, 4)
	cfg := DefaultPipelineConfig()
	var cost [2]uint64
	for i, p := range []*Profile{short, long} {
		warm, err := NewPipeline(p, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var pl *Pipeline
		cost[i] = bytesPerCall(200, func() { pl, _ = NewPipeline(p, cfg) })
		if pl.tracker.matcher != nil {
			t.Error("a new pipeline holds DTW scratch before its first match")
		}
		runtime.KeepAlive(warm)
	}
	t.Logf("NewPipeline: %d B (3×800 samples), %d B (3×3200)", cost[0], cost[1])
	// One position's grid alone is 6,400 B on the short profile and
	// 25,600 B on the long one; a per-session copy of any of them
	// shows in either check.
	if cost[0] >= 8*800 {
		t.Errorf("NewPipeline over a warm 3×800-sample profile allocates %d B, want < %d", cost[0], 8*800)
	}
	if cost[1] > cost[0]+256 {
		t.Errorf("NewPipeline allocates %d B over 4× longer grids against %d B: a buffer grows with the grid",
			cost[1], cost[0])
	}
}

// TestMatchViewRebuiltWhileProfileCached: a profile that outlives its
// trackers (as in a profile cache) gets a new view for its next
// tracker, and the old view's cleanup, running after that, must not
// unlist the new one.
func TestMatchViewRebuiltWhileProfileCached(t *testing.T) {
	p := synthProfile(t, 3)
	key := weak.Make(p)
	open := func() *Tracker {
		tk, err := NewTracker(p, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		return tk
	}
	// One goroutine runs every cleanup in turn, so a cleanup that
	// blocks holds back the old view's until the new view is listed.
	release := make(chan struct{})
	blocker := weak.Make(func() *[64]byte {
		b := new([64]byte)
		runtime.AddCleanup(b, func(ch chan struct{}) { <-ch }, release)
		return b
	}())
	old := weak.Make(open().view)
	deadline := time.Now().Add(10 * time.Second)
	for old.Value() != nil || blocker.Value() != nil {
		if time.Now().After(deadline) {
			close(release)
			t.Fatal("an unused view was never collected")
		}
		runtime.GC()
	}
	tk := open()
	close(release)
	for end := time.Now().Add(50 * time.Millisecond); time.Now().Before(end); {
		runtime.GC()
		viewsMu.Lock()
		listed := views[key].Value()
		viewsMu.Unlock()
		if listed != tk.view {
			t.Fatal("the old view's cleanup unlisted the live tracker's view")
		}
		time.Sleep(time.Millisecond)
	}
	if open().view != tk.view {
		t.Fatal("a second tracker built its own view")
	}
}
