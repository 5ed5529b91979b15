package core

import (
	"runtime"
	"sync"
	"weak"

	"vihot/internal/geom"
)

// matchView is the form of a profile the DTW scan reads: every
// position's phase grid recentred on that position's circular mean,
// so typical values sit far from the ±π seam, and the means that
// recentre each query. It is a pure function of an immutable profile,
// so every Tracker over one *Profile instance shares one view,
// read-only (DESIGN §10).
type matchView struct {
	centered [][]float64
	means    []float64
}

func newMatchView(p *Profile) *matchView {
	v := &matchView{
		centered: make([][]float64, len(p.Positions)),
		means:    make([]float64, len(p.Positions)),
	}
	for i := range p.Positions {
		pos := &p.Positions[i]
		mu := pos.MeanPhase()
		c := make([]float64, len(pos.PhiGrid))
		for k, phi := range pos.PhiGrid {
			c[k] = geom.PhaseDiff(phi, mu)
		}
		v.centered[i], v.means[i] = c, mu
	}
	return v
}

// views maps each profile instance to the view built for it. Neither
// side is pinned: trackers hold their view (and profile) strongly, so
// a view lives exactly as long as some tracker uses it, and a cleanup
// on the view removes its entry. A profile that only a cache still
// holds therefore keeps no view.
var (
	viewsMu sync.Mutex
	views   = map[weak.Pointer[Profile]]weak.Pointer[matchView]{}
)

// viewEntry is one entry of views, the argument of its cleanup.
type viewEntry struct {
	profile weak.Pointer[Profile]
	view    weak.Pointer[matchView]
}

// viewOf returns p's shared match view, building it if no live tracker
// holds one. Trackers open far off the per-frame path, so one lock
// over the table is enough, and it builds each view once.
func viewOf(p *Profile) *matchView {
	key := weak.Make(p)
	viewsMu.Lock()
	defer viewsMu.Unlock()
	if v := views[key].Value(); v != nil {
		return v
	}
	v := newMatchView(p)
	e := viewEntry{key, weak.Make(v)}
	views[key] = e.view
	runtime.AddCleanup(v, dropView, e)
	return v
}

// dropView removes a dead view's entry unless a newer view replaced it.
func dropView(e viewEntry) {
	viewsMu.Lock()
	defer viewsMu.Unlock()
	if views[e.profile] == e.view {
		delete(views, e.profile)
	}
}
