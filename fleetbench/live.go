package main

import (
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"time"
	"unsafe"

	"vihot/internal/core"
	"vihot/internal/journal"
	"vihot/internal/obs"
	"vihot/internal/profilestore"
	"vihot/internal/serve"
	"vihot/internal/wifi"
)

// dwellFamily is the manager's queue-dwell histogram.
const dwellFamily = "vihot_serve_queue_dwell_seconds"

// goodputHorizon is Fig. 10's ≈6° horizon: an estimate later than this
// after its frame was due no longer counts as goodput.
const goodputHorizon = 100 * time.Millisecond

// estRec is one estimate as the callback saw it.
type estRec struct {
	emit int64 // ns after the run started
	est  core.Estimate
}

// tripRun is what one live run recorded for one trip.
type tripRun struct {
	opened, closed bool
	pushed         int // items pushed, from the trip's first item on
	recs           []estRec
	cbNS           []int32 // traced: callback self time per estimate
	err            error
}

// tick is one per-second reading inside the window.
type tick struct {
	cpu    time.Duration
	frames int
}

// phaseResult is one live run of the schedule.
type phaseResult struct {
	trips []tripRun

	final        serve.CounterSnapshot // after CloseDrain
	atWin, atEnd serve.CounterSnapshot // window start and end
	journalOn    bool
	jstats       journal.Stats
	store        profilestore.Stats
	winNS        int64
	cpu          time.Duration
	framesWin    int
	ticks        []tick // at the window start and every second after
	allocWin     uint64
	heapLive     uint64
	steal        float64
	lagUS        []int32 // receive-loop lateness per event in the window
	decodeErrs   int
	decodeNS     []int32   // traced, window only
	pushNS       []int32   // traced, window only
	openNS       []int64   // OpenByKey self times (rare enough to time always)
	closeNS      []int64   // CloseSession self times
	dwellBounds  []float64 // traced: the queue-dwell histogram's buckets
	dwellAtWin   []uint64
	dwellAtEnd   []uint64
}

// live replays the schedule open-loop into a fresh serving stack: one
// goroutine plays vihot-serve's receive loop, decoding each datagram
// into a pooled frame and pushing it when it falls due; trips open by
// car key through a profile store and close once their tail drained.
func live(in *inputs, traced bool, dir string) (*phaseResult, error) {
	w, sc := in.w, in.sched
	res := &phaseResult{trips: make([]tripRun, len(sc.trips))}
	for i := range sc.trips {
		tp := &sc.trips[i]
		st := in.streams[tp.stream]
		durS := float64(st.items[len(st.items)-1].due-st.items[tp.first].due) / 1e9
		durS = min(durS, float64(sc.endNS)/1e9)
		res.trips[i].recs = make([]estRec, 0, int(durS*110)+32)
		if traced {
			res.trips[i].cbNS = make([]int32, 0, int(durS*110)+32)
		}
	}
	res.lagUS = make([]int32, 0, len(sc.events))
	if traced {
		res.decodeNS = make([]int32, 0, len(sc.events))
		res.pushNS = make([]int32, 0, len(sc.events))
	}

	// The traced run always keeps a registry: queue dwell comes from
	// the manager's own histogram.
	var reg *obs.Registry
	if w.metrics || traced {
		reg = obs.NewRegistry()
	}
	store := profilestore.New(profilestore.Config{
		Capacity: storeCapacity,
		Loader:   profilestore.NewDirLoader(in.profileDir),
		Metrics:  reg,
	})
	var jw *journal.Writer
	if w.journal {
		var err error
		jw, err = journal.OpenFile(filepath.Join(dir, fmt.Sprintf("live-%v.vhj", traced)), journal.Config{Metrics: reg})
		if err != nil {
			return nil, err
		}
		res.journalOn = true
	}

	baseHeap, baseRecs := liveHeap(), res.recordBytes()

	var start time.Time
	runs := res.trips
	mgr := serve.New(serve.Config{
		RecycleFrames: true,
		Metrics:       reg,
		Profiles:      store,
		Journal:       jw,
		OnEstimate: func(id string, est core.Estimate) {
			emit := int64(time.Since(start))
			tr := &runs[tripIndex(id)]
			tr.recs = append(tr.recs, estRec{emit: emit, est: est})
			if traced {
				tr.cbNS = append(tr.cbNS, int32(int64(time.Since(start))-emit))
			}
		},
	})
	pcfg := core.DefaultPipelineConfig()

	var (
		cpu0   time.Duration
		alloc0 uint64
		host0  hostCPU
		winT0  int64
	)
	var ms runtime.MemStats
	markStart := func(now int64) {
		winT0 = now
		res.atWin = mgr.Counters().Snapshot()
		if traced {
			res.dwellBounds, res.dwellAtWin = bucketCounts(reg, dwellFamily)
		}
		runtime.ReadMemStats(&ms)
		alloc0 = ms.TotalAlloc
		host0 = readHostCPU()
		cpu0 = cpuTime()
		res.ticks = append(res.ticks, tick{cpu: cpu0})
	}
	markEnd := func(now int64) {
		res.cpu = cpuTime() - cpu0
		res.ticks = append(res.ticks, tick{cpu: cpu0 + res.cpu, frames: res.framesWin})
		res.steal = stealPct(host0, readHostCPU())
		runtime.ReadMemStats(&ms)
		res.allocWin = ms.TotalAlloc - alloc0
		res.atEnd = mgr.Counters().Snapshot()
		if traced {
			_, res.dwellAtEnd = bucketCounts(reg, dwellFamily)
		}
		res.winNS = now - winT0
	}

	ev := sc.events
	started := false
	start = time.Now()
	for i := 0; ; {
		now := int64(time.Since(start))
		if !started && now >= sc.warmNS {
			markStart(now)
			started = true
		}
		if now >= sc.endNS {
			markEnd(now)
			break
		}
		next := sc.endNS
		if i < len(ev) {
			next = min(next, ev[i].due)
		}
		if !started {
			next = min(next, sc.warmNS)
		} else if nextTick := sc.warmNS + int64(len(res.ticks))*1e9; now >= nextTick {
			res.ticks = append(res.ticks, tick{cpu: cpuTime(), frames: res.framesWin})
		} else {
			next = min(next, nextTick)
		}
		if next > now {
			time.Sleep(time.Duration(next - now))
			continue
		}
		for ; i < len(ev) && ev[i].due <= now; i++ {
			e := &ev[i]
			tp := &sc.trips[e.trip]
			tr := &res.trips[e.trip]
			if started {
				res.lagUS = append(res.lagUS, int32((now-e.due)/1000))
			}
			switch e.op {
			case opOpen:
				t0 := time.Now()
				tr.err = mgr.OpenByKey(tp.id, in.cars[tp.car], pcfg)
				res.openNS = append(res.openNS, int64(time.Since(t0)))
				tr.opened = tr.err == nil
			case opClose:
				if !tr.opened {
					continue
				}
				t0 := time.Now()
				tr.err = mgr.CloseSession(tp.id)
				res.closeNS = append(res.closeNS, int64(time.Since(t0)))
				tr.closed = true
			case opItem:
				st := in.streams[tp.stream]
				wi := &st.items[e.idx]
				var (
					it  serve.Item
					err error
				)
				if traced && started && wi.n > 0 {
					t0 := time.Now()
					it, err = decodeItem(st, int(e.idx), tp.id, wifi.DecodePooled)
					res.decodeNS = append(res.decodeNS, int32(time.Since(t0)))
				} else {
					it, err = decodeItem(st, int(e.idx), tp.id, wifi.DecodePooled)
				}
				if err != nil {
					res.decodeErrs++
					continue
				}
				if started && it.Kind == serve.KindFrame {
					res.framesWin++
				}
				if traced && started {
					t0 := time.Now()
					mgr.Push(it)
					res.pushNS = append(res.pushNS, int32(time.Since(t0)))
				} else {
					mgr.Push(it)
				}
				tr.pushed++
			}
		}
	}

	// The generator has stopped: let every queued item drain, read the
	// live heap the serving stack holds, then close what is still open.
	mgr.Flush()
	// The harness's own records are not the program's heap.
	heap := liveHeap()
	res.heapLive = heap - min(heap, baseHeap+res.recordBytes()-baseRecs)
	for i := range res.trips {
		tr := &res.trips[i]
		if tr.opened && !tr.closed {
			t0 := time.Now()
			if err := mgr.CloseSession(sc.trips[i].id); err != nil && tr.err == nil {
				tr.err = err
			}
			res.closeNS = append(res.closeNS, int64(time.Since(t0)))
			tr.closed = true
		}
	}
	mgr.CloseDrain()
	res.final = mgr.Counters().Snapshot()
	if jw != nil {
		if err := jw.Close(); err != nil {
			return nil, fmt.Errorf("closing journal: %w", err)
		}
		res.jstats = jw.Stats()
	}
	res.store = store.Stats()
	return res, nil
}

// liveHeap collects twice and returns the heap bytes still reachable.
// The second collection empties the sync.Pool caches, the csi frame
// pool among them, whose size depends only on the last few
// milliseconds of recycling.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// decodeItem turns item i of a stream into the serve.Item the receive
// loop pushes: datagrams through the wire decoder, camera items as
// they are.
func decodeItem(st *stream, i int, session string, decode func([]byte) (*wifi.Packet, error)) (serve.Item, error) {
	wi := &st.items[i]
	it := serve.Item{Session: session}
	if wi.n == 0 {
		it.Kind, it.Camera = serve.KindCamera, st.cams[wi.off]
		return it, nil
	}
	pkt, err := decode(st.wire[wi.off : wi.off+wi.n])
	if err != nil {
		return it, err
	}
	switch pkt.Type {
	case wifi.TypeCSI:
		it.Kind, it.Frame = serve.KindFrame, pkt.CSI
	default:
		it.Kind, it.IMU = serve.KindIMU, *pkt.IMU
	}
	return it, nil
}

// recordBytes is the heap the harness's estimate records occupy.
func (res *phaseResult) recordBytes() uint64 {
	var b uint64
	for i := range res.trips {
		b += uint64(cap(res.trips[i].recs))*uint64(unsafe.Sizeof(estRec{})) + uint64(cap(res.trips[i].cbNS))*4
	}
	return b
}

// e2e is one phase's end-to-end view over the measured window.
type e2e struct {
	latMS      []float64
	latBySec   [][]float64 // latMS split by the second of the window the item fell due in
	errDeg     []float64
	good       int
	unmatched  int
	winS       float64
	offered    uint64 // items offered over the whole run
	failed     uint64 // shed, dropped or refused over the whole run
	framesPerS float64
}

// endToEnd scores every estimate whose triggering item fell due inside
// the window: latency from due to callback, and the error against the
// ground truth at the emit instant — the estimate's stream time plus
// its latency — so a stale estimate scores as wrong as the user sees.
func endToEnd(in *inputs, res *phaseResult) e2e {
	sc := in.sched
	var out e2e
	out.latBySec = make([][]float64, (sc.endNS-sc.warmNS+1e9-1)/1e9)
	for ti := range res.trips {
		tp := &sc.trips[ti]
		st := in.streams[tp.stream]
		for _, r := range res.trips[ti].recs {
			off, ok := st.dueOf[math.Float64bits(r.est.Time)]
			if !ok {
				out.unmatched++
				continue
			}
			due := tp.base + off
			if due < sc.warmNS || due >= sc.endNS {
				continue
			}
			lat := r.emit - due
			out.latMS = append(out.latMS, float64(lat)/1e6)
			k := (due - sc.warmNS) / 1e9
			out.latBySec[k] = append(out.latBySec[k], float64(lat)/1e6)
			if lat <= int64(goodputHorizon) {
				out.good++
			}
			out.errDeg = append(out.errDeg, emitError(st, r.est, lat))
		}
	}
	out.winS = float64(res.winNS) / 1e9
	f := res.final
	out.offered = f.Total() + f.RejectedClosed
	out.failed = f.DroppedStale + f.DroppedUnknown + f.DroppedClosed + f.RejectedClosed
	a, b := res.atWin, res.atEnd
	accepted := b.Total() - a.Total()
	served := 1.0
	if accepted > 0 {
		served = 1 - float64(b.DroppedStale-a.DroppedStale)/float64(accepted)
	}
	out.framesPerS = float64(b.FramesIn-a.FramesIn) * served / out.winS
	return out
}
