package main

import (
	"time"

	"vihot/internal/core"
	"vihot/internal/csi"
	"vihot/internal/journal"
	"vihot/internal/profilestore"
	"vihot/internal/serve"
	"vihot/internal/wifi"
)

// layerSpans are the self times of one single-goroutine replay of the
// sampled trips through the layers the serving stack calls per item,
// each span recorded by the harness around the call.
type layerSpans struct {
	sanitize  []float64 // csi.Sanitize, ns
	match     []float64 // PushCSI calls that ran a DTW search, ns
	track     []float64 // PushCSI calls that ran none, ns
	estimate  []float64 // PushCSI calls that returned an estimate, ns
	appendNS  []float64 // journal.Writer.Append, ns
	searches  int
	estimates int
}

// searched reports whether a PushCSI call that returned est ran the
// DTW search: only matched (and continuity-held or fused) estimates
// come out of it; front-facing and camera estimates skip it.
func searched(est core.Estimate) bool {
	switch est.Source {
	case core.SourceCSI, core.SourceHeld, core.SourceFused:
		return true
	}
	return false
}

// replayLayers replays the items the sampled trips received, in order,
// through csi.Sanitize, core.Pipeline.PushCSI/PushIMU/PushCamera and
// journal.Writer.Append on one goroutine, with no queue in between.
func replayLayers(in *inputs, res *phaseResult, trips []int, journalPath string) (*layerSpans, error) {
	jw, err := journal.OpenFile(journalPath, journal.Config{})
	if err != nil {
		return nil, err
	}
	defer jw.Close()
	ls := &layerSpans{}
	dl := profilestore.NewDirLoader(in.profileDir)
	for _, ti := range trips {
		tp := &in.sched.trips[ti]
		p, err := dl.Load(in.cars[tp.car])
		if err != nil {
			return nil, err
		}
		pl, err := core.NewPipeline(p, core.DefaultPipelineConfig())
		if err != nil {
			return nil, err
		}
		st := in.streams[tp.stream]
		for i := tp.first; i < tp.first+res.trips[ti].pushed; i++ {
			it, err := decodeItem(st, i, tp.id, wifi.Decode)
			if err != nil {
				return nil, err
			}
			switch it.Kind {
			case serve.KindIMU:
				pl.PushIMU(it.IMU)
			case serve.KindCamera:
				pl.PushCamera(it.Camera)
			case serve.KindFrame:
				t0 := time.Now()
				phi, err := csi.Sanitize(it.Frame, 0, 1)
				ls.sanitize = append(ls.sanitize, float64(time.Since(t0)))
				if err != nil {
					continue
				}
				t0 = time.Now()
				est, ok := pl.PushCSI(it.Frame.Time, phi)
				d := float64(time.Since(t0))
				if ok && searched(est) {
					ls.match = append(ls.match, d)
					ls.searches++
				} else {
					ls.track = append(ls.track, d)
				}
				if !ok {
					continue
				}
				ls.estimates++
				ls.estimate = append(ls.estimate, d)
				rec := journal.Record{Kind: journal.KindEstimate, Session: tp.id, T: est.Time, Yaw: est.Yaw,
					Position: int32(est.Position), Source: uint8(est.Source), MatchDist: est.MatchDist}
				t0 = time.Now()
				jw.Append(rec)
				ls.appendNS = append(ls.appendNS, float64(time.Since(t0)))
			}
		}
	}
	return ls, jw.Close()
}
