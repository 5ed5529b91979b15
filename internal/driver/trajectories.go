package driver

import (
	"math"

	"vihot/internal/cabin"
	"vihot/internal/geom"
	"vihot/internal/stats"
)

// This file holds the trajectory families beyond the paper's own
// experiments — the neighboring workloads the scenario corpus replays
// (PAPERS.md: CarFi rider localization, Kotaru & Katti's 3-D position
// tracking) plus a drowsiness-pattern long-haul scan. Each is built
// from the same Track/PosTrack keyframe primitives as DrivingScenario,
// so the whole corpus shares one interpolation and ground-truth model.

// DrowsyScenario generates a long-haul monotony trip: long stretches
// facing the road with only tiny yaw wander, occasional slow mirror
// scans (a tired driver turns later and slower), recurring slow nods,
// and microsleep head droops — the pitch excursions a drowsiness
// monitor watches for. The head also slumps slowly downward between
// recoveries.
func DrowsyScenario(rng *stats.RNG, p Profile, duration float64) *Scenario {
	if duration <= 0 {
		duration = 120
	}
	yaw := NewTrack()
	pitch := NewTrack()
	pos := NewPosTrack()
	base := p.headBase()

	yaw.Append(0, 0)
	pitch.Append(0, 0)
	pos.Append(0, base)

	// Yaw: rare, slow scans at 60% of the driver's usual turn speed.
	t := 0.0
	slowSpeed := math.Max(p.TurnSpeedDPS*0.6, 40)
	for t < duration {
		t += rng.Uniform(8, 18)
		if t >= duration {
			break
		}
		target := rng.Uniform(0.3, 0.7) * p.MaxYawDeg
		if rng.Bool(0.5) {
			target = -target
		}
		d := sweepDuration(target, slowSpeed)
		yaw.Append(t, 0)
		yaw.Append(t+d, target)
		hold := p.GlanceHoldS * rng.Uniform(1.2, 2.0) // tired dwell runs long
		yaw.Append(t+d+hold, target)
		yaw.Append(t+2*d+hold, 0)
		t += 2*d + hold
	}
	yaw.Append(duration, yaw.At(duration))

	// Pitch: slow nodding all along, plus droop episodes — the head
	// dips chin-down over ~1.5 s, hangs, and snaps back up in ~0.3 s.
	t = 0.0
	slump := 0.0
	for t < duration {
		gap := rng.Uniform(6, 14)
		t += gap
		if t >= duration {
			break
		}
		if rng.Bool(0.35) {
			// Microsleep droop.
			depth := -rng.Uniform(14, 28)
			fall := rng.Uniform(1.0, 2.0)
			hang := rng.Uniform(0.4, 1.2)
			pitch.Append(t, 0)
			pitch.Append(t+fall, depth)
			pitch.Append(t+fall+hang, depth)
			pitch.Append(t+fall+hang+0.3, 2) // startle overshoot
			pitch.Append(t+fall+hang+0.8, 0)
			t += fall + hang + 0.8
			// The startle recovers the slump too.
			slump = 0
			pos.Append(t, base)
		} else {
			// Plain slow nod.
			depth := -rng.Uniform(3, 7)
			pitch.Append(t, 0)
			pitch.Append(t+0.8, depth)
			pitch.Append(t+1.6, 0)
			t += 1.6
			// The posture keeps settling between startles.
			slump = math.Min(slump+rng.Uniform(0.002, 0.006), 0.035)
			pos.Append(t, base.Add(geom.Vec3{X: slump * 0.4, Z: -slump}))
		}
	}
	pitch.Append(duration, pitch.At(duration))
	pos.Append(duration, pos.At(duration))

	return &Scenario{
		Name:          "drowsy",
		Duration:      duration,
		SpeedMPS:      6.5,
		HeadYaw:       yaw,
		HeadPitch:     pitch,
		HeadPos:       pos,
		LaneWobbleDeg: 0.8, // tired lane keeping wanders more
		LaneWobbleHz:  0.22,
	}
}

// PositionScanScenario generates a VR-style 3-D position-tracking
// workload (Kotaru & Katti, PAPERS.md): the head moves between random
// 3-D waypoints inside a box around the seat while the subject scans
// freely in yaw and pitch — position and orientation both vary
// continuously, unlike the paper's lean-grid profiling.
func PositionScanScenario(rng *stats.RNG, p Profile, duration float64) *Scenario {
	if duration <= 0 {
		duration = 60
	}
	yaw := NewTrack()
	pitch := NewTrack()
	pos := NewPosTrack()
	base := p.headBase()

	yaw.Append(0, 0)
	pitch.Append(0, 0)
	pos.Append(0, base)

	// Position: a new waypoint every 1–3 s inside ±9 cm lateral/
	// longitudinal and ±6 cm vertical — the scale of seated VR motion.
	t := 0.0
	for t < duration {
		t += rng.Uniform(1, 3)
		wp := base.Add(geom.Vec3{
			X: rng.Uniform(-0.09, 0.09),
			Y: rng.Uniform(-0.09, 0.09),
			Z: rng.Uniform(-0.06, 0.06),
		})
		pos.Append(t, wp)
	}

	// Orientation: continuous scanning, wider and faster than driving
	// glances, with free pitch excursions.
	t = 0.0
	for t < duration {
		target := rng.Uniform(-1, 1) * p.MaxYawDeg
		d := sweepDuration(target-yaw.At(t), p.TurnSpeedDPS)
		t += math.Max(d, 0.2)
		yaw.Append(t, target)
		if rng.Bool(0.4) {
			pt := rng.Uniform(-18, 22)
			pitch.Append(t, pt)
			pitch.Append(t+rng.Uniform(0.4, 1.0), 0)
		}
		t += rng.Uniform(0.1, 0.6)
	}
	yaw.Append(duration, yaw.At(duration))
	pitch.Append(duration, pitch.At(duration))
	pos.Append(duration, pos.At(duration))

	return &Scenario{
		Name:      "pos3d",
		Duration:  duration,
		SpeedMPS:  0, // stationary cabin: a parked car or a room
		HeadYaw:   yaw,
		HeadPitch: pitch,
		HeadPos:   pos,
	}
}

// RiderScenario generates a CarFi-style rider-localization workload
// (PAPERS.md): the tracked occupant shifts between nPositions discrete
// seat-lean positions — the same grid the profiler fingerprints — and
// sits mostly still between shifts, with small occasional glances. The
// informative signal is which position the occupant holds, so the
// pipeline's per-estimate Position output is the localization answer.
func RiderScenario(rng *stats.RNG, p Profile, duration float64, nPositions int) *Scenario {
	if duration <= 0 {
		duration = 60
	}
	if nPositions < 2 {
		nPositions = 5
	}
	yaw := NewTrack()
	pos := NewPosTrack()
	base := p.headBase()

	seat := func(i int) geom.Vec3 {
		return base.Add(cabin.HeadPosition(i, nPositions).Sub(cabin.DriverHeadBase))
	}

	cur := nPositions / 2
	yaw.Append(0, 0)
	pos.Append(0, seat(cur))

	t := 0.0
	for t < duration {
		// Hold the position; riders sit still far longer than drivers
		// glance.
		t += rng.Uniform(4, 9)
		if t >= duration {
			break
		}
		if rng.Bool(0.4) {
			// A small glance without changing seat-lean.
			target := rng.Uniform(15, 45)
			if rng.Bool(0.5) {
				target = -target
			}
			d := sweepDuration(target, p.TurnSpeedDPS*0.8)
			yaw.Append(t, 0)
			yaw.Append(t+d, target)
			yaw.Append(t+d+rng.Uniform(0.5, 1.5), target)
			yaw.Append(t+2*d+1.5, 0)
			t += 2*d + 1.5
			continue
		}
		// Shift to a neighboring lean position over ~1 s.
		next := cur + 1
		if cur == nPositions-1 || (cur > 0 && rng.Bool(0.5)) {
			next = cur - 1
		}
		pos.Append(t, seat(cur))
		pos.Append(t+rng.Uniform(0.8, 1.4), seat(next))
		cur = next
		t += 1.4
	}
	yaw.Append(duration, yaw.At(duration))
	pos.Append(duration, pos.At(duration))

	return &Scenario{
		Name:     "rider",
		Duration: duration,
		SpeedMPS: 8, // ride-share cruising
		HeadYaw:  yaw,
		HeadPos:  pos,
	}
}

// StillScenario keeps the subject front-facing and motionless — the
// noise-floor control every corpus needs.
func StillScenario(p Profile, duration float64) *Scenario {
	if duration <= 0 {
		duration = 30
	}
	return &Scenario{
		Name:     "still",
		Duration: duration,
		SpeedMPS: 0,
		HeadYaw:  NewTrack(Key{T: 0, V: 0}),
		HeadPos:  constPos(p.headBase()),
	}
}
