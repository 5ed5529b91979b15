package serve

import (
	"math"

	"vihot/internal/core"
	"vihot/internal/journal"
)

// Health is a session's degradation state. The state machine is
//
//	HEALTHY → DEGRADED → COASTING → STALE
//	   ↑_________↑___________↑________↓   (recovery)
//
// driven entirely by the timestamps of the items a session ingests —
// the serving engine has no wall clock of its own, so "staleness" is
// measured on the stream's own timeline and the machine behaves
// identically in concurrent, deterministic, and replayed executions.
//
// The primary driver is CSI starvation: the gap between the session
// clock and the last usable (sanitized, in-order) CSI sample. Small
// gaps degrade confidence; larger gaps switch the session to coasting
// on the camera or the tracker's forecast; beyond staleAfterS the
// session is STALE and emits nothing at all. Secondary sensor outages
// (IMU or camera silence after the sensor has been seen once) cap the
// state at DEGRADED — tracking still works, but the steering
// identifier or fallback is flying blind.
//
// Recovery is hysteretic: when CSI resumes after a coasting-or-worse
// episode the tracker is restarted (its window would otherwise span
// the blackout) and the session holds at DEGRADED until CSI has been
// flowing for recoverAfterS, so one stray packet cannot flap the
// session back to HEALTHY.
type Health uint8

// Degradation states, ordered from best to worst.
const (
	Healthy  Health = iota // all sensors flowing, estimates at full confidence
	Degraded               // brief CSI gap or secondary-sensor outage
	Coasting               // CSI starved: serving camera/forecast estimates
	Stale                  // CSI gone too long: no estimates emitted
)

// String implements fmt.Stringer.
func (h Health) String() string {
	switch h {
	case Healthy:
		return "healthy"
	case Degraded:
		return "degraded"
	case Coasting:
		return "coasting"
	case Stale:
		return "stale"
	default:
		return "Health(?)"
	}
}

// Confidence maps a degradation state to the confidence weight the
// session's estimates carry: 1 when healthy, 0 when stale (stale
// sessions emit nothing, so the zero is never attached to an
// estimate — it is the answer Manager.Health implies for consumers
// polling a silent session).
func (h Health) Confidence() float64 {
	switch h {
	case Healthy:
		return 1
	case Degraded:
		return 0.6
	case Coasting:
		return 0.3
	default:
		return 0
	}
}

// Degradation-machine thresholds, in seconds of stream time
// (DESIGN.md §8).
const (
	// degradedAfterS is the CSI gap that leaves HEALTHY — two orders of
	// magnitude above the link's normal worst-case inter-frame gap
	// (~34 ms), so CSMA backoff never trips it.
	degradedAfterS = 0.25
	// coastAfterS is the CSI gap that enters COASTING.
	coastAfterS = 0.75
	// staleAfterS is the CSI gap that enters STALE.
	staleAfterS = 1.5
	// recoverAfterS is how long CSI must flow again after a
	// coasting-or-worse episode before the session re-enters HEALTHY.
	recoverAfterS = 0.5
	// coastEveryS throttles coasted estimates: a 10 Hz heartbeat,
	// deliberately below the tracker's healthy cadence so a coasting
	// session is visibly degraded in its output rate too.
	coastEveryS = 0.1
	// sensorOutageS is how long the IMU or camera may fall silent —
	// once that sensor has been seen at all — before the session is
	// flagged DEGRADED; it matches the pipeline's own IMU watchdog.
	sensorOutageS = 1.0
	// freshCameraS is how recent the last valid camera estimate must
	// be for coasting to relay it instead of the tracker's forecast.
	freshCameraS = 0.2
)

// coastMaxHorizonS bounds how far ahead of its last real estimate a
// coasting session will extrapolate the tracker's forecast; beyond
// this the profile cursor has nothing credible left to say and the
// coasted yaw simply holds.
const coastMaxHorizonS = 0.4

// observe advances the session clock to t and drives the state
// machine. It is called (worker-goroutine-only, like all per-session
// state) for every processed item — before the item mutates the
// sensor freshness it is about to prove.
func (m *Manager) observe(s *session, t float64) {
	if !s.haveNow || t > s.now {
		s.now, s.haveNow = t, true
		if s.mirror {
			s.clockBits.Store(math.Float64bits(t))
		}
	}
	target := m.targetHealth(s)
	if target != s.h {
		m.transition(s, target)
	}
}

// targetHealth computes the state the session should be in at its
// current clock.
func (m *Manager) targetHealth(s *session) Health {
	h := Healthy
	if s.haveCSI {
		switch gap := s.now - s.lastCSI; {
		case gap > staleAfterS:
			h = Stale
		case gap > coastAfterS:
			h = Coasting
		case gap > degradedAfterS:
			h = Degraded
		}
	}
	if h == Healthy && s.recovering {
		if s.now-s.recoverStart < recoverAfterS {
			h = Degraded
		} else {
			s.recovering = false
		}
	}
	if h == Healthy {
		// Secondary sensors cap the state at DEGRADED: losing the IMU
		// or camera does not starve the tracker, it blinds the
		// steering identifier / fallback.
		if (s.haveIMU && s.now-s.lastIMU > sensorOutageS) ||
			(s.haveCam && s.now-s.lastCam > sensorOutageS) {
			h = Degraded
		}
	}
	return h
}

// transition records a state change: the published atomic, then one
// KindHealth event.
func (m *Manager) transition(s *session, to Health) {
	from := s.h
	s.h = to
	s.health.Store(uint32(to))
	m.publish(journal.Record{Kind: journal.KindHealth, Session: s.id, T: s.now,
		From: uint8(from), To: uint8(to)})
}

// noteCSIResumed runs on every accepted CSI sample, after observe (so
// the starvation episode the gap proves has already been recorded) and
// before lastCSI moves forward. A gap past the coasting threshold
// means the tracker's window spans the blackout: restart it clean and
// hold the session at DEGRADED until flow is re-established.
func (m *Manager) noteCSIResumed(s *session, t float64) {
	if !s.haveCSI || t-s.lastCSI <= coastAfterS {
		return
	}
	s.pl.Tracker().Reset()
	m.counters.trackerResets.Add(1)
	s.recovering = true
	s.recoverStart = t
}

// maybeCoast emits a camera- or forecast-derived estimate while the
// session is COASTING. It runs on secondary-sensor items only — the
// machine is event-driven, so a session starved of *everything* goes
// silent rather than inventing a clock.
func (m *Manager) maybeCoast(s *session, t float64) {
	if s.h != Coasting || t < s.nextCoast {
		return
	}
	var est core.Estimate
	switch {
	case s.haveCam && t-s.lastCam <= freshCameraS:
		// The camera knows yaw, not the seat position — carry the last
		// tracked position forward exactly like the forecast branch, so
		// downstream fusion never sees it flicker to zero mid-coast.
		est = core.Estimate{Time: t, Yaw: s.camYaw, Source: core.SourceCamera,
			Position: s.lastEst.Position}
	case s.hasEst:
		horizon := math.Min(t-s.lastEst.Time, coastMaxHorizonS)
		yaw := s.pl.Tracker().Forecast(s.lastEst, horizon)
		est = core.Estimate{Time: t, Yaw: yaw, Source: core.SourceCoast, Position: s.lastEst.Position}
	default:
		// Nothing credible to coast on yet.
		return
	}
	s.nextCoast = t + coastEveryS
	m.counters.coasted.Add(1)
	m.emit(s, est)
}

// emit publishes one estimate, tagged with the health it was emitted
// under, then delivers it to OnEstimate.
func (m *Manager) emit(s *session, est core.Estimate) {
	m.publish(journal.Record{Kind: journal.KindEstimate, Session: s.id, T: est.Time,
		Yaw: est.Yaw, Position: int32(est.Position), Source: uint8(est.Source),
		MatchDist: est.MatchDist, Health: uint8(s.h)})
	if m.cfg.OnEstimate != nil {
		m.cfg.OnEstimate(s.id, est)
	}
}

// Health returns the session's current degradation state. It is safe
// to call concurrently with pushers and workers; for a closed or
// unknown session it returns (Healthy, false).
func (m *Manager) Health(id string) (Health, bool) {
	sh := m.shardFor(id)
	sh.mu.Lock()
	s := sh.sessions[id]
	sh.mu.Unlock()
	if s == nil {
		return Healthy, false
	}
	return Health(s.health.Load()), true
}
