package serve

import (
	"math"

	"vihot/internal/core"
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
// on the camera or the tracker's forecast; beyond StaleAfterS the
// session is STALE and emits nothing at all. Secondary sensor outages
// (IMU or camera silence after the sensor has been seen once) cap the
// state at DEGRADED — tracking still works, but the steering
// identifier or fallback is flying blind.
//
// Recovery is hysteretic: when CSI resumes after a coasting-or-worse
// episode the tracker is restarted (its window would otherwise span
// the blackout) and the session holds at DEGRADED until CSI has been
// flowing for RecoverAfterS, so one stray packet cannot flap the
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

// HealthConfig tunes the per-session degradation state machine. The
// zero value enables the machine with the defaults below; set Disable
// to opt out entirely (no watchdogs, no coasting, no suppression).
type HealthConfig struct {
	// Disable turns the state machine off.
	Disable bool
	// DegradedAfterS is the CSI gap (seconds of stream time) that
	// leaves HEALTHY. Default 0.25 — two orders of magnitude above the
	// link's normal worst-case inter-frame gap (~34 ms), so CSMA
	// backoff never trips it.
	DegradedAfterS float64
	// CoastAfterS is the CSI gap that enters COASTING. Default 0.75.
	CoastAfterS float64
	// StaleAfterS is the CSI gap that enters STALE. Default 1.5.
	StaleAfterS float64
	// RecoverAfterS is how long CSI must flow again after a
	// coasting-or-worse episode before the session re-enters HEALTHY.
	// Default 0.5.
	RecoverAfterS float64
	// CoastEveryS throttles coasted estimates. Default 0.1 — a 10 Hz
	// heartbeat, deliberately below the tracker's healthy cadence so a
	// coasting session is visibly degraded in its output rate too.
	CoastEveryS float64
	// SensorOutageS is how long the IMU or camera may fall silent —
	// once that sensor has been seen at all — before the session is
	// flagged DEGRADED. Default 1.0, matching the pipeline's own IMU
	// watchdog.
	SensorOutageS float64
	// FreshCameraS is how recent the last valid camera estimate must
	// be for coasting to relay it instead of the tracker's forecast.
	// Default 0.2.
	FreshCameraS float64
}

// withDefaults fills unset fields.
func (hc HealthConfig) withDefaults() HealthConfig {
	if hc.DegradedAfterS <= 0 {
		hc.DegradedAfterS = 0.25
	}
	if hc.CoastAfterS <= 0 {
		hc.CoastAfterS = 0.75
	}
	if hc.StaleAfterS <= 0 {
		hc.StaleAfterS = 1.5
	}
	if hc.RecoverAfterS <= 0 {
		hc.RecoverAfterS = 0.5
	}
	if hc.CoastEveryS <= 0 {
		hc.CoastEveryS = 0.1
	}
	if hc.SensorOutageS <= 0 {
		hc.SensorOutageS = 1.0
	}
	if hc.FreshCameraS <= 0 {
		hc.FreshCameraS = 0.2
	}
	return hc
}

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
	s.advanceClock(t)
	target := m.targetHealth(s)
	if target != s.h {
		m.transition(s, target)
	}
}

// targetHealth computes the state the session should be in at its
// current clock.
func (m *Manager) targetHealth(s *session) Health {
	hc := &m.cfg.Health
	h := Healthy
	if s.haveCSI {
		switch gap := s.now - s.lastCSI; {
		case gap > hc.StaleAfterS:
			h = Stale
		case gap > hc.CoastAfterS:
			h = Coasting
		case gap > hc.DegradedAfterS:
			h = Degraded
		}
	}
	if h == Healthy && s.recovering {
		if s.now-s.recoverStart < hc.RecoverAfterS {
			h = Degraded
		} else {
			s.recovering = false
		}
	}
	if h == Healthy {
		// Secondary sensors cap the state at DEGRADED: losing the IMU
		// or camera does not starve the tracker, it blinds the
		// steering identifier / fallback.
		if (s.haveIMU && s.now-s.lastIMU > hc.SensorOutageS) ||
			(s.haveCam && s.now-s.lastCam > hc.SensorOutageS) {
			h = Degraded
		}
	}
	return h
}

// transition records a state change: counters, the published atomic,
// and the optional OnHealth sink.
func (m *Manager) transition(s *session, to Health) {
	from := s.h
	s.h = to
	s.health.Store(uint32(to))
	switch to {
	case Degraded:
		m.counters.toDegraded.Add(1)
	case Coasting:
		m.counters.toCoasting.Add(1)
	case Stale:
		m.counters.toStale.Add(1)
	case Healthy:
		m.counters.recoveries.Add(1)
	}
	m.journalHealth(s, from, to)
	if m.cfg.OnHealth != nil {
		m.cfg.OnHealth(s.id, s.now, from, to)
	}
}

// noteCSIResumed runs on every accepted CSI sample, after observe (so
// the starvation episode the gap proves has already been recorded) and
// before lastCSI moves forward. A gap past the coasting threshold
// means the tracker's window spans the blackout: restart it clean and
// hold the session at DEGRADED until flow is re-established.
func (m *Manager) noteCSIResumed(s *session, t float64) {
	if !s.haveCSI || t-s.lastCSI <= m.cfg.Health.CoastAfterS {
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
	hc := &m.cfg.Health
	var est core.Estimate
	switch {
	case s.haveCam && t-s.lastCam <= hc.FreshCameraS:
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
	s.nextCoast = t + hc.CoastEveryS
	m.counters.coasted.Add(1)
	m.emit(s, est)
}

// emit delivers one estimate to the sinks and counts it.
func (m *Manager) emit(s *session, est core.Estimate) {
	m.counters.estimates.Add(1)
	m.journalEstimate(s, est)
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
