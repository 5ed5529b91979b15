package core

import (
	"math"

	"vihot/internal/camera"
	"vihot/internal/imu"
)

// PipelineConfig tunes the full run-time pipeline: the CSI tracker
// plus the steering identifier and camera fallback of Sec. 3.6.
type PipelineConfig struct {
	Tracker Config
	// SteeringIdentifier enables the IMU-gated fallback; disabling it
	// reproduces the "w/o steering identifier" curve of Fig. 17b.
	SteeringIdentifier bool
	// QuarantineS keeps the CSI tracker muted this long after the car
	// stops turning, letting steering-polluted samples age out of the
	// window.
	QuarantineS float64

	// CameraFusion enables the hybrid mode sketched in the paper's
	// Sec. 7 ("Combining with cameras"): when a camera frame fresher
	// than FusionMaxAgeS exists, CSI estimates are blended with it.
	// The camera is robust to cabin motions the CSI is not, and the
	// CSI supplies the rate and latency the camera lacks.
	CameraFusion bool
	// FusionCSIWeight is the CSI share of a fused estimate (default
	// 0.75 — camera frames are 10× sparser and 45 ms stale).
	FusionCSIWeight float64
	// FusionMaxAgeS is how stale a camera frame may be and still fuse.
	FusionMaxAgeS float64
}

// DefaultPipelineConfig enables the steering identifier with the
// tracker defaults.
func DefaultPipelineConfig() PipelineConfig {
	return PipelineConfig{
		Tracker:            DefaultConfig(),
		SteeringIdentifier: true,
		QuarantineS:        0.4,
	}
}

// Pipeline composes the CSI tracker, the phone-IMU steering
// identifier, and the camera fallback into ViHOT's full run-time
// system (Fig. 4).
type Pipeline struct {
	cfg     PipelineConfig
	tracker *Tracker
	turn    *imu.TurnDetector

	camYaw   float64
	camTime  float64
	camValid bool

	turning         bool
	quarantineUntil float64
	nextFallbackEst float64
	lastIMUTime     float64
	haveIMU         bool

	// Timestamp discipline: each sensor stream must advance strictly
	// monotonically. Duplicated or reordered wire packets (and hostile
	// timestamp regressions) are rejected deterministically instead of
	// corrupting window resampling and watchdog arithmetic.
	lastCSITime float64
	haveCSITime bool
}

// imuWatchdogS fails the steering identifier open when the IMU feed
// goes silent: better to risk steering-polluted CSI than to starve the
// tracker behind a dead sensor.
const imuWatchdogS = 1.0

// NewPipeline builds the pipeline over a driver profile.
func NewPipeline(p *Profile, cfg PipelineConfig) (*Pipeline, error) {
	tk, err := NewTracker(p, cfg.Tracker)
	if err != nil {
		return nil, err
	}
	if cfg.QuarantineS < 0 {
		cfg.QuarantineS = 0
	}
	if cfg.FusionCSIWeight <= 0 || cfg.FusionCSIWeight > 1 {
		cfg.FusionCSIWeight = 0.75
	}
	if cfg.FusionMaxAgeS <= 0 {
		cfg.FusionMaxAgeS = 0.15
	}
	return &Pipeline{
		cfg:     cfg,
		tracker: tk,
		turn:    imu.NewTurnDetector(),
	}, nil
}

// Tracker exposes the underlying CSI tracker (for forecasting).
func (pl *Pipeline) Tracker() *Tracker { return pl.tracker }

// Profile returns the driver profile the pipeline tracks against —
// the same shared instance the pipeline was built over, never a copy
// (see the Profile immutability contract).
func (pl *Pipeline) Profile() *Profile { return pl.tracker.Profile() }

// Steering reports whether the steering identifier currently
// attributes CSI variation to the wheel.
func (pl *Pipeline) Steering() bool { return pl.turning }

// PushIMU feeds one phone-IMU reading. The phone senses only the car
// body, so a high yaw rate means the vehicle is being steered — any
// concurrent CSI variation is then hand motion, not head motion
// (Sec. 3.6.1).
func (pl *Pipeline) PushIMU(r imu.Reading) {
	if !pl.cfg.SteeringIdentifier {
		return
	}
	if !r.Finite() {
		// A corrupted reading carries no usable motion information and a
		// NaN timestamp would wedge the IMU watchdog permanently.
		return
	}
	if pl.haveIMU && r.Time <= pl.lastIMUTime {
		// Duplicate or reordered reading: the detector already consumed
		// this instant; replaying it would double-weight the smoother.
		return
	}
	pl.lastIMUTime = r.Time
	pl.haveIMU = true
	was := pl.turning
	pl.turning = pl.turn.Push(r)
	if was && !pl.turning {
		pl.quarantineUntil = r.Time + pl.cfg.QuarantineS
	}
	if pl.turning {
		// Entering (or continuing) a steering event: the CSI window is
		// polluted; drop it so the tracker restarts clean afterwards.
		pl.tracker.Reset()
	}
}

// PushCamera feeds one fallback-camera estimate (only consulted while
// steering).
func (pl *Pipeline) PushCamera(e camera.Estimate) {
	if !e.Valid {
		return
	}
	if math.IsNaN(e.Time) || math.IsInf(e.Time, 0) ||
		math.IsNaN(e.Yaw) || math.IsInf(e.Yaw, 0) {
		return
	}
	if pl.camValid && e.Time <= pl.camTime {
		// A duplicated or reordered frame is never fresher than the one
		// already held; adopting it would regress the fusion age check.
		return
	}
	pl.camYaw = e.Yaw
	pl.camTime = e.Time
	pl.camValid = true
}

// PushCSI feeds one sanitized CSI phase sample and returns an
// estimate when one is due. While the car is turning (or shortly
// after), CSI is quarantined and the camera fallback supplies the
// estimate instead.
func (pl *Pipeline) PushCSI(t, phi float64) (Estimate, bool) {
	if math.IsNaN(t) || math.IsInf(t, 0) || math.IsNaN(phi) || math.IsInf(phi, 0) {
		return Estimate{}, false
	}
	if pl.haveCSITime && t <= pl.lastCSITime {
		// Out-of-order, duplicated, or backwards-jumping sample: the
		// window is a time series — accepting it would fold the stream
		// back on itself. Rejection is deterministic: the same input
		// sequence always keeps exactly the strictly-increasing prefix
		// order.
		return Estimate{}, false
	}
	pl.lastCSITime, pl.haveCSITime = t, true
	if pl.turning && pl.haveIMU && t-pl.lastIMUTime > imuWatchdogS {
		// IMU watchdog: the gyro feed died while flagged as turning.
		pl.turning = false
		pl.turn.Reset()
		pl.quarantineUntil = 0
	}
	if pl.cfg.SteeringIdentifier && (pl.turning || t < pl.quarantineUntil) {
		if !pl.camValid || t < pl.nextFallbackEst {
			return Estimate{}, false
		}
		pl.nextFallbackEst = t + pl.tracker.cfg.EstimateEveryS
		return Estimate{Time: t, Yaw: pl.camYaw, Source: SourceCamera}, true
	}
	est, ok := pl.tracker.Push(t, phi)
	if ok && pl.cfg.CameraFusion && pl.camValid &&
		est.Source == SourceCSI && t-pl.camTime <= pl.cfg.FusionMaxAgeS {
		w := pl.cfg.FusionCSIWeight
		est.Yaw = w*est.Yaw + (1-w)*pl.camYaw
		est.Source = SourceFused
	}
	return est, ok
}
