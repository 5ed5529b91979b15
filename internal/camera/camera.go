// Package camera models the conventional video-based head tracker
// that ViHOT both replaces (as the baseline whose sampling rate it
// beats by >10×, Sec. 2) and falls back to during large steering
// events (Sec. 3.6.2). Only its observable envelope matters to the
// rest of the system: frame rate, processing latency, per-frame noise
// that grows with angular speed (rolling-shutter motion blur), light
// sensitivity, and loss of track during fast turns.
package camera

import (
	"math"

	"vihot/internal/stats"
)

// Light is the cabin illumination condition.
type Light int

const (
	Daylight Light = iota
	Dusk
	Night
)

// noiseScale returns the multiplier the light level applies to the
// per-frame estimation noise: typical cameras degrade sharply in the
// dark (Sec. 2.1).
func (l Light) noiseScale() float64 {
	switch l {
	case Dusk:
		return 2.5
	case Night:
		return 6
	default:
		return 1
	}
}

// String implements fmt.Stringer.
func (l Light) String() string {
	switch l {
	case Dusk:
		return "dusk"
	case Night:
		return "night"
	default:
		return "daylight"
	}
}

// Estimate is one camera head-pose output.
type Estimate struct {
	Time  float64
	Yaw   float64
	Valid bool // false while the tracker has lost the face
}

// Tracker simulates a dlib-style video head tracker.
type Tracker struct {
	FPS          float64 // frame rate (30 for a phone front camera)
	LatencyS     float64 // image-processing delay per frame
	BaseNoiseDeg float64 // per-frame noise in good light, slow motion
	BlurPerDPS   float64 // extra noise per deg/s of head speed
	LoseTrackDPS float64 // above this speed the face detector fails
	ReacquireS   float64 // time to reacquire after losing track
	Light        Light

	rng       *stats.RNG
	nextFrame float64
	lostUntil float64
}

// NewTracker returns a 30 FPS daylight tracker with dlib-like
// characteristics.
func NewTracker(rng *stats.RNG) *Tracker {
	return &Tracker{
		FPS:          30,
		LatencyS:     0.045,
		BaseNoiseDeg: 1.5,
		BlurPerDPS:   0.03,
		LoseTrackDPS: 220,
		ReacquireS:   0.4,
		rng:          rng,
	}
}

// FrameInterval returns the camera sampling interval.
func (c *Tracker) FrameInterval() float64 {
	if c.FPS <= 0 {
		return 1.0 / 30
	}
	return 1 / c.FPS
}

// Sample advances the tracker to time t and returns the newest frame
// estimate, if a new frame completed since the last call. truthYaw
// and truthRate describe the head at the frame capture instant.
//
// The estimate reflects the head pose LatencyS ago — video processing
// is not free — and its noise grows with head speed, the motion-blur
// effect that motivates ViHOT (Sec. 2.1).
func (c *Tracker) Sample(t float64, truthYaw, truthRate float64) (Estimate, bool) {
	if t < c.nextFrame {
		return Estimate{}, false
	}
	c.nextFrame = t + c.FrameInterval()

	speed := math.Abs(truthRate)
	if speed > c.LoseTrackDPS {
		c.lostUntil = t + c.ReacquireS
	}
	if t < c.lostUntil {
		return Estimate{Time: t, Valid: false}, true
	}
	noise := c.BaseNoiseDeg*c.Light.noiseScale() + c.BlurPerDPS*speed
	est := truthYaw
	if c.rng != nil {
		est += c.rng.Normal(0, noise)
	}
	return Estimate{Time: t, Yaw: est, Valid: true}, true
}

// Latency returns the processing latency.
func (c *Tracker) Latency() float64 { return c.LatencyS }

// Reset clears frame scheduling and loss state.
func (c *Tracker) Reset() { c.nextFrame, c.lostUntil = 0, 0 }
