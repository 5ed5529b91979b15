package dsp

import "math"

// StabilityDetector decides whether a streaming signal has been
// "stable" — its standard deviation below a threshold — for at least a
// configured duration. ViHOT uses it to detect the driver facing the
// road (0° head orientation): a stable CSI phase means no head motion,
// which is the anchor for position estimation (Sec. 3.4.1).
//
// The detector keeps a sliding time window of samples; Push costs two
// passes over the window to take its mean and standard deviation.
type StabilityDetector struct {
	window    float64 // seconds of history to consider
	threshold float64 // max std-dev considered stable
	minHold   float64 // seconds the signal must stay stable

	win        Window
	stableFrom float64 // time stability began, NaN when unstable
	lastMean   float64
}

// NewStabilityDetector returns a detector over a sliding window of the
// given length (seconds) that declares stability once the windowed
// standard deviation stays below threshold for minHold seconds.
// Non-positive parameters are clamped to small sane defaults.
func NewStabilityDetector(window, threshold, minHold float64) *StabilityDetector {
	if window <= 0 {
		window = 0.1
	}
	if threshold <= 0 {
		threshold = 1e-3
	}
	if minHold < 0 {
		minHold = 0
	}
	return &StabilityDetector{
		window:     window,
		threshold:  threshold,
		minHold:    minHold,
		stableFrom: math.NaN(),
	}
}

// Push feeds one sample and returns whether the signal is currently
// considered stable. Samples must arrive in time order; out-of-order
// samples are dropped.
func (d *StabilityDetector) Push(t, v float64) bool {
	if buf := d.win.Series(); len(buf) > 0 && t < buf[len(buf)-1].T {
		return d.Stable(t)
	}
	d.win.Push(Sample{T: t, V: v}, d.window)
	buf := d.win.Series()
	if len(buf) < 2 {
		return false
	}
	var std float64
	d.lastMean, std = meanStd(buf)
	if std <= d.threshold {
		if math.IsNaN(d.stableFrom) {
			d.stableFrom = t
		}
	} else {
		d.stableFrom = math.NaN()
	}
	return d.Stable(t)
}

// Stable reports whether the signal has been stable for at least
// minHold seconds as of time t.
func (d *StabilityDetector) Stable(t float64) bool {
	return !math.IsNaN(d.stableFrom) && t-d.stableFrom >= d.minHold
}

// Mean returns the mean of the current window, meaningful only while
// Stable. ViHOT uses it as the front-facing phase fingerprint φ⁰r.
func (d *StabilityDetector) Mean() float64 { return d.lastMean }

// Reset clears all detector state.
func (d *StabilityDetector) Reset() {
	d.win.Reset()
	d.stableFrom = math.NaN()
	d.lastMean = 0
}

// meanStd returns the mean and population standard deviation of the
// sample values, with the same float operations as stdOf.
func meanStd(s Series) (mean, std float64) {
	for _, x := range s {
		mean += x.V
	}
	mean /= float64(len(s))
	var ss float64
	for _, x := range s {
		d := x.V - mean
		ss += d * d
	}
	return mean, math.Sqrt(ss / float64(len(s)))
}
