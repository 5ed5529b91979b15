// Package rf models the physical radio layer: 802.11 channelization,
// subcarrier wavelengths, antenna radiation patterns, ray paths, and
// the multipath channel whose CSI the paper's Eq. (1) describes:
//
//	H_f(t) = Σₖ Aᵏ_f(t) · e^{ j·2π·dₖ(t)/λ_f }
//
// Everything is deterministic given the scene geometry; hardware phase
// corruption (CFO/SFO, thermal noise) lives in package csi.
package rf

import (
	"fmt"
	"math"
	"math/cmplx"

	"vihot/internal/geom"
)

// SpeedOfLight in m/s.
const SpeedOfLight = 299792458.0

// Channelization describes the OFDM subcarrier layout of a WiFi link
// as seen by a CSI extraction tool. The Intel 5300 used by the paper
// reports 30 grouped subcarriers across a 20 MHz 802.11n channel.
type Channelization struct {
	CenterHz     float64 // carrier center frequency
	SpacingHz    float64 // spacing between reported subcarriers
	NSubcarriers int     // number of reported subcarriers
}

// Channel2G4 returns the paper's prototype channelization: 2.4 GHz
// band (channel 6, 2.437 GHz), 30 reported subcarriers spanning a
// 20 MHz channel (grouped spacing ≈ 2 × 312.5 kHz).
func Channel2G4() Channelization {
	return Channelization{
		CenterHz:     2.437e9,
		SpacingHz:    625e3,
		NSubcarriers: 30,
	}
}

// Channel5G returns a 5 GHz channelization (channel 36) for the
// future-work experiments of Sec. 7.
func Channel5G() Channelization {
	return Channelization{
		CenterHz:     5.180e9,
		SpacingHz:    625e3,
		NSubcarriers: 30,
	}
}

// Validate reports a descriptive error for nonsensical layouts.
func (c Channelization) Validate() error {
	if c.CenterHz <= 0 {
		return fmt.Errorf("rf: center frequency %v Hz not positive", c.CenterHz)
	}
	if c.NSubcarriers < 1 {
		return fmt.Errorf("rf: need at least 1 subcarrier, got %d", c.NSubcarriers)
	}
	if c.SpacingHz < 0 {
		return fmt.Errorf("rf: negative subcarrier spacing %v", c.SpacingHz)
	}
	return nil
}

// SubcarrierHz returns the absolute frequency of subcarrier index k in
// [0, NSubcarriers). Subcarriers are laid out symmetrically around the
// center frequency.
func (c Channelization) SubcarrierHz(k int) float64 {
	offset := float64(k) - float64(c.NSubcarriers-1)/2
	return c.CenterHz + offset*c.SpacingHz
}

// Wavelength returns λ in meters for subcarrier k.
func (c Channelization) Wavelength(k int) float64 {
	return SpeedOfLight / c.SubcarrierHz(k)
}

// CenterWavelength returns λ at the channel center.
func (c Channelization) CenterWavelength() float64 {
	return SpeedOfLight / c.CenterHz
}

// Path is one propagation path between TX and RX: an ordered polyline
// through zero or more reflection points, plus an optional extra
// electrical length for waves that creep around an obstacle rather
// than travel the straight polyline (diffraction detour).
type Path struct {
	Points       []geom.Vec3 // TX, reflections..., RX
	Reflectivity float64     // product of reflection coefficients, 1 for LOS
	Blockage     float64     // extra amplitude attenuation in [0,1], 1 = clear
	Extra        float64     // extra electrical path length, meters
	TXGain       float64     // TX antenna amplitude gain toward first segment
	RXGain       float64     // RX antenna amplitude gain from last segment
}

// Length returns the electrical path length in meters: the polyline
// length plus any diffraction detour.
func (p Path) Length() float64 { return geom.PathLength(p.Points...) + p.Extra }

// Amplitude returns the received amplitude of the path relative to a
// unit transmit amplitude: free-space spreading 1/d, reflection loss,
// blockage, and antenna gains. Paths shorter than a centimeter are
// clamped to avoid near-field singularities.
func (p Path) Amplitude() float64 { return p.amplitude(p.Length()) }

// amplitude is Amplitude for a path whose Length is d.
func (p Path) amplitude(d float64) float64 {
	if d < 0.01 {
		d = 0.01
	}
	a := p.Reflectivity * p.Blockage * p.TXGain * p.RXGain / d
	if a < 0 {
		a = 0
	}
	return a
}

// CSI computes the complex channel response of a set of paths on
// subcarrier k: the coherent sum of per-path phasors (Eq. 1).
func CSI(paths []Path, c Channelization, k int) complex128 {
	lambda := c.Wavelength(k)
	var h complex128
	for _, p := range paths {
		a := p.Amplitude()
		if a == 0 {
			continue
		}
		phase := 2 * math.Pi * p.Length() / lambda
		h += cmplx.Rect(a, phase)
	}
	return h
}

// PhasorCache synthesizes the channel response on every subcarrier
// of one channelization, remembering each path slot's phasors between
// calls. It is the simulator's per-frame inner loop.
//
// Most paths repeat bit for bit from one frame to the next: the
// static reflectors set the absolute phase but not its variation
// (footnote 2 of the paper), and a still head leaves its own paths
// unchanged too. Slot i keeps the key (Amplitude, 2π·Length) of the
// i-th path it last saw and that path's row of NSubcarriers phasors;
// a row is recomputed only when its key differs, compared as bit
// patterns so ±0 and NaN never alias. Every phasor is the float a
// fresh cmplx.Rect would give, summed in path order, so the output is
// bit-identical to synthesizing from scratch.
//
// A PhasorCache is not safe for concurrent use.
type PhasorCache struct {
	lambdas []float64    // λ_k per subcarrier
	keys    []phasorKey  // per slot: the key its row was computed for
	rows    []complex128 // per slot: NSubcarriers phasors, slot-major
}

// phasorKey is a path's amplitude and phase numerator as bit patterns.
// The zero key is an amplitude of +0, which never needs a row, so new
// slots start empty without a separate valid flag.
type phasorKey struct{ amp, num uint64 }

// NewPhasorCache returns an empty cache bound to c.
func NewPhasorCache(c Channelization) *PhasorCache {
	pc := &PhasorCache{lambdas: make([]float64, c.NSubcarriers)}
	for k := range pc.lambdas {
		pc.lambdas[k] = c.Wavelength(k)
	}
	return pc
}

// CSI fills dst (length NSubcarriers, grown as needed) with the
// coherent sum of paths on every subcarrier and returns it. Paths of
// zero amplitude contribute nothing. Callers get the most reuse by
// keeping each path in the same slot from call to call.
func (pc *PhasorCache) CSI(paths []Path, dst []complex128) []complex128 {
	n := len(pc.lambdas)
	if cap(dst) < n {
		dst = make([]complex128, n)
	}
	dst = dst[:n]
	clear(dst)
	if len(paths) > len(pc.keys) {
		pc.keys = append(pc.keys, make([]phasorKey, len(paths)-len(pc.keys))...)
		pc.rows = append(pc.rows, make([]complex128, len(paths)*n-len(pc.rows))...)
	}
	for i := range paths {
		d := paths[i].Length()
		a := paths[i].amplitude(d)
		if a == 0 {
			continue
		}
		// Phase on subcarrier k is (2π·length)/λ_k.
		num := 2 * math.Pi * d
		row := pc.rows[i*n : (i+1)*n]
		if key := (phasorKey{math.Float64bits(a), math.Float64bits(num)}); pc.keys[i] != key {
			pc.keys[i] = key
			for k, lambda := range pc.lambdas {
				row[k] = cmplx.Rect(a, num/lambda)
			}
		}
		for k, h := range row {
			dst[k] += h
		}
	}
	return dst
}

// FreeSpacePathLossDB returns the free-space path loss in dB at
// distance d meters and frequency f Hz (Friis). Used by the link
// budget sanity checks and the interference model.
func FreeSpacePathLossDB(d, f float64) float64 {
	if d <= 0 || f <= 0 {
		return 0
	}
	return 20*math.Log10(d) + 20*math.Log10(f) + 20*math.Log10(4*math.Pi/SpeedOfLight)
}
