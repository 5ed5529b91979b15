// Package scenario is the declarative workload layer over the
// simulator substrate: a Config names everything a reproducible
// end-to-end run needs — cabin geometry, occupants, the subject's
// trajectory mix, interference level, a fault schedule, duration, and
// a seed — and the package composes the existing cabin/driver/csi/
// wifi/camera pieces plus internal/faults into deterministic
// serve.Item streams with ground truth attached.
//
// The committed corpus (see corpus.go) turns "handles many scenarios"
// into a replayable artifact: every named scenario is fully determined
// by its config, so the same corpus doubles as the end-to-end accuracy
// regression suite (the golden summaries in testdata/) and as the
// workload generator behind vihot-bench -scenarios and vihot-serve
// -scenario-mix (see generator.go).
//
// # Determinism contract
//
// Everything downstream of a (Config, session index) pair is
// deterministic: the cabin environment, the trajectory draw, the CSI
// arrival times, the fault schedule, and therefore the exact item
// stream a session replays. Two runs of the same config at the same
// session count produce bit-identical streams — and, pushed through a
// deterministic serve.Manager, bit-identical estimates and summaries.
// DESIGN.md §12 records the seed-derivation tree.
package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"

	"vihot/internal/cabin"
	"vihot/internal/driver"
	"vihot/internal/faults"
)

// Trajectory kinds a Config may mix. Each names one motion family the
// substrate can synthesize for the tracked subject.
const (
	// TrajDrive is the paper's run-time workload: road-facing with
	// mirror glances and optional steering events.
	TrajDrive = "drive"
	// TrajSweep is the controlled accuracy test: continuous left-right
	// head scanning at the profile's turn speed.
	TrajSweep = "sweep"
	// TrajDrowsy is the long-haul monotony scan: long still stretches,
	// slow nods, and microsleep head droops.
	TrajDrowsy = "drowsy"
	// TrajPos3D is the VR-style workload (Kotaru & Katti): continuous
	// 3-D head-position waypoints with free yaw/pitch scanning.
	TrajPos3D = "pos3d"
	// TrajRider is the CarFi-style rider-localization workload: an
	// occupant shifting between discrete seat-lean positions, mostly
	// still between shifts.
	TrajRider = "rider"
	// TrajSteerOnly is the Fig. 8 interference segment: hands sweep the
	// wheel while the head holds still.
	TrajSteerOnly = "steering-only"
	// TrajStill keeps the subject front-facing and motionless — the
	// noise-floor control.
	TrajStill = "still"
)

// trajectoryKinds indexes the valid trajectory kinds.
var trajectoryKinds = map[string]bool{
	TrajDrive: true, TrajSweep: true, TrajDrowsy: true,
	TrajPos3D: true, TrajRider: true, TrajSteerOnly: true, TrajStill: true,
}

// Fault kinds a Config's schedule may name. Window kinds need
// [Start, End); rate kinds need Level.
const (
	FaultCSIBlackout    = "csi-blackout"    // window: no CSI item arrives
	FaultIMUOutage      = "imu-outage"      // window: IMU readings dropped
	FaultCameraOutage   = "camera-outage"   // window: camera estimates dropped
	FaultBurstNoise     = "burst-noise"     // window: CSI gains complex noise (Level = std, default 0.5)
	FaultAntennaDropout = "antenna-dropout" // window: one RX chain zeroed
	FaultClockJitter    = "clock-jitter"    // rate: Level = timestamp jitter std (s)
	FaultClockRegress   = "clock-regress"   // rate: Level = backwards-timestamp probability
	FaultClockDup       = "clock-dup"       // rate: Level = duplicate-delivery probability
	FaultPacketLoss     = "packet-loss"     // rate: Level = datagram loss probability
	FaultPacketDup      = "packet-dup"      // rate: Level = datagram duplication probability
	FaultPacketReorder  = "packet-reorder"  // rate: Level = datagram reordering probability
	FaultPacketCorrupt  = "packet-corrupt"  // rate: Level = datagram bit-corruption probability
)

// faultKindWindowed reports, per valid kind, whether it takes a
// [Start, End) window (true) or a Level rate (false).
var faultKindWindowed = map[string]bool{
	FaultCSIBlackout: true, FaultIMUOutage: true, FaultCameraOutage: true,
	FaultBurstNoise: true, FaultAntennaDropout: true,
	FaultClockJitter: false, FaultClockRegress: false, FaultClockDup: false,
	FaultPacketLoss: false, FaultPacketDup: false, FaultPacketReorder: false,
	FaultPacketCorrupt: false,
}

// Interference levels.
const (
	InterfereNone = ""     // clean channel, paper's default timing
	InterfereWiFi = "wifi" // busy neighbor AP sharing the channel
)

// Cabin is the declarative cabin geometry: which of the five evaluated
// RX layouts, where the phone sits, and whether the mount vibrates.
type Cabin struct {
	// Layout selects the RX antenna placement, 1–5 (Sec. 5.2.2).
	// 0 means Layout 1, the paper's recommended placement.
	Layout int `json:"layout,omitempty"`
	// Phone overrides the dashboard phone-mount position in cabin
	// coordinates (meters). All-zero keeps the default mount.
	Phone [3]float64 `json:"phone,omitempty"`
	// PhoneSideways lays the phone down so its antenna null no longer
	// suppresses passenger reflections (Sec. 3.5 inverted).
	PhoneSideways bool `json:"phone_sideways,omitempty"`
	// Vibration enables worst-case coil-antenna shake.
	Vibration bool `json:"vibration,omitempty"`
}

// TrajectoryWeight is one entry of a Config's trajectory mix. Sessions
// draw their trajectory from the mix proportionally to Weight.
type TrajectoryWeight struct {
	Kind   string  `json:"kind"`
	Weight float64 `json:"weight"`
	// Steering enables intersection-turn steering events (TrajDrive).
	Steering bool `json:"steering,omitempty"`
	// SpeedDPS overrides the head-turn speed (TrajSweep); 0 keeps the
	// driver profile's habit.
	SpeedDPS float64 `json:"speed_dps,omitempty"`
}

// FaultSpec is one named fault in a Config's schedule. Window kinds
// use [Start, End) in stream seconds; rate kinds use Level.
type FaultSpec struct {
	Kind  string  `json:"kind"`
	Start float64 `json:"start,omitempty"`
	End   float64 `json:"end,omitempty"`
	Level float64 `json:"level,omitempty"`
}

// ProfileSpec sizes the profiling session run before tracking.
// Zero values take the corpus defaults (5 positions × 4 s — reduced
// from the paper's 10×8 so a corpus run profiles in seconds).
type ProfileSpec struct {
	Positions    int     `json:"positions,omitempty"`
	PerPositionS float64 `json:"per_position_s,omitempty"`
}

// Config declares one named scenario. The zero value is invalid; use
// the corpus constructors or fill every required field and Validate.
type Config struct {
	// Name identifies the scenario in reports, metrics, and goldens.
	Name string `json:"name"`
	// Seed determines everything: cabin hardware noise, trajectory
	// draws, arrival times, fault schedules. Required (zero is
	// rejected so a forgotten seed can't silently alias two runs).
	Seed int64 `json:"seed"`
	// DurationS is the tracked stream length in seconds.
	DurationS float64 `json:"duration_s"`
	// Cabin is the geometry; the zero value is the paper's default.
	Cabin Cabin `json:"cabin,omitempty"`
	// Occupants counts people in the cabin: 1 = subject alone,
	// 2 = front passenger too. Zero occupants is rejected — an empty
	// cabin has no head to track.
	Occupants int `json:"occupants"`
	// PassengerMotion makes the passenger glance sideways now and then
	// (Sec. 5.3.4's interference source). Requires Occupants ≥ 2.
	PassengerMotion bool `json:"passenger_motion,omitempty"`
	// Driver selects the subject's driver style: "A", "B", or "C"
	// (Sec. 5.2.5). Empty means "A".
	Driver string `json:"driver,omitempty"`
	// Trajectories is the weighted trajectory mix sessions draw from.
	// At least one entry with positive weight is required.
	Trajectories []TrajectoryWeight `json:"trajectories"`
	// Interference selects the channel condition: "" (clean) or "wifi"
	// (busy neighbor AP).
	Interference string `json:"interference,omitempty"`
	// Faults is the deterministic fault schedule applied to every
	// session's stream.
	Faults []FaultSpec `json:"faults,omitempty"`
	// Camera includes the fallback camera feed in the stream, giving
	// the health machine something to coast on during CSI faults.
	Camera bool `json:"camera,omitempty"`
	// Profile sizes the profiling session.
	Profile ProfileSpec `json:"profile,omitempty"`
}

// finite reports whether v is a usable number (not NaN or ±Inf).
func finite(v float64) bool {
	return !math.IsNaN(v) && !math.IsInf(v, 0)
}

// Validate checks the config against the schema above. It returns the
// first violation found; a nil error means the config composes into a
// runnable scenario.
func (c *Config) Validate() error {
	if c.Name == "" {
		return fmt.Errorf("scenario: config needs a name")
	}
	if c.Seed == 0 {
		return fmt.Errorf("scenario %q: seed must be non-zero", c.Name)
	}
	if !finite(c.DurationS) || c.DurationS <= 0 {
		return fmt.Errorf("scenario %q: duration %v is not a positive finite number of seconds", c.Name, c.DurationS)
	}
	if c.Cabin.Layout < 0 || c.Cabin.Layout > 5 {
		return fmt.Errorf("scenario %q: cabin layout %d outside 1–5 (0 = default)", c.Name, c.Cabin.Layout)
	}
	for _, v := range c.Cabin.Phone {
		if !finite(v) {
			return fmt.Errorf("scenario %q: non-finite phone position %v", c.Name, c.Cabin.Phone)
		}
	}
	if c.Occupants < 1 {
		return fmt.Errorf("scenario %q: %d occupants — an empty cabin has no head to track", c.Name, c.Occupants)
	}
	if c.Occupants > 2 {
		return fmt.Errorf("scenario %q: %d occupants — the substrate models at most driver + front passenger", c.Name, c.Occupants)
	}
	if c.PassengerMotion && c.Occupants < 2 {
		return fmt.Errorf("scenario %q: passenger motion needs a passenger (occupants ≥ 2)", c.Name)
	}
	switch c.Driver {
	case "", "A", "B", "C":
	default:
		return fmt.Errorf("scenario %q: unknown driver style %q (want A, B, or C)", c.Name, c.Driver)
	}
	if len(c.Trajectories) == 0 {
		return fmt.Errorf("scenario %q: empty trajectory mix", c.Name)
	}
	total := 0.0
	for i, tw := range c.Trajectories {
		if !trajectoryKinds[tw.Kind] {
			return fmt.Errorf("scenario %q: trajectory %d has unknown kind %q", c.Name, i, tw.Kind)
		}
		if !finite(tw.Weight) || tw.Weight <= 0 {
			return fmt.Errorf("scenario %q: trajectory %q weight %v is not positive and finite", c.Name, tw.Kind, tw.Weight)
		}
		if !finite(tw.SpeedDPS) || tw.SpeedDPS < 0 {
			return fmt.Errorf("scenario %q: trajectory %q speed %v deg/s is invalid", c.Name, tw.Kind, tw.SpeedDPS)
		}
		total += tw.Weight
	}
	if !finite(total) || total <= 0 {
		return fmt.Errorf("scenario %q: trajectory weights sum to %v", c.Name, total)
	}
	switch c.Interference {
	case InterfereNone, InterfereWiFi:
	default:
		return fmt.Errorf("scenario %q: unknown interference level %q", c.Name, c.Interference)
	}
	for i, f := range c.Faults {
		windowed, ok := faultKindWindowed[f.Kind]
		if !ok {
			return fmt.Errorf("scenario %q: fault %d has unknown kind %q", c.Name, i, f.Kind)
		}
		if windowed {
			if !finite(f.Start) || !finite(f.End) || f.Start < 0 || f.End <= f.Start {
				return fmt.Errorf("scenario %q: fault %q window [%v, %v) is not a forward interval from t ≥ 0", c.Name, f.Kind, f.Start, f.End)
			}
			if f.Level != 0 && (!finite(f.Level) || f.Level < 0) {
				return fmt.Errorf("scenario %q: fault %q level %v is invalid", c.Name, f.Kind, f.Level)
			}
		} else {
			if !finite(f.Level) || f.Level < 0 || f.Level > 1 {
				return fmt.Errorf("scenario %q: fault %q level %v outside [0, 1]", c.Name, f.Kind, f.Level)
			}
			if f.Start != 0 || f.End != 0 {
				return fmt.Errorf("scenario %q: fault %q is a rate fault and takes no window", c.Name, f.Kind)
			}
		}
	}
	if c.Profile.Positions < 0 || c.Profile.Positions > 64 {
		return fmt.Errorf("scenario %q: %d profiling positions outside 0–64", c.Name, c.Profile.Positions)
	}
	if !finite(c.Profile.PerPositionS) || c.Profile.PerPositionS < 0 {
		return fmt.Errorf("scenario %q: per-position profiling time %v is invalid", c.Name, c.Profile.PerPositionS)
	}
	return nil
}

// Parse decodes a JSON scenario config and validates it. Unknown
// fields are rejected so a typoed knob fails loudly instead of
// silently reverting to a default.
func Parse(data []byte) (*Config, error) {
	var c Config
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&c); err != nil {
		return nil, fmt.Errorf("scenario: parse: %w", err)
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return &c, nil
}

// cabinConfig composes the declarative cabin into the substrate's
// cabin.Config. Callers must have validated first.
func (c *Config) cabinConfig() cabin.Config {
	cc := cabin.DefaultConfig()
	if c.Cabin.Layout != 0 {
		cc.Layout = cabin.Layout(c.Cabin.Layout)
	}
	if c.Cabin.Phone != [3]float64{} {
		cc.Phone.X, cc.Phone.Y, cc.Phone.Z = c.Cabin.Phone[0], c.Cabin.Phone[1], c.Cabin.Phone[2]
	}
	cc.PhoneAimedAtDriver = !c.Cabin.PhoneSideways
	cc.Passenger = c.Occupants >= 2
	if c.Cabin.Vibration {
		v := cabin.DefaultVibration()
		cc.Vibration = &v
	}
	return cc
}

// style resolves the subject's driver profile.
func (c *Config) style() driver.Profile {
	switch c.Driver {
	case "B":
		return driver.DriverB()
	case "C":
		return driver.DriverC()
	default:
		return driver.DriverA()
	}
}

// profileOptions resolves the profiling spec with corpus defaults.
func (c *Config) profileOptions() (positions int, perPositionS float64) {
	positions, perPositionS = c.Profile.Positions, c.Profile.PerPositionS
	if positions == 0 {
		positions = 5
	}
	if perPositionS == 0 {
		perPositionS = 4
	}
	return positions, perPositionS
}

// faultsConfig assembles the internal/faults schedule the spec list
// declares, seeded for one session.
func (c *Config) faultsConfig(seed int64) faults.Config {
	fc := faults.Config{Seed: seed}
	for _, f := range c.Faults {
		w := faults.Window{Start: f.Start, End: f.End}
		switch f.Kind {
		case FaultCSIBlackout:
			fc.CSIBlackouts = append(fc.CSIBlackouts, w)
		case FaultIMUOutage:
			fc.IMUOutages = append(fc.IMUOutages, w)
		case FaultCameraOutage:
			fc.CameraOutages = append(fc.CameraOutages, w)
		case FaultBurstNoise:
			fc.CSI.NoiseWindows = append(fc.CSI.NoiseWindows, w)
			if f.Level > 0 {
				fc.CSI.NoiseStd = f.Level
			}
		case FaultAntennaDropout:
			fc.CSI.DropoutWindows = append(fc.CSI.DropoutWindows, w)
		case FaultClockJitter:
			fc.Clock.JitterStd = f.Level
		case FaultClockRegress:
			fc.Clock.Regress = f.Level
		case FaultClockDup:
			fc.Clock.Dup = f.Level
		case FaultPacketLoss:
			fc.Packet.Loss = f.Level
		case FaultPacketDup:
			fc.Packet.Dup = f.Level
		case FaultPacketReorder:
			fc.Packet.Reorder = f.Level
		case FaultPacketCorrupt:
			fc.Packet.Corrupt = f.Level
		}
	}
	return fc
}

// wireFaults reports whether the schedule includes wire-level packet
// faults (which route the stream through the encode→fault→decode
// pump) as opposed to stream-level faults only.
func (c *Config) wireFaults() bool {
	for _, f := range c.Faults {
		switch f.Kind {
		case FaultPacketLoss, FaultPacketDup, FaultPacketReorder, FaultPacketCorrupt:
			if f.Level > 0 {
				return true
			}
		}
	}
	return false
}

// hasFaults reports whether any fault is scheduled at all.
func (c *Config) hasFaults() bool { return len(c.Faults) > 0 }
