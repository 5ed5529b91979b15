package cabin

import (
	"fmt"

	"vihot/internal/geom"
	"vihot/internal/rf"
)

// Layout selects one of the five RX antenna placements evaluated in
// Sec. 5.2.2. Layout 1 (Fig. 9) is the paper's recommended placement:
// one antenna's line of sight is blocked by the driver's head so it
// sees mostly the head reflection, while the other keeps a clear LOS
// reference — the phase difference then retains most of the
// head-induced variation.
type Layout int

const (
	Layout1 Layout = iota + 1 // Fig. 9: blocked/clear pair (best)
	Layout2                   // both antennas on the center console
	Layout3                   // both on the ceiling above the console
	Layout4                   // A-pillar + passenger door
	Layout5                   // both behind the back seats (worst)
)

// String implements fmt.Stringer.
func (l Layout) String() string {
	if l < Layout1 || l > Layout5 {
		return fmt.Sprintf("Layout(%d)", int(l))
	}
	return fmt.Sprintf("Layout %d", int(l))
}

// Layouts lists all evaluated antenna placements.
func Layouts() []Layout {
	return []Layout{Layout1, Layout2, Layout3, Layout4, Layout5}
}

// rxPositions returns the two RX antenna positions for a layout.
func (l Layout) rxPositions() [2]geom.Vec3 {
	switch l {
	case Layout2:
		return [2]geom.Vec3{{X: 0.15, Y: 0.35, Z: 0.75}, {X: 0.3, Y: 0.35, Z: 0.75}}
	case Layout3:
		return [2]geom.Vec3{{X: 0.1, Y: 0.2, Z: 1.45}, {X: 0.3, Y: 0.2, Z: 1.45}}
	case Layout4:
		return [2]geom.Vec3{{X: 0.7, Y: -0.6, Z: 1.3}, {X: 0.2, Y: 0.75, Z: 1.1}}
	case Layout5:
		return [2]geom.Vec3{{X: -1.1, Y: -0.3, Z: 1.2}, {X: -1.1, Y: 0.3, Z: 1.2}}
	default: // Layout1
		// One antenna high on the driver-side B-pillar so the driver's
		// head sits squarely on its line of sight to the phone, one by
		// the center console with a clear LOS.
		return [2]geom.Vec3{{X: -0.37, Y: -0.11, Z: 1.3}, {X: 0.05, Y: 0.4, Z: 1.1}}
	}
}

// Config selects the scene composition.
type Config struct {
	Layout Layout
	Chan   rf.Channelization
	Head   Head
	Wheel  SteeringWheel
	// Phone overrides the dashboard phone-mount position; the zero
	// value uses PhonePos.
	Phone     geom.Vec3
	Passenger bool // passenger in the front seat
	// PhoneAimedAtDriver places the phone per Sec. 3.5: screen toward
	// the driver, short edge (antenna axis) toward the passenger, so
	// the dipole null suppresses passenger reflections. When false the
	// phone lies sideways and the passenger is fully illuminated.
	PhoneAimedAtDriver bool
	Micro              []MicroMotion // active micro-motion scatterers
	Vibration          *Vibration    // antenna vibration, nil = rigid
}

// DefaultConfig returns the paper's default experiment setup: Layout
// 1, 2.4 GHz, driver alone, phone aimed per Sec. 3.5, no micro-motion
// scatterers beyond the built-in statics, rigid antennas.
func DefaultConfig() Config {
	return Config{
		Layout:             Layout1,
		Chan:               rf.Channel2G4(),
		Head:               DefaultHead(),
		Wheel:              DefaultSteeringWheel(),
		PhoneAimedAtDriver: true,
		// The driver is always breathing; that fine structure is part
		// of every real CSI trace.
		Micro: []MicroMotion{MicroBreathing()},
	}
}

// Scene is a cabin description; pair it with a State to compute
// instantaneous propagation paths and clean CSI. Its geometry never
// changes after NewScene, but Paths and CleanCSI reuse per-scene
// buffers and phasor caches, so a Scene is not safe for concurrent
// use.
type Scene struct {
	cfg   Config
	phone geom.Vec3

	tx     rf.Antenna
	rxBase [2]geom.Vec3
	// reflector holds the stationary interior surfaces: dashboard,
	// roof, seats, window frames. Static paths contribute to the
	// absolute CSI phase but not to its variation (footnote 2 of the
	// paper). Their TX gains are fixed by NewScene.
	reflector []scatterer

	// Reused across Paths calls: the paths of both antennas and the
	// arena their Points live in.
	paths  []rf.Path
	points []geom.Vec3
	scat   []scatterer // this call's scatter points, shared by both antennas
	// synth renders each RX antenna's paths. Paths emits every
	// antenna's paths in the same slot order on each call, so a path
	// that did not move finds its phasors already computed.
	synth [2]*rf.PhasorCache
}

// DriverHeadBase is the nominal driver head center: the middle of the
// 10 profiling positions of Fig. 5.
var DriverHeadBase = geom.Vec3{X: 0, Y: 0, Z: 1.2}

// PassengerHeadBase is the front passenger's head center.
var PassengerHeadBase = geom.Vec3{X: 0, Y: 0.72, Z: 1.2}

// PhonePos is the dashboard phone-mount position (Fig. 9).
var PhonePos = geom.Vec3{X: 0.55, Y: 0.22, Z: 1.05}

// HeadPosition returns the head center for discrete profiling position
// i of n (Fig. 5): the driver leans from forward to backward across
// ≈ 18 cm. Leaning pivots at the spine, so the head also drops as it
// moves away from upright — the vertical component is what makes the
// positions clearly distinguishable to the shadowed antenna.
func HeadPosition(i, n int) geom.Vec3 {
	if n < 2 {
		return DriverHeadBase
	}
	// The grid includes the driver's natural pose: position n/2 is
	// exactly the resting head position (a driver profiles from where
	// they actually sit), with forward leans below it and backward
	// leans above.
	center := n / 2
	step := 0.18 / float64(n-1)
	x := -step * float64(i-center) // i < center leans forward (+X)
	const torso = 0.45
	z := -x * x / (2 * torso) * 4 // pendulum arc, exaggerated by slouch
	return DriverHeadBase.Add(geom.Vec3{X: x, Z: z})
}

// NewScene builds a Scene from cfg. Unset channelization defaults to
// the 2.4 GHz prototype band.
func NewScene(cfg Config) (*Scene, error) {
	if cfg.Chan.NSubcarriers == 0 {
		cfg.Chan = rf.Channel2G4()
	}
	if err := cfg.Chan.Validate(); err != nil {
		return nil, err
	}
	if cfg.Layout < Layout1 || cfg.Layout > Layout5 {
		return nil, fmt.Errorf("cabin: unknown antenna layout %d", int(cfg.Layout))
	}
	if cfg.Head == (Head{}) {
		cfg.Head = DefaultHead()
	}
	if cfg.Wheel == (SteeringWheel{}) {
		cfg.Wheel = DefaultSteeringWheel()
	}
	s := &Scene{cfg: cfg, phone: cfg.Phone, rxBase: cfg.Layout.rxPositions()}
	if s.phone == (geom.Vec3{}) {
		s.phone = PhonePos
	}

	// The phone antenna: a wire in the long edge, whose radiation null
	// lies along the wire ("the direction to which the phone's short
	// edge points", Sec. 3.5). Aimed per the paper, the long axis
	// points at the passenger seat so the passenger sits in the null;
	// laid sideways the axis points front-back and the passenger sits
	// in the bright donut ring.
	axis := PassengerHeadBase.Sub(s.phone)
	axis.Z = 0
	if !cfg.PhoneAimedAtDriver {
		axis = geom.Vec3{X: 1}
	}
	s.tx = rf.Dipole(s.phone, axis, 0.12)

	// Static interior reflectors (positions are plausible cabin
	// surfaces; only their existence matters — they set the static
	// phasor the head modulation rides on). The rear-shelf reflector
	// gives the shadowed antenna a head-independent anchor so deep
	// fades never zero its channel entirely.
	s.reflector = []scatterer{
		{point: geom.Vec3{X: 0.75, Y: 0.3, Z: 1.2}, reflectivity: 0.45},  // windshield glare point
		{point: geom.Vec3{X: 0.45, Y: 0.35, Z: 0.8}, reflectivity: 0.35}, // dashboard / console
		{point: geom.Vec3{X: 0, Y: 0.1, Z: 1.5}, reflectivity: 0.3},      // roof liner
		{point: geom.Vec3{X: -0.6, Y: 0.4, Z: 1.0}, reflectivity: 0.25},  // passenger seatback
		{point: geom.Vec3{X: 0.2, Y: -0.55, Z: 1.0}, reflectivity: 0.3},  // driver door / window
		{point: geom.Vec3{X: -1.0, Y: -0.5, Z: 1.1}, reflectivity: 0.3},  // rear shelf / C-pillar
	}
	for i := range s.reflector {
		s.reflector[i].txGain = s.tx.Gain(s.reflector[i].point)
		s.reflector[i].shadow = shadowAmplitude
	}
	for a := range s.synth {
		s.synth[a] = rf.NewPhasorCache(cfg.Chan)
	}
	return s, nil
}

// Config returns the scene's configuration.
func (s *Scene) Config() Config { return s.cfg }

// Chan returns the scene's channelization.
func (s *Scene) Chan() rf.Channelization { return s.cfg.Chan }

// RXPositions returns the (possibly vibrating) RX antenna positions at
// time t.
func (s *Scene) RXPositions(t float64) [2]geom.Vec3 {
	rx := s.rxBase
	if v := s.cfg.Vibration; v != nil {
		rx[0] = rx[0].Add(v.Offset(t, 0))
		rx[1] = rx[1].Add(v.Offset(t, 1))
	}
	return rx
}

// scatterer is the bounce point of one single-bounce path, with what
// Paths needs of it for either RX antenna: its reflectivity, the TX
// antenna's gain toward it and how the driver's head shadows it.
type scatterer struct {
	point        geom.Vec3
	reflectivity float64
	txGain       float64
	shadow       shadowMode
}

// shadowMode selects how the driver's head affects a path.
type shadowMode int

const (
	shadowNone      shadowMode = iota // head reflection paths: no self-occlusion
	shadowAmplitude                   // attenuate when shadowed
	shadowDetour                      // attenuate and add the diffraction detour
)

// State is the instantaneous dynamic configuration of the cabin.
type State struct {
	Time      float64
	HeadPos   geom.Vec3 // driver head center
	HeadYaw   float64   // degrees, 0 = facing the road
	HeadPitch float64   // degrees, positive chin-up; small while driving (Fig. 2)
	WheelDeg  float64   // steering wheel rotation, 0 = straight

	PassengerYaw float64 // passenger head yaw (used when configured)
}

// Paths computes every propagation path TX→RX for both receiver
// antennas at the given state. The returned slices, and the Points of
// every path in them, are reused across calls; copy them if you need
// to retain them.
//
// Path inventory per antenna: LOS, driver-head reflection, static
// reflectors, steering-wheel/hand reflection, optional passenger-head
// reflection and micro-motion scatterers. The driver's head shadows
// any segment passing near it — that blockage is what makes Layout 1
// asymmetric and informative.
func (s *Scene) Paths(st State) [2][]rf.Path {
	rx := s.RXPositions(st.Time)
	head := s.cfg.Head
	var out [2][]rf.Path
	s.paths = s.paths[:0]
	s.points = s.points[:0]

	// Every path but the LOS bounces off one scatter point. The point
	// and the TX gain toward it do not depend on the RX antenna, so
	// they are computed once per call, in path order.
	s.scat = s.scat[:0]
	scatter := func(point geom.Vec3, reflectivity float64, shadow shadowMode) {
		s.scat = append(s.scat, scatterer{point, reflectivity, s.tx.Gain(point), shadow})
	}
	// Driver head reflection (the signal of interest): the
	// quasi-specular main return plus the weak rotating nose scatterer.
	hp, refl := head.Scatter3D(st.HeadPos, st.HeadYaw, st.HeadPitch, s.phone)
	scatter(hp, refl, shadowNone)
	if head.NoseRefl > 0 {
		scatter(head.NoseScatter(st.HeadPos, st.HeadYaw), head.NoseRefl, shadowNone)
	}
	// Static interior reflections.
	s.scat = append(s.scat, s.reflector...)
	// Steering wheel + hands.
	scatter(s.cfg.Wheel.HandScatter(st.WheelDeg), s.cfg.Wheel.Reflectivity, shadowAmplitude)
	// Passenger head.
	if s.cfg.Passenger {
		ps, prefl := head.Scatter(PassengerHeadBase, st.PassengerYaw, s.phone)
		scatter(ps, prefl, shadowAmplitude)
	}
	// Micro-motion scatterers.
	for _, m := range s.cfg.Micro {
		scatter(m.Pos(st.Time), m.Reflectivity, shadowAmplitude)
	}

	for a := 0; a < 2; a++ {
		start := len(s.paths)
		rxA := rf.Isotropic(rx[a])

		// add copies points into the scene's arena, so the caller's
		// literal never escapes to the heap.
		add := func(points []geom.Vec3, reflectivity, txGain float64, shadow shadowMode) {
			first := len(s.points)
			s.points = append(s.points, points...)
			p := rf.Path{
				Points:       s.points[first:len(s.points):len(s.points)],
				Reflectivity: reflectivity,
				Blockage:     1,
				TXGain:       txGain,
				RXGain:       rxA.Gain(points[len(points)-2]),
			}
			// Head shadowing applies to every path except the head
			// reflection itself (the scatter point sits on the head
			// surface, so testing it against the head sphere would
			// spuriously occlude the signal of interest). Only the LOS
			// picks up the yaw-dependent diffraction detour: it is the
			// one strong path whose straight line actually crosses the
			// skull, and modelling the detour on a single dominant
			// phasor keeps its orientation signature from cancelling
			// against sibling paths — the head-orientation signal the
			// blocked antenna of Layout 1 relies on.
			switch shadow {
			case shadowDetour:
				for i := 1; i < len(points); i++ {
					amp, extra := head.BlockEffect(st.HeadPos, points[i-1], points[i], st.HeadYaw)
					p.Blockage *= amp
					p.Extra += extra
				}
			case shadowAmplitude:
				for i := 1; i < len(points); i++ {
					p.Blockage *= head.Blocks(st.HeadPos, points[i-1], points[i])
				}
			}
			s.paths = append(s.paths, p)
		}

		add([]geom.Vec3{s.phone, rx[a]}, 1, s.tx.Gain(rx[a]), shadowDetour) // line of sight
		for _, sc := range s.scat {
			add([]geom.Vec3{s.phone, sc.point, rx[a]}, sc.reflectivity, sc.txGain, sc.shadow)
		}

		out[a] = s.paths[start:len(s.paths):len(s.paths)]
	}
	return out
}

// CleanCSI computes the noise-free complex channel response for both
// RX antennas at the given state. dst is reused when it has capacity
// ([2][NSubcarriers]); pass nil to allocate.
func (s *Scene) CleanCSI(st State, dst [][]complex128) [][]complex128 {
	paths := s.Paths(st)
	if len(dst) != 2 {
		dst = make([][]complex128, 2)
	}
	for a := range paths {
		dst[a] = s.synth[a].CSI(paths[a], dst[a])
	}
	return dst
}
