package main

import (
	"cmp"
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"
	"sync"
	"time"

	"vihot/internal/camera"
	"vihot/internal/core"
	"vihot/internal/driver"
	"vihot/internal/profilestore"
	"vihot/internal/scenario"
	"vihot/internal/serve"
	"vihot/internal/wifi"
)

// workload is one traffic mix. See README.md for why each exists.
type workload struct {
	name string
	// road selects the long-lived front-facing fleet; otherwise slots
	// run back-to-back trips drawn from the driver-cabin corpus.
	road bool
	// slots is the number of concurrent trip slots (cabin mixes) or
	// long-lived sessions (road).
	slots int
	// streams is how many distinct streams are rendered per scenario;
	// trips reuse them under fresh session IDs and start offsets.
	streams int
	// journal and metrics switch the durable journal and the metrics
	// registry on, as under vihot-serve -journal -metrics-addr.
	journal, metrics bool
	// rampS spreads the first opens over this many seconds; warmS is
	// the wall time before the measured window opens.
	rampS, warmS float64
}

var workloads = []workload{
	{name: "cabin-fleet", slots: 16, streams: 10, journal: true, metrics: true, rampS: 1, warmS: 3},
	{name: "road-facing", road: true, slots: 120, streams: 8, journal: true, metrics: true, rampS: 2, warmS: 3.5},
	{name: "overload", slots: 200, streams: 10, rampS: 1, warmS: 3},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q (want cabin-fleet, road-facing, overload or all)", name)
}

// cabinMix is the driver-cabin corpus the trip slots draw from. vr-3d
// is left out: its tracker never locks, so its cost is endless full
// rescans rather than driver-seat traffic.
var cabinMix = []string{
	scenario.Baseline, scenario.MultiOccupant, scenario.CarFiRider, scenario.LongHaul,
}

const (
	// carsPerScenario sizes the car fleet: 4 × 12 cars against a
	// 16-profile store, so trip opens churn the store.
	carsPerScenario = 12
	roadCars        = 8
	storeCapacity   = 16
	// closeGraceS is how long after a trip's last item is due its
	// session is closed: far beyond any nominal queue dwell, so the
	// trip's tail has drained before CloseSession discards anything.
	closeGraceS = 1.0
	// tripGapS separates a slot's trips.
	tripGapS = 0.02
)

// wireItem is one pre-encoded input of a stream. Streams hold no
// pointers per item, so the garbage collector never scans them while
// the program runs.
type wireItem struct {
	t    float64 // item timestamp (stream time)
	due  int64   // ns after the stream's first item; monotone
	off  int32   // datagram offset in stream.wire, or index into stream.cams
	n    int32   // datagram length; 0 marks a camera item
	kind serve.ItemKind
}

// stream is one rendered session: its datagrams in delivery order and
// the ground truth to score its estimates against.
type stream struct {
	mix   int // index into the workload's scenario list
	wire  []byte
	items []wireItem
	cams  []camera.Estimate
	truth *driver.Track
	// dueOf maps an item timestamp (float64 bits) to its due offset,
	// so an estimate finds the due instant of the item that made it.
	dueOf map[uint64]int64
}

// inputs is everything a run replays, built from the seed alone.
type inputs struct {
	w          workload
	names      []string // scenario name per mix index
	streams    []*stream
	cars       []string // car key per car index
	carMix     []int    // scenario mix index per car
	profileDir string
	sched      *schedule
}

// deriveSeed gives every scenario config its own non-zero seed from
// the run seed, so one -seed fixes every input.
func deriveSeed(seed int64, salt string) int64 {
	h := uint64(seed)*0x9E3779B97F4A7C15 + 0x632BE59BD9B4E019
	for i := 0; i < len(salt); i++ {
		h ^= uint64(salt[i])
		h *= 0x100000001B3
	}
	h ^= h >> 31
	return int64(h>>1) | 1
}

// configs resolves the workload's scenario configs for a seed.
func (w workload) configs(seed int64, seconds float64) ([]scenario.Config, error) {
	if w.road {
		c := scenario.Config{
			Name: "road-facing", Seed: deriveSeed(seed, "road-facing"),
			DurationS: w.warmS + seconds + 1, Occupants: 1, Driver: "A",
			Trajectories: []scenario.TrajectoryWeight{{Kind: scenario.TrajStill, Weight: 1}},
		}
		return []scenario.Config{c}, c.Validate()
	}
	out := make([]scenario.Config, 0, len(cabinMix))
	for _, name := range cabinMix {
		c, err := scenario.ByName(name)
		if err != nil {
			return nil, err
		}
		c.Seed = deriveSeed(seed, name)
		out = append(out, c)
	}
	return out, nil
}

// setup builds a run's inputs: profiles every scenario, renders and
// encodes the stream pool, writes one profile file per car into a
// fresh directory under dir, and lays out the open-loop schedule.
func setup(w workload, seed int64, seconds float64, dir string) (*inputs, error) {
	cfgs, err := w.configs(seed, seconds)
	if err != nil {
		return nil, err
	}
	perMix := w.streams
	profiles := make([]*core.Profile, len(cfgs))
	streams := make([]*stream, len(cfgs)*perMix)
	// Profiling and rendering are independent per scenario and per
	// stream, so they share one worker per CPU. The buffer holds every
	// job, so queueing them never blocks.
	jobs := make(chan func() error, len(cfgs)+len(streams))
	for i := range cfgs {
		i := i
		jobs <- func() (err error) {
			profiles[i], err = cfgs[i].CollectProfile()
			return err
		}
	}
	for mix := range cfgs {
		sessions, err := stratify(&cfgs[mix], perMix)
		if err != nil {
			return nil, err
		}
		for j, sess := range sessions {
			k, mix, sess := mix*perMix+j, mix, sess
			jobs <- func() (err error) {
				streams[k], err = render(&cfgs[mix], mix, sess)
				return err
			}
		}
	}
	close(jobs)
	if err := runJobs(jobs, runtime.GOMAXPROCS(0)); err != nil {
		return nil, err
	}

	in := &inputs{w: w, streams: streams}
	for _, c := range cfgs {
		in.names = append(in.names, c.Name)
	}
	nCars := len(cfgs) * carsPerScenario
	if w.road {
		nCars = roadCars
	}
	in.profileDir, err = os.MkdirTemp(dir, "profiles-")
	if err != nil {
		return nil, err
	}
	dl := profilestore.NewDirLoader(in.profileDir)
	for k := 0; k < nCars; k++ {
		key := fmt.Sprintf("car%03d", k)
		mix := k % len(cfgs)
		if err := dl.Save(key, profiles[mix]); err != nil {
			return nil, fmt.Errorf("saving profile %s: %w", key, err)
		}
		in.cars = append(in.cars, key)
		in.carMix = append(in.carMix, mix)
	}
	in.sched = buildSchedule(w, seconds, streamMeta(streams), in.carMix)
	return in, nil
}

// runJobs drains jobs on n workers and returns the first error.
func runJobs(jobs <-chan func() error, n int) error {
	var (
		wg   sync.WaitGroup
		once sync.Once
		err  error
	)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for job := range jobs {
				if e := job(); e != nil {
					once.Do(func() { err = e })
				}
			}
		}()
	}
	wg.Wait()
	return err
}

// stratify picks n session indices of a scenario whose trajectory
// draws match the config's trajectory weights exactly (largest
// remainder), so every seed replays the same mix of motion kinds and
// only the draws within each kind vary. Drawing a session's trajectory
// is cheap next to rendering it.
func stratify(c *scenario.Config, n int) ([]int, error) {
	weights := make([]float64, len(c.Trajectories))
	for i, tw := range c.Trajectories {
		weights[i] = tw.Weight
	}
	quota := map[string]int{}
	for i, k := range scenario.Apportion(weights, n) {
		quota[c.Trajectories[i].Kind] += k
	}
	var out []int
	for j := 0; len(out) < n; j++ {
		if j >= 64*n {
			return nil, fmt.Errorf("%s: no %d sessions match the trajectory weights", c.Name, n)
		}
		_, _, kind, err := c.Session(j)
		if err != nil {
			return nil, err
		}
		if quota[kind] > 0 {
			quota[kind]--
			out = append(out, j)
		}
	}
	return out, nil
}

// render builds one stream: the scenario's item sequence for session
// index j, CSI and IMU items encoded as wire datagrams, camera items
// (which have no wire type) kept as they are.
func render(c *scenario.Config, mix, j int) (*stream, error) {
	st, err := c.BuildStream(fmt.Sprintf("%s/%d", c.Name, j), j)
	if err != nil {
		return nil, err
	}
	out := &stream{mix: mix, truth: st.Truth.HeadYaw, dueOf: make(map[uint64]int64, len(st.Items))}
	var t0 float64
	var prev int64
	for i, it := range st.Items {
		wi := wireItem{kind: it.Kind, off: int32(len(out.wire))}
		switch it.Kind {
		case serve.KindFrame:
			wi.t = it.Frame.Time
			if out.wire, err = wifi.EncodeCSI(out.wire, it.Frame); err != nil {
				return nil, fmt.Errorf("%s: encoding frame %d: %w", c.Name, i, err)
			}
		case serve.KindIMU:
			wi.t = it.IMU.Time
			out.wire = wifi.EncodeIMU(out.wire, &it.IMU)
		case serve.KindCamera:
			wi.t = it.Camera.Time
			wi.off = int32(len(out.cams))
			out.cams = append(out.cams, it.Camera)
		default:
			return nil, fmt.Errorf("%s: item %d has kind %d", c.Name, i, it.Kind)
		}
		if it.Kind != serve.KindCamera {
			wi.n = int32(len(out.wire)) - wi.off
		}
		if i == 0 {
			t0 = wi.t
		}
		// Jittered timestamps may step back a little; the delivery
		// order stays the stream's own, so due instants never do.
		wi.due = max(prev, int64(math.Round((wi.t-t0)*1e9)))
		prev = wi.due
		if _, dup := out.dueOf[math.Float64bits(wi.t)]; !dup {
			out.dueOf[math.Float64bits(wi.t)] = wi.due
		}
		out.items = append(out.items, wi)
	}
	if len(out.items) == 0 {
		return nil, fmt.Errorf("%s: empty stream", c.Name)
	}
	return out, nil
}

// Schedule operations, in the order ties at one instant run.
const (
	opOpen uint8 = iota
	opItem
	opClose
)

// event is one step of the receive loop: at due (ns after the run
// starts) open a trip, push one of its items, or close it.
type event struct {
	due  int64
	trip int32
	idx  int32 // item index into the trip's stream (opItem)
	op   uint8
}

// tripPlan is one session of the schedule: a stream (or the part of
// it from item first on) replayed under its own session ID and car.
type tripPlan struct {
	id     string
	slot   int
	stream int
	first  int   // first item pushed
	car    int   // car index
	base   int64 // due of item i is base + stream.items[i].due
	closes bool  // a close event is scheduled inside the run
}

// schedule is the open-loop plan: every trip and every event, sorted
// by due instant.
type schedule struct {
	trips  []tripPlan
	events []event
	warmNS int64 // the measured window is [warmNS, endNS)
	endNS  int64
}

// meta is what scheduling needs of a stream.
type meta struct {
	mix   int
	n     int
	dues  []int64
	lastD int64
}

func streamMeta(ss []*stream) []meta {
	out := make([]meta, len(ss))
	for i, s := range ss {
		d := make([]int64, len(s.items))
		for j := range s.items {
			d[j] = s.items[j].due
		}
		out[i] = meta{mix: s.mix, n: len(d), dues: d, lastD: d[len(d)-1]}
	}
	return out
}

// buildSchedule lays out the run. Cabin mixes: slot s opens its first
// trip at s/N of the ramp, starting s/N of the way into its stream, so
// trip boundaries (and the tracker's periodic rescans) stay spread
// evenly instead of lining up; each next trip opens tripGapS after the
// last item of the one before and rotates to the next scenario. Road:
// session i opens at i/N of the ramp and streams until the run ends.
// Only events due before the window ends are kept. The seed reaches the
// schedule through the streams: their lengths place every trip.
func buildSchedule(w workload, seconds float64, ms []meta, carMix []int) *schedule {
	sc := &schedule{
		warmNS: int64(w.warmS * 1e9),
		endNS:  int64((w.warmS + seconds) * 1e9),
	}
	nMix := 0
	for _, m := range ms {
		nMix = max(nMix, m.mix+1)
	}
	byMix := make([][]int, nMix)
	for i, m := range ms {
		byMix[m.mix] = append(byMix[m.mix], i)
	}
	carsOf := make([][]int, nMix)
	for k, mix := range carMix {
		carsOf[mix] = append(carsOf[mix], k)
	}
	rampNS := int64(w.rampS * 1e9)
	dealt := make([]int, nMix) // streams dealt so far, per scenario
	addTrip := func(tp tripPlan) {
		m := ms[tp.stream]
		ti := int32(len(sc.trips))
		open := tp.base + m.dues[tp.first]
		sc.events = append(sc.events, event{due: open, trip: ti, op: opOpen})
		for i := tp.first; i < m.n; i++ {
			d := tp.base + m.dues[i]
			if d >= sc.endNS {
				break
			}
			sc.events = append(sc.events, event{due: d, trip: ti, idx: int32(i), op: opItem})
		}
		if c := tp.base + m.lastD + int64(closeGraceS*1e9); tp.closes && c < sc.endNS {
			sc.events = append(sc.events, event{due: c, trip: ti, op: opClose})
		} else {
			tp.closes = false
		}
		sc.trips = append(sc.trips, tp)
	}
	for s := 0; s < w.slots; s++ {
		open := int64(s) * rampNS / int64(w.slots)
		mix := s % nMix
		if w.road {
			st, car := byMix[mix][s%len(byMix[mix])], carsOf[mix][s%len(carsOf[mix])]
			addTrip(tripPlan{id: tripID(len(sc.trips)), slot: s, stream: st, car: car, base: open})
			continue
		}
		// Each scenario deals its streams to its trips in turn, spreading
		// a run's trips over the whole pool. Cars rotate too, so the
		// store sees the same churn in every run: even trips drive one of
		// the scenario's two regular cars, which stay hot; odd trips one
		// of its other cars in turn, which mostly load cold and evict.
		k := 0
		pick := func() (int, int) {
			ss, cs := byMix[mix], carsOf[mix]
			car := cs[(s/nMix)%2]
			if k%2 == 1 {
				car = cs[2+(s/nMix+k/2)%(len(cs)-2)]
			}
			dealt[mix]++
			return ss[(dealt[mix]-1)%len(ss)], car
		}
		st, car := pick()
		// The first trip starts s/N of the way through its stream.
		m := ms[st]
		first, _ := slices.BinarySearch(m.dues, m.lastD*int64(s)/int64(w.slots))
		first = min(first, m.n-1)
		for open < sc.endNS {
			tp := tripPlan{id: tripID(len(sc.trips)), slot: s, stream: st, first: first, car: car,
				base: open - ms[st].dues[first], closes: true}
			addTrip(tp)
			open = tp.base + ms[st].lastD + int64(tripGapS*1e9)
			mix = (mix + 1) % nMix
			k++
			st, car = pick()
			first = 0
		}
	}
	slices.SortFunc(sc.events, func(a, b event) int {
		return cmp.Or(cmp.Compare(a.due, b.due), cmp.Compare(a.trip, b.trip),
			cmp.Compare(a.op, b.op), cmp.Compare(a.idx, b.idx))
	})
	return sc
}

// tripID names trip i; tripIndex inverts it without a map lookup, so
// the estimate callback needs no lock to find its trip.
func tripID(i int) string { return fmt.Sprintf("t%06d", i) }

func tripIndex(id string) int {
	n := 0
	for i := 1; i < len(id); i++ {
		n = n*10 + int(id[i]-'0')
	}
	return n
}

// timeSetups runs setup reps times and keeps the last inputs, deleting
// the profile directories of the others; it returns the median set-up
// time in seconds.
func timeSetups(w workload, seed int64, seconds float64, dir string, reps int) (*inputs, float64, error) {
	var (
		in    *inputs
		times []float64
	)
	for r := 0; r < reps; r++ {
		if in != nil {
			os.RemoveAll(in.profileDir)
			in = nil
		}
		runtime.GC()
		t0 := time.Now()
		next, err := setup(w, seed, seconds, dir)
		if err != nil {
			return nil, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
		in = next
	}
	return in, quantile(sortedCopy(times), 0.5), nil
}
