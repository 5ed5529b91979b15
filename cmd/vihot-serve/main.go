// Command vihot-serve demonstrates the concurrent multi-driver
// tracking service: K simulated cars each stream their CSI frames and
// phone IMU readings over the UDP wire format (internal/wifi) to one
// receiver process, which demultiplexes the datagrams by source
// address into a sharded SessionManager and tracks every driver's head
// concurrently.
//
// Usage:
//
//	vihot-serve [-drivers K] [-shards N] [-seconds S] [-queue Q] [-seed N]
//	            [-session-ttl S]
//	            [-loss P] [-dup P] [-reorder P] [-corrupt P] [-fault-seed N]
//	            [-metrics-addr HOST:PORT] [-trace-out FILE]
//	            [-profile-dir DIR] [-profile-cache N]
//	            [-journal FILE] [-journal-batch N] [-journal-interval S]
//	            [-journal-sync batch|none]
//
// Each simulated driver replays an internal/driver glance-and-steer
// scenario; the tool prints per-session tracking accuracy against the
// scenario's ground truth plus the manager's traffic counters
// (including frames shed under load). The -loss/-dup/-reorder/-corrupt
// flags wrap every car's sender in an internal/faults packet injector,
// so the whole serving stack can be watched riding out a hostile link.
//
// With -metrics-addr the process serves the internal/obs registry in
// Prometheus text format at /metrics, Go's profiler at /debug/pprof/,
// and (when -trace-out is also set) the live span ring at /trace. With
// -trace-out the per-stage latency spans are written as JSON at exit,
// ready for vihot-trace spans. Both are off by default, in which case
// the serving stack reads no extra clocks.
//
// With -profile-dir the driver profiles take the production lifecycle
// path: saved to DIR in the versioned profile format, then resolved
// back through an internal/profilestore shared LRU cache as each
// session opens (Manager.OpenByKey) — cars sharing a driver style
// share one cached immutable profile instance, and the store's
// hit/miss/eviction counters print with the summary (and export via
// -metrics-addr as vihot_profilestore_*). -profile-cache bounds the
// cache.
//
// With -journal the manager appends every estimate, health
// transition, reap, and close to a durable write-behind journal
// (internal/journal). On start a previous run's journal is recovered:
// its surviving sessions are reported and a torn tail (from a crash
// mid-write) is truncated to the last valid record before new records
// are appended. -journal-batch and -journal-interval tune the group
// commit; -journal-sync picks the fsync policy. Shutdown — normal or
// signalled — drains and fsyncs the journal before the summary, which
// then includes the append/drop/error accounting
// (vihot_serve_journal_* and vihot_journal_* under -metrics-addr).
//
// With -session-ttl the manager reaps sessions whose stream time has
// gone idle for longer than the TTL — the sweep runs on session clocks
// only, so a paused replay cannot age anyone out. Reaped sessions are
// reported with the summary and exported as
// vihot_serve_sessions_reaped_total.
//
// The receiver decodes CSI datagrams into pooled frames
// (wifi.DecodePooled) and the manager recycles each frame once its
// estimate is out (serve.Config.RecycleFrames), so steady-state ingest
// allocates no per-packet frame storage.
//
// SIGINT or SIGTERM stops the senders, drains what already reached the
// shard queues, and still prints the full per-session summary — so an
// interrupted run reports what it did instead of dying silently. The
// normal exit path is CloseDrain: flush every shard, then close, so
// the final counters satisfy the conservation identity with no items
// abandoned in the rings.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math"
	"net"
	"os"
	"os/signal"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"vihot/internal/cabin"
	"vihot/internal/core"
	"vihot/internal/csi"
	"vihot/internal/driver"
	"vihot/internal/experiment"
	"vihot/internal/faults"
	"vihot/internal/geom"
	"vihot/internal/imu"
	"vihot/internal/journal"
	"vihot/internal/obs"
	"vihot/internal/profilestore"
	"vihot/internal/scenario"
	"vihot/internal/serve"
	"vihot/internal/stats"
	"vihot/internal/wifi"
)

// faultFlags is the wire-fault schedule taken from the command line.
type faultFlags struct {
	loss, dup, reorder, corrupt float64
	seed                        int64
}

func (ff faultFlags) enabled() bool {
	return ff.loss > 0 || ff.dup > 0 || ff.reorder > 0 || ff.corrupt > 0
}

// journalFlags is the durable-journal configuration taken from the
// command line; the zero path disables journaling entirely.
type journalFlags struct {
	path      string
	batch     int
	intervalS float64
	sync      string
}

func main() {
	drivers := flag.Int("drivers", 4, "concurrent simulated drivers, at least 1")
	shards := flag.Int("shards", 4, "session-manager worker shards, at least 1")
	seconds := flag.Float64("seconds", 12, "simulated trip length per driver in seconds, finite and > 0")
	queue := flag.Int("queue", 4096, "per-shard queue bound in items, at least 1")
	seed := flag.Int64("seed", 1, "deterministic simulation seed")
	sessionTTL := flag.Float64("session-ttl", 0,
		"reap sessions idle for this many stream-time seconds, finite and ≥ 0; 0 disables reaping")
	var ff faultFlags
	flag.Float64Var(&ff.loss, "loss", 0, "UDP loss probability per datagram")
	flag.Float64Var(&ff.dup, "dup", 0, "UDP duplication probability per datagram")
	flag.Float64Var(&ff.reorder, "reorder", 0, "UDP reordering probability per datagram")
	flag.Float64Var(&ff.corrupt, "corrupt", 0, "UDP bit-corruption probability per datagram")
	flag.Int64Var(&ff.seed, "fault-seed", 1, "fault-injection seed")
	metricsAddr := flag.String("metrics-addr", "",
		"serve Prometheus /metrics and /debug/pprof/ on this address (e.g. :9090); empty disables")
	traceOut := flag.String("trace-out", "",
		"write per-stage latency spans as JSON to this file at exit; empty disables tracing")
	profileDir := flag.String("profile-dir", "",
		"persist driver profiles here and resolve sessions through the shared profile store (OpenByKey); empty keeps the direct Open path")
	profileCache := flag.Int("profile-cache", 64,
		"profile-store cache capacity in profiles, at least 1 (with -profile-dir)")
	scenarioMix := flag.String("scenario-mix", "",
		"draw each driver's trajectory from a weighted corpus scenario mix (\"all\" or \"name:weight,...\") instead of the default glance-and-steer trip; prints a per-scenario accuracy/health breakdown (CSI+IMU only: camera items have no wire type)")
	var jf journalFlags
	flag.StringVar(&jf.path, "journal", "",
		"append estimates/health/reap/close events to this crash-recoverable journal file; empty disables")
	flag.IntVar(&jf.batch, "journal-batch", 64,
		"journal group-commit batch size in records, at least 1 (with -journal)")
	flag.Float64Var(&jf.intervalS, "journal-interval", 0.25,
		"journal group-commit interval in stream-time seconds (with -journal)")
	flag.StringVar(&jf.sync, "journal-sync", "batch",
		"journal fsync policy: batch or none (with -journal; -journal-batch 1 fsyncs every record)")
	flag.Parse()
	if err := run(*drivers, *shards, *seconds, *queue, *seed, *sessionTTL, ff, *metricsAddr, *traceOut,
		*profileDir, *profileCache, *scenarioMix, jf); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// probeSender is the send surface a car streams through — either the
// bare wifi.Sender or a faults.Sender wrapping it.
type probeSender interface {
	SendCSI(f *csi.Frame) error
	SendIMU(r *imu.Reading) error
}

// car is one simulated driver: a private cabin environment, a
// scenario, and the UDP sender that plays its phone.
type car struct {
	id       string // session id = the sender's local UDP address
	label    string // driver style, or scenario/trajectory under -scenario-mix
	scName   string // corpus scenario name ("" outside -scenario-mix)
	scenario *driver.Scenario
	env      *experiment.Env
	sender   *wifi.Sender
	out      probeSender // sender, possibly wrapped in a fault injector
	flush    func() error
}

// carPlan is one car's pre-dial assignment: its environment,
// trajectory, and which collected profile its session opens with.
type carPlan struct {
	env    *experiment.Env
	sc     *driver.Scenario
	label  string
	scName string
	prof   int // index into the collected profiles
}

func run(drivers, shards int, seconds float64, queue int, seed int64, sessionTTL float64,
	ff faultFlags, metricsAddr, traceOut, profileDir string, profileCache int,
	scenarioMix string, jf journalFlags) error {
	if profileDir != "" && profileCache < 1 {
		// The store would quietly substitute its 256-profile default.
		return fmt.Errorf("-profile-cache must be at least 1 with -profile-dir, got %d", profileCache)
	}
	if jf.path != "" && (!(jf.intervalS > 0) || math.IsInf(jf.intervalS, 1)) {
		// The journal would quietly substitute its 0.25 s default.
		return fmt.Errorf("-journal-interval must be a finite positive number of seconds, got %v", jf.intervalS)
	}
	// The manager and the journal would quietly substitute their
	// defaults (4 shards, 4096 items, a 64-record batch) for a size
	// below 1, and a negative, NaN or infinite TTL would quietly mean
	// "never reap". Fewer than one driver would run one, and a trip
	// length that is not finite and positive would simulate the
	// scenario's minimum trip (or, for NaN, panic building it).
	if drivers < 1 {
		return fmt.Errorf("-drivers must be at least 1, got %d", drivers)
	}
	if !(seconds > 0) || math.IsInf(seconds, 1) {
		return fmt.Errorf("-seconds must be a finite positive number, got %v", seconds)
	}
	if shards < 1 {
		return fmt.Errorf("-shards must be at least 1, got %d", shards)
	}
	if queue < 1 {
		return fmt.Errorf("-queue must be at least 1, got %d", queue)
	}
	if jf.path != "" && jf.batch < 1 {
		return fmt.Errorf("-journal-batch must be at least 1 with -journal, got %d", jf.batch)
	}
	if !(sessionTTL >= 0) || math.IsInf(sessionTTL, 1) {
		return fmt.Errorf("-session-ttl must be a finite number of seconds ≥ 0, got %v", sessionTTL)
	}
	start := time.Now()

	// With -scenario-mix the cars replay corpus scenarios instead of the
	// default glance-and-steer trip. The mix's own fault schedules are a
	// replay-path feature (vihot-bench -scenarios); on this live wire
	// path the -loss/-dup/... flags remain the fault surface.
	var mix []scenario.MixEntry
	if scenarioMix != "" {
		var err error
		if mix, err = scenario.ParseMix(scenarioMix, seconds); err != nil {
			return err
		}
	}

	// SIGINT/SIGTERM turns into context cancellation: the senders stop,
	// the receiver drains, and the summary still prints.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Observability is opt-in: without these flags no registry or tracer
	// exists and the serving stack reads no instrumentation clocks.
	var (
		reg    *obs.Registry
		tracer *obs.Tracer
	)
	if metricsAddr != "" {
		reg = obs.NewRegistry()
	}
	if traceOut != "" {
		tracer = obs.NewTracer(obs.DefaultTraceCapacity)
	}

	// One profile per driver style (or per mix scenario), shared by
	// every car opening under it — profiling is per-driver, not per-trip
	// (Sec. 5.2.4). profNames key the profile store under -profile-dir.
	var (
		profiles  []*core.Profile
		profNames []string
	)
	if mix != nil {
		for _, e := range mix {
			p, err := e.Config.CollectProfile()
			if err != nil {
				return err
			}
			profiles = append(profiles, p)
			profNames = append(profNames, e.Config.Name)
		}
		fmt.Printf("profiled %d mix scenarios in %.1f s\n", len(mix), time.Since(start).Seconds())
	} else {
		profEnv, err := experiment.NewEnv(cabin.DefaultConfig(), seed)
		if err != nil {
			return err
		}
		styles := []driver.Profile{driver.DriverA(), driver.DriverB(), driver.DriverC()}
		popt := experiment.DefaultProfileOptions()
		popt.Positions = 5
		popt.PerPositionS = 4
		for _, st := range styles {
			p, _, err := profEnv.CollectProfile(st, popt)
			if err != nil {
				return fmt.Errorf("profiling %s: %w", st.Name, err)
			}
			profiles = append(profiles, p)
			profNames = append(profNames, st.Name)
		}
		fmt.Printf("profiled %d driver styles in %.1f s\n", len(styles), time.Since(start).Seconds())
	}

	// With -profile-dir the profiles take the production path: saved to
	// disk in the versioned format, then resolved back through the
	// shared store's LRU cache as sessions open — every car of one
	// style shares a single cached instance instead of holding its own
	// copy. Without it, profiles are handed to Open directly.
	var store *profilestore.Store
	if profileDir != "" {
		dl := profilestore.NewDirLoader(profileDir)
		for i, name := range profNames {
			if err := dl.Save(name, profiles[i]); err != nil {
				return fmt.Errorf("saving profile %s: %w", name, err)
			}
		}
		store = profilestore.New(profilestore.Config{
			Capacity: profileCache,
			Loader:   dl,
			Metrics:  reg,
		})
		fmt.Printf("profile store: %d profiles in %s (cache capacity %d)\n",
			len(profNames), profileDir, profileCache)
	}

	// The receiver: one UDP socket feeding the session manager.
	recv, err := wifi.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer recv.Close()
	// K cars at ≈500 frames/s each arrive in bursts; give the kernel
	// room so load shedding happens in the manager (where it's
	// counted), not silently in the socket.
	if err := recv.SetReadBuffer(8 << 20); err != nil {
		return err
	}
	// Decode CSI into pooled frames: the receiver loop pushes each frame
	// exactly once, and RecycleFrames below hands ownership to the
	// manager, which returns the frame to the pool after processing.
	recv.SetPooledDecode(true)
	if reg != nil {
		// The receiver keeps its own atomic tallies; export them as
		// function-backed counters so a scrape reads the live values.
		st := func(field func(wifi.RecvStats) uint64) func() uint64 {
			return func() uint64 { return field(recv.Stats()) }
		}
		reg.CounterFunc("vihot_wifi_recv_packets_total",
			"datagrams decoded off the UDP socket", st(func(s wifi.RecvStats) uint64 { return s.Packets }))
		reg.CounterFunc("vihot_wifi_recv_bytes_total",
			"payload bytes read off the UDP socket", st(func(s wifi.RecvStats) uint64 { return s.Bytes }))
		reg.CounterFunc("vihot_wifi_recv_timeouts_total",
			"receive deadline expiries", st(func(s wifi.RecvStats) uint64 { return s.Timeouts }))
		reg.CounterFunc("vihot_wifi_recv_decode_errors_total",
			"datagrams read but undecodable", st(func(s wifi.RecvStats) uint64 { return s.DecodeErrors }))
	}
	if metricsAddr != "" {
		srv, maddr, err := obs.Serve(metricsAddr, reg, tracer)
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Printf("metrics: http://%s/metrics (profiler at /debug/pprof/)\n", maddr)
	}

	// With -journal, recover whatever a previous run left behind before
	// appending: report the surviving per-session state, and if the file
	// ends in a torn record (a crash mid-write) truncate it back to the
	// last valid record so the new run appends at a record boundary.
	var jw *journal.Writer
	if jf.path != "" {
		pol, err := journal.ParseSyncPolicy(jf.sync)
		if err != nil {
			return err
		}
		prev, err := journal.RepairFile(jf.path)
		if err != nil {
			return err
		}
		if prev.Records > 0 || prev.Diag.TailBytes > 0 {
			state := "clean shutdown"
			if !prev.CleanShutdown {
				state = "unclean shutdown"
			}
			fmt.Printf("journal: recovered %d records, %d sessions from %s (%s)\n",
				prev.Records, len(prev.Sessions), jf.path, state)
			if live := prev.Live(); len(live) > 0 {
				fmt.Printf("journal: %d sessions were live at the last record: %s\n",
					len(live), strings.Join(live, " "))
			}
			if prev.Diag.Truncated {
				fmt.Printf("journal: torn tail repaired (%d bytes past the last valid record dropped)\n",
					prev.Diag.TailBytes)
			}
		}
		jw, err = journal.OpenFile(jf.path, journal.Config{
			BatchSize: jf.batch,
			IntervalS: jf.intervalS,
			Sync:      pol,
			Metrics:   reg,
			OnError: func(err error) {
				fmt.Fprintf(os.Stderr, "journal: %v\n", err)
			},
		})
		if err != nil {
			return err
		}
	}

	var (
		mu          sync.Mutex
		estimates   = map[string][]core.Estimate{}
		transitions = map[string]int{}
		reaps       = map[string]float64{}
	)
	mgr := serve.New(serve.Config{
		Shards:        shards,
		QueueLen:      queue,
		SessionTTLS:   sessionTTL,
		RecycleFrames: true,
		Metrics:       reg,
		Trace:         tracer,
		Profiles:      store,
		Journal:       jw,
		OnEstimate: func(id string, est core.Estimate) {
			mu.Lock()
			estimates[id] = append(estimates[id], est)
			mu.Unlock()
		},
		OnEvent: func(rec journal.Record) {
			switch rec.Kind {
			case journal.KindHealth:
				mu.Lock()
				transitions[rec.Session]++
				mu.Unlock()
			case journal.KindReap:
				mu.Lock()
				reaps[rec.Session] = rec.T
				mu.Unlock()
				fmt.Fprintf(os.Stderr, "reaped idle session %s at stream time %.2f s\n", rec.Session, rec.T)
			}
		},
	})
	defer mgr.Close()

	// Assign each car its environment and trajectory up front: drawn
	// from the weighted scenario mix, or the default glance-and-steer
	// trip per driver style.
	plans := make([]carPlan, 0, drivers)
	if mix != nil {
		weights := make([]float64, len(mix))
		for i, e := range mix {
			weights[i] = e.Weight
			if weights[i] == 0 {
				weights[i] = 1
			}
		}
		counts := scenario.Apportion(weights, drivers)
		for i, e := range mix {
			for j := 0; j < counts[i]; j++ {
				env, sc, kind, err := e.Config.Session(j)
				if err != nil {
					return err
				}
				plans = append(plans, carPlan{env: env, sc: sc,
					label: e.Config.Name + "/" + kind, scName: e.Config.Name, prof: i})
			}
		}
	} else {
		styles := []driver.Profile{driver.DriverA(), driver.DriverB(), driver.DriverC()}
		for i := 0; i < drivers; i++ {
			env, err := experiment.NewEnv(cabin.DefaultConfig(), seed+int64(i)*101+7)
			if err != nil {
				return err
			}
			style := styles[i%len(styles)]
			plans = append(plans, carPlan{
				env: env,
				sc: driver.DrivingScenario(env.RNG.Fork(), style, seconds, driver.GlanceOptions{
					Steering:       true,
					PositionJitter: 0.008,
				}),
				label: style.Name,
				prof:  i % len(styles),
			})
		}
	}

	// Dial one sender per car and open its session keyed by the
	// sender's source address — how the receiver will see it.
	cars := make([]*car, len(plans))
	for i, pl := range plans {
		sender, err := wifi.Dial(recv.Addr().String())
		if err != nil {
			return err
		}
		defer sender.Close()
		c := &car{
			id:       sender.LocalAddr().String(),
			label:    pl.label,
			scName:   pl.scName,
			scenario: pl.sc,
			env:      pl.env,
			sender:   sender,
			out:      sender,
			flush:    func() error { return nil },
		}
		if ff.enabled() {
			// One injector per car: each phone link misbehaves on its
			// own deterministic schedule.
			pi := faults.NewPacketInjector(faults.PacketConfig{
				Loss: ff.loss, Dup: ff.dup, Reorder: ff.reorder, Corrupt: ff.corrupt,
			}, stats.NewRNG(ff.seed+int64(i)))
			// Idempotent registration: every car's injector accumulates
			// into the same vihot_faults_packets_total series.
			pi.BindMetrics(reg)
			fs := faults.NewSender(sender, pi)
			c.out, c.flush = fs, fs.Flush
		}
		if store == nil {
			if err := mgr.Open(c.id, profiles[pl.prof], core.DefaultPipelineConfig()); err != nil {
				return err
			}
		}
		cars[i] = c
	}
	if store != nil {
		// Resolve through the store as one fleet batch: cars sharing a
		// driver style (or mix scenario) share one cached immutable
		// profile instance, and the whole fleet costs one loader call
		// per distinct style, not per car.
		opens := make([]serve.KeyedOpen, len(plans))
		for i, pl := range plans {
			opens[i] = serve.KeyedOpen{ID: cars[i].id, Key: profNames[pl.prof]}
		}
		for i, err := range mgr.OpenSessionsByKey(opens, core.DefaultPipelineConfig()) {
			if err != nil {
				return fmt.Errorf("opening car %d: %w", i, err)
			}
		}
	}

	// Receiver loop: demultiplex datagrams by source address into the
	// manager. Runs until the senders finish and the socket idles.
	var (
		senders  sync.WaitGroup
		sendDone = make(chan struct{})
		recvDone = make(chan error, 1)
		decodeEr int
	)
	// Receive errors are classified, not string-matched: decode errors
	// mean the socket is fine (count and keep reading), timeouts mean
	// poll again, anything else means the socket itself is failing —
	// retry with capped exponential backoff instead of spinning.
	const (
		backoffMin = 10 * time.Millisecond
		backoffMax = 2 * time.Second
	)
	go func() {
		backoff := backoffMin
		for {
			pkt, addr, err := recv.RecvFrom(200 * time.Millisecond)
			switch {
			case err == nil:
				backoff = backoffMin // healthy read: reset the ladder
			case wifi.IsDecode(err):
				decodeEr++ // corrupt datagram; the socket is fine
				continue
			case wifi.IsTimeout(err):
				// Deadline expiry: the stream is over once the senders
				// are done and the buffer has drained.
				select {
				case <-sendDone:
					recvDone <- nil
					return
				default:
					continue
				}
			case errors.Is(err, net.ErrClosed):
				recvDone <- nil
				return
			default:
				fmt.Fprintf(os.Stderr, "recv: %v (retrying in %s)\n", err, backoff)
				time.Sleep(backoff)
				if backoff *= 2; backoff > backoffMax {
					backoff = backoffMax
				}
				continue
			}
			it := serve.Item{Session: addr.String()}
			switch pkt.Type {
			case wifi.TypeCSI:
				it.Kind, it.Frame = serve.KindFrame, pkt.CSI
			case wifi.TypeIMU:
				it.Kind, it.IMU = serve.KindIMU, *pkt.IMU
			}
			mgr.Push(it)
		}
	}()

	// The cars: stream CSI at the link's arrival times plus 100 Hz IMU,
	// as fast as the wire allows (the manager sheds what it must).
	for _, c := range cars {
		senders.Add(1)
		go func(c *car) {
			defer senders.Done()
			phone := imu.NewPhoneIMU(c.env.RNG.Fork())
			nextIMU := 0.0
			sent := 0
			for _, t := range c.env.Timing.ArrivalTimes(c.env.RNG.Fork(), c.scenario.Duration) {
				// Graceful shutdown: a signal stops the stream mid-trip;
				// whatever already reached the wire still gets processed.
				if ctx.Err() != nil {
					break
				}
				// Light pacing: full-blast loopback UDP overruns the
				// kernel socket buffer long before the manager sheds;
				// a real phone is rate-limited by the air anyway.
				if sent++; sent%8 == 0 {
					time.Sleep(time.Millisecond)
				}
				for nextIMU <= t {
					r := phone.Sample(nextIMU, c.scenario.CarYawRateDPS(nextIMU), c.scenario.SpeedMPS)
					if err := c.out.SendIMU(&r); err != nil {
						return
					}
					nextIMU += 0.01
				}
				if err := c.out.SendCSI(c.env.FrameAt(c.scenario.State(t))); err != nil {
					return
				}
			}
			// Deliver any datagrams still held back for reordering.
			_ = c.flush()
		}(c)
	}
	senders.Wait()
	close(sendDone)
	interrupted := ctx.Err() != nil
	if interrupted {
		fmt.Fprintln(os.Stderr, "\nsignal received: stopping senders, draining sessions")
	}
	if err := <-recvDone; err != nil {
		return err
	}
	mgr.Flush()

	// Score each session against its scenario's ground truth,
	// accumulating the per-scenario rollup along the way.
	fmt.Printf("\n%-22s %-24s %9s %12s %8s %6s\n", "session", "driver/scenario", "estimates", "median-err", "health", "trans")
	sort.Slice(cars, func(i, j int) bool { return cars[i].id < cars[j].id })
	scErrs := map[string][]float64{}
	scEst := map[string]int{}
	scSessions := map[string]int{}
	scHealth := map[string]map[string]int{}
	for _, c := range cars {
		mu.Lock()
		ests := estimates[c.id]
		trans := transitions[c.id]
		mu.Unlock()
		var errs []float64
		for _, est := range ests {
			errs = append(errs, geom.AngleDistDeg(est.Yaw, c.scenario.HeadYaw.At(est.Time)))
		}
		med := stats.Median(errs)
		hcol := "reaped"
		mu.Lock()
		_, wasReaped := reaps[c.id]
		mu.Unlock()
		if !wasReaped {
			h, _ := mgr.Health(c.id)
			hcol = h.String()
		}
		fmt.Printf("%-22s %-24s %9d %11.1f° %8s %6d\n", c.id, c.label, len(ests), med, hcol, trans)
		if c.scName != "" {
			scErrs[c.scName] = append(scErrs[c.scName], errs...)
			scEst[c.scName] += len(ests)
			scSessions[c.scName]++
			if scHealth[c.scName] == nil {
				scHealth[c.scName] = map[string]int{}
			}
			scHealth[c.scName][hcol]++
		}
	}
	if mix != nil {
		fmt.Printf("\n%-18s %8s %9s %10s %9s  %s\n",
			"scenario", "sessions", "estimates", "median(°)", "p95(°)", "final health")
		printed := map[string]bool{}
		for _, e := range mix {
			name := e.Config.Name
			if printed[name] {
				continue // duplicate mix entries roll up under one name
			}
			printed[name] = true
			med, p95 := 0.0, 0.0
			if errs := scErrs[name]; len(errs) > 0 {
				med = stats.Median(errs)
				p95, _ = stats.Percentile(errs, 95)
			}
			var parts []string
			states := make([]string, 0, len(scHealth[name]))
			for s := range scHealth[name] {
				states = append(states, s)
			}
			sort.Strings(states)
			for _, s := range states {
				parts = append(parts, fmt.Sprintf("%s:%d", s, scHealth[name][s]))
			}
			fmt.Printf("%-18s %8d %9d %10.2f %9.2f  %s\n",
				name, scSessions[name], scEst[name], med, p95, strings.Join(parts, " "))
		}
	}

	// Graceful exit: flush whatever remains in the shard rings, then
	// close. After this the conservation identity holds exactly (no
	// DroppedClosed) and the sessions-open gauge reads zero.
	mgr.CloseDrain()

	// The manager appends nothing after CloseDrain, so the journal can
	// now drain, write its shutdown trailer, and fsync — before the
	// summary, so the accounting below is the durable truth.
	var jstats journal.Stats
	if jw != nil {
		if err := jw.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "journal close: %v\n", err)
		}
		jstats = jw.Stats()
	}

	snap := mgr.Counters().Snapshot()
	fmt.Printf("\ncounters: frames=%d imu=%d estimates=%d shed=%d unknown=%d rejected-kind=%d rejected-closed=%d reaped=%d sanitize-errs=%d decode-errs=%d\n",
		snap.FramesIn, snap.IMUIn, snap.Estimates, snap.DroppedStale,
		snap.DroppedUnknown, snap.RejectedKind, snap.RejectedClosed,
		snap.SessionsReaped, snap.SanitizeErrors, decodeEr)
	fmt.Printf("health: rejected-time=%d coasted=%d suppressed-stale=%d degraded=%d coasting=%d stale=%d recovered=%d resets=%d\n",
		snap.RejectedTime, snap.Coasted, snap.SuppressedStale,
		snap.ToDegraded, snap.ToCoasting, snap.ToStale, snap.Recoveries, snap.TrackerResets)
	if store != nil {
		st := store.Stats()
		fmt.Printf("profile store: hits=%d misses=%d loads=%d errors=%d evictions=%d cached=%d (%d bytes)\n",
			st.Hits, st.Misses, st.Loads, st.LoadErrors, st.Evictions, st.Profiles, st.Bytes)
	}
	if jw != nil {
		calls := jstats.Batches + jstats.Syncs
		amort := float64(jstats.Records)
		if calls > 0 {
			amort = float64(jstats.Records) / float64(calls)
		}
		fmt.Printf("journal: appended=%d dropped=%d errors=%d records=%d batches=%d syncs=%d bytes=%d (%.1f records/syscall) -> %s\n",
			snap.JournalAppended, snap.JournalDropped, snap.JournalErrors,
			jstats.Records, jstats.Batches, jstats.Syncs, jstats.Bytes, amort, jf.path)
	}
	if tracer != nil {
		d := tracer.Dump()
		f, err := os.Create(traceOut)
		if err != nil {
			return err
		}
		if err := tracer.WriteJSON(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("trace: %d spans (%d overwritten) -> %s\n", len(d.Spans), d.Overwritten, traceOut)
	}
	mode := "simulated"
	if interrupted {
		mode = "interrupted; drained"
	}
	fmt.Printf("%d drivers × %.0f s %s through %d shards in %.1f s wall\n",
		drivers, seconds, mode, shards, time.Since(start).Seconds())
	return nil
}
