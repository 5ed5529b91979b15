// Package journal is the serving stack's durable estimate/health
// journal: an append-only, crash-recoverable log of per-session
// estimates, degradation-state transitions, and reap/close events,
// written behind the hot path so ingest never blocks on I/O.
//
// # Record format
//
// Every record is one internal/envelope frame (the same
// magic/version/length/CRC-32 layout driver profiles use, PR 4) under
// the "ViHJ" magic, carrying a fixed-width big-endian payload (see
// record.go). Records are self-delimiting and individually
// checksummed, so a reader can replay a file record by record and
// stop at the exact byte where a crash tore the tail — Recover does.
//
// # Write-behind contract
//
// Append never blocks and never touches the disk: it places the
// record on a bounded in-memory queue and returns. A single writer
// goroutine drains the queue, encodes records into group commits, and
// issues one Write (plus at most one Sync, per policy) per batch. A
// full queue sheds the new record — counted, like every drop in the
// serving stack — because a slow disk must degrade durability, never
// latency. The cost is bounded, explicit loss: everything between the
// last committed batch and the crash is gone, and the books say so.
//
// Group commits close on whichever comes first: the batch reaching
// Config.BatchSize records, or the incoming record's stream time
// running Config.IntervalS past the batch's first record. The
// interval is measured on stream time — the journal reads no wall
// clocks unless metrics are enabled — so a given record sequence
// produces byte-identical files run after run. The flip side: an
// idle stream holds its tail batch until the next record, Flush, or
// Close delivers it.
//
// # Fsync policy
//
// SyncBatch (default) fsyncs after every group commit: at most one
// batch of records is exposed to OS/power loss. SyncNone leaves
// syncing to the OS (crash-consistent but not power-fail bounded).
// SyncBatch with BatchSize 1 commits and fsyncs every record
// individually — the durability-maximal, throughput-minimal end.
// Close always flushes, writes a KindShutdown trailer, and fsyncs
// regardless of policy.
package journal

import (
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
	"sync"
	"time"

	"vihot/internal/obs"
)

// Errors returned by the Writer.
var (
	ErrClosed   = errors.New("journal: writer closed")
	ErrNoWriter = errors.New("journal: config has no writer")
)

// SyncPolicy selects when the writer fsyncs the underlying file.
type SyncPolicy uint8

// Sync policies. The zero value is the default, SyncBatch.
const (
	// SyncBatch fsyncs after every group commit.
	SyncBatch SyncPolicy = iota
	// SyncNone never fsyncs during the run (Close still does).
	SyncNone
)

// String names the policy for flags and tooling.
func (p SyncPolicy) String() string {
	switch p {
	case SyncBatch:
		return "batch"
	case SyncNone:
		return "none"
	default:
		return fmt.Sprintf("SyncPolicy(%d)", uint8(p))
	}
}

// ParseSyncPolicy parses a -journal-sync flag value.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch strings.ToLower(s) {
	case "batch":
		return SyncBatch, nil
	case "none":
		return SyncNone, nil
	default:
		return 0, fmt.Errorf("journal: unknown sync policy %q (want batch or none)", s)
	}
}

// Syncer is the optional flush-to-stable-storage surface of the
// underlying writer. *os.File implements it; an in-memory test buffer
// need not.
type Syncer interface{ Sync() error }

// Config tunes a Writer. The zero value of every field but W selects
// the defaults.
type Config struct {
	// W receives the journal bytes. Required by New (OpenFile fills it
	// in). If it implements Syncer, the sync policy applies; otherwise
	// syncs are no-ops.
	W io.Writer
	// BatchSize is the group-commit size in records. Default 64.
	BatchSize int
	// IntervalS is the group-commit stream-time interval in seconds: a
	// batch is committed once an incoming record's stream time runs
	// this far past the batch's first record. Default 0.25, which also
	// replaces a non-finite value.
	IntervalS float64
	// QueueLen bounds the in-memory queue between Append and the
	// writer goroutine. Default 4096. A full queue sheds the appended
	// record (counted in Stats.DroppedFull).
	QueueLen int
	// Sync is the fsync policy. Default SyncBatch.
	Sync SyncPolicy
	// OnError, if set, receives every asynchronous write/sync failure
	// from the writer goroutine. Called serially from that goroutine.
	OnError func(error)
	// Metrics, if set, registers the vihot_journal_* series there. The
	// counters exist either way (Stats reads them); the sync-latency
	// histogram is only populated when Metrics is set, so an
	// unobserved journal reads no wall clocks.
	Metrics *obs.Registry
}

// Stats is one observation of the writer's counters. Monotone per
// field; not a consistent cut across fields. Conservation: with the
// writer idle (after Flush) and no concurrent appenders,
//
//	Enqueued == Records + EncodeErrors  and every Append returned
//	true exactly Enqueued times, false DroppedFull+DroppedClosed times.
type Stats struct {
	Enqueued      uint64 // records accepted onto the queue
	DroppedFull   uint64 // records shed because the queue was full
	DroppedClosed uint64 // records refused after Close
	Records       uint64 // records written to the underlying writer
	Batches       uint64 // group commits (Write calls)
	Syncs         uint64 // fsyncs issued
	Errors        uint64 // write/sync/encode failures
	Bytes         uint64 // bytes handed to the underlying writer
}

// writerMetrics is the registry-backed counter block; a private
// registry backs it when the caller supplies none.
type writerMetrics struct {
	enqueued      *obs.Counter
	droppedFull   *obs.Counter
	droppedClosed *obs.Counter
	records       *obs.Counter
	batches       *obs.Counter
	syncs         *obs.Counter
	errors        *obs.Counter
	bytes         *obs.Counter
	depth         *obs.Gauge
	batchH        *obs.Histogram
	syncH         *obs.Histogram // nil without cfg.Metrics: no wall clocks
}

// batchBuckets are the batch-size histogram bounds (records per
// group commit).
func batchBuckets() []float64 {
	return []float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512}
}

func newWriterMetrics(r *obs.Registry, wall bool) writerMetrics {
	dropped := func(reason string) *obs.Counter {
		return r.Counter("vihot_journal_dropped_total",
			"journal records shed before reaching the file, by reason", "reason", reason)
	}
	m := writerMetrics{
		enqueued:      r.Counter("vihot_journal_appends_total", "records accepted onto the write-behind queue"),
		droppedFull:   dropped("overflow"),
		droppedClosed: dropped("closed"),
		records:       r.Counter("vihot_journal_records_written_total", "records written to the journal file"),
		batches:       r.Counter("vihot_journal_batches_total", "group commits (write calls) issued"),
		syncs:         r.Counter("vihot_journal_syncs_total", "fsyncs issued"),
		errors:        r.Counter("vihot_journal_errors_total", "asynchronous write/sync/encode failures"),
		bytes:         r.Counter("vihot_journal_bytes_total", "bytes handed to the journal file"),
		depth:         r.Gauge("vihot_journal_queue_depth", "records waiting on the write-behind queue"),
		batchH: r.Histogram("vihot_journal_batch_records",
			"group-commit size in records", batchBuckets()),
	}
	if wall {
		m.syncH = r.Histogram("vihot_journal_sync_seconds",
			"wall-clock fsync latency", obs.LatencyBuckets())
	}
	return m
}

// ctlReq is a Flush or Close request into the writer goroutine.
type ctlReq struct {
	close bool
	ack   chan error
}

// Writer is the write-behind journal appender. Append is safe for
// concurrent use; Flush and Close serialize behind the same lock.
type Writer struct {
	cfg   Config
	sync  Syncer // cfg.W if it implements Syncer, else nil
	owned io.Closer

	recs chan Record
	ctl  chan ctlReq

	mu     sync.RWMutex // guards closed against Append/Flush racing Close
	closed bool

	m writerMetrics
}

// New builds a Writer over cfg.W and starts its writer goroutine.
// Close must be called to flush the tail and release it.
func New(cfg Config) (*Writer, error) {
	if cfg.W == nil {
		return nil, ErrNoWriter
	}
	if cfg.BatchSize < 1 {
		cfg.BatchSize = 64
	}
	if !(cfg.IntervalS > 0) || math.IsInf(cfg.IntervalS, 1) {
		// NaN and +Inf would make due's interval test never true,
		// silently leaving commits to BatchSize, Flush and Close.
		cfg.IntervalS = 0.25
	}
	if cfg.QueueLen < 1 {
		cfg.QueueLen = 4096
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	w := &Writer{
		cfg:  cfg,
		recs: make(chan Record, cfg.QueueLen),
		ctl:  make(chan ctlReq),
		m:    newWriterMetrics(reg, cfg.Metrics != nil),
	}
	if s, ok := cfg.W.(Syncer); ok {
		w.sync = s
	}
	go w.run()
	return w, nil
}

// OpenFile opens (creating or appending to) a journal file and builds
// a Writer over it. The Writer owns the file: Close closes it. To
// resume after a crash, RepairFile first so the torn tail is gone and
// new records land on a valid prefix.
func OpenFile(path string, cfg Config) (*Writer, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	cfg.W = f
	w, err := New(cfg)
	if err != nil {
		f.Close()
		return nil, err
	}
	w.owned = f
	return w, nil
}

// Append offers one record to the journal. It never blocks: the
// record is queued for the writer goroutine and true is returned, or
// it is shed (queue full, writer closed, or the record fails
// validation) and false is returned with the loss counted. Safe for
// concurrent use.
func (w *Writer) Append(rec Record) bool {
	w.mu.RLock()
	defer w.mu.RUnlock()
	if w.closed {
		w.m.droppedClosed.Add(1)
		return false
	}
	select {
	case w.recs <- rec:
		w.m.enqueued.Add(1)
		w.m.depth.Set(float64(len(w.recs)))
		return true
	default:
		w.m.droppedFull.Add(1)
		return false
	}
}

// Flush blocks until every record appended before the call has been
// encoded, written, and (per policy) synced. Returns the commit
// error, if any; ErrClosed after Close.
func (w *Writer) Flush() error {
	w.mu.RLock()
	defer w.mu.RUnlock()
	if w.closed {
		return ErrClosed
	}
	req := ctlReq{ack: make(chan error)}
	w.ctl <- req
	return <-req.ack
}

// Close flushes the queue, appends a KindShutdown trailer, fsyncs
// (regardless of policy, when the underlying writer can), stops the
// writer goroutine, and closes the file if the Writer owns one.
// Repeat calls return ErrClosed.
func (w *Writer) Close() error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return ErrClosed
	}
	w.closed = true
	w.mu.Unlock()
	req := ctlReq{close: true, ack: make(chan error)}
	w.ctl <- req
	err := <-req.ack
	if w.owned != nil {
		if cerr := w.owned.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// Stats returns the current counter values.
func (w *Writer) Stats() Stats {
	return Stats{
		Enqueued:      w.m.enqueued.Value(),
		DroppedFull:   w.m.droppedFull.Value(),
		DroppedClosed: w.m.droppedClosed.Value(),
		Records:       w.m.records.Value(),
		Batches:       w.m.batches.Value(),
		Syncs:         w.m.syncs.Value(),
		Errors:        w.m.errors.Value(),
		Bytes:         w.m.bytes.Value(),
	}
}

// batch is the writer goroutine's in-flight group commit.
type batch struct {
	buf    []byte
	n      int
	firstT float64
	maxT   float64
	anyT   bool
}

// add encodes one record onto the batch. Encode failures (invalid
// records) are counted and reported, never written.
func (w *Writer) add(b *batch, rec Record) {
	out, err := AppendRecord(b.buf, &rec)
	if err != nil {
		w.m.errors.Add(1)
		w.fail(err)
		return
	}
	if b.n == 0 {
		b.firstT = rec.T
	}
	if !b.anyT || rec.T > b.maxT {
		b.maxT, b.anyT = rec.T, true
	}
	b.buf = out
	b.n++
}

// due reports whether the batch should commit after absorbing a
// record stamped t.
func (w *Writer) due(b *batch, t float64) bool {
	if b.n >= w.cfg.BatchSize {
		return true
	}
	return b.n > 0 && t-b.firstT >= w.cfg.IntervalS
}

// commit writes the batch (one Write call) and syncs per policy. The
// batch is reset either way: a failed commit's records are lost and
// counted, exactly like an overflow shed — the journal degrades
// durability, never blocks or retries unboundedly.
func (w *Writer) commit(b *batch, sync bool) error {
	if b.n == 0 {
		return nil
	}
	n, err := w.cfg.W.Write(b.buf)
	w.m.bytes.Add(uint64(n))
	if err != nil {
		w.m.errors.Add(1)
		w.fail(fmt.Errorf("journal: write: %w", err))
	} else {
		w.m.batches.Add(1)
		w.m.records.Add(uint64(b.n))
		w.m.batchH.Observe(float64(b.n))
		if sync && w.sync != nil {
			var t0 time.Time
			if w.m.syncH != nil {
				t0 = time.Now()
			}
			serr := w.sync.Sync()
			if w.m.syncH != nil {
				w.m.syncH.Observe(time.Since(t0).Seconds())
			}
			if serr != nil {
				w.m.errors.Add(1)
				w.fail(fmt.Errorf("journal: sync: %w", serr))
				err = serr
			} else {
				w.m.syncs.Add(1)
			}
		}
	}
	b.buf = b.buf[:0]
	b.n = 0
	return err
}

// fail reports an asynchronous failure to the configured sink.
func (w *Writer) fail(err error) {
	if w.cfg.OnError != nil {
		w.cfg.OnError(err)
	}
}

// run is the writer goroutine: drain, group, commit. Commit failures
// between control calls stick: the next Flush or Close returns the
// first one, so a caller that only checks at shutdown still learns
// the journal lost data.
func (w *Writer) run() {
	var b batch
	var sticky error
	syncEach := w.cfg.Sync != SyncNone
	for {
		select {
		case rec := <-w.recs:
			w.add(&b, rec)
			if w.due(&b, rec.T) {
				if e := w.commit(&b, syncEach); e != nil && sticky == nil {
					sticky = e
				}
			}
			w.m.depth.Set(float64(len(w.recs)))
		case req := <-w.ctl:
			// Drain everything already queued, then commit the tail.
			err := sticky
			sticky = nil
		drain:
			for {
				select {
				case rec := <-w.recs:
					w.add(&b, rec)
					if w.due(&b, rec.T) {
						if e := w.commit(&b, syncEach); err == nil {
							err = e
						}
					}
				default:
					break drain
				}
			}
			if e := w.commit(&b, syncEach); err == nil {
				err = e
			}
			w.m.depth.Set(0)
			if !req.close {
				req.ack <- err
				continue
			}
			// Clean shutdown: a trailer record at the journal's high-water
			// stream time, then one final fsync no matter the policy — the
			// whole point of a graceful exit is that nothing is left to
			// the page cache.
			w.add(&b, Record{Kind: KindShutdown, T: b.maxT})
			if e := w.commit(&b, false); err == nil {
				err = e
			}
			if w.sync != nil {
				if e := w.sync.Sync(); e != nil {
					w.m.errors.Add(1)
					w.fail(fmt.Errorf("journal: close sync: %w", e))
					if err == nil {
						err = e
					}
				} else {
					w.m.syncs.Add(1)
				}
			}
			req.ack <- err
			return
		}
	}
}
