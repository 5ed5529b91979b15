package journal

import (
	"bytes"
	"errors"
	"io"
	"math"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"vihot/internal/obs"
)

// estRec builds a representative estimate record.
func estRec(session string, t, yaw float64) Record {
	return Record{
		Kind: KindEstimate, Session: session, T: t,
		Yaw: yaw, Position: 3, Source: 1, MatchDist: 0.12, Health: 0,
	}
}

// syncBuffer is an in-memory journal target that counts Write and
// Sync calls — the logicalWrites-vs-dbCalls split the bench reports,
// in test form.
type syncBuffer struct {
	mu     sync.Mutex
	buf    bytes.Buffer
	writes int
	syncs  int
	failAt int // fail the Nth write (1-based); 0 = never
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.writes++
	if b.failAt > 0 && b.writes == b.failAt {
		return 0, errors.New("injected write failure")
	}
	return b.buf.Write(p)
}

func (b *syncBuffer) Sync() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.syncs++
	return nil
}

func (b *syncBuffer) snapshot() (data []byte, writes, syncs int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]byte(nil), b.buf.Bytes()...), b.writes, b.syncs
}

func TestRecordRoundTrip(t *testing.T) {
	recs := []Record{
		estRec("cabin-1", 1.25, -12.5),
		{Kind: KindHealth, Session: "cabin-1", T: 2.0, From: 0, To: 1},
		{Kind: KindReap, Session: "idle-7", T: 3.5},
		{Kind: KindClose, Session: "cabin-1", T: 4.0, Health: 2},
		{Kind: KindShutdown, T: 4.0},
	}
	var framed []byte
	for i := range recs {
		out, err := AppendRecord(framed, &recs[i])
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		framed = out
	}
	jr := NewReader(bytes.NewReader(framed))
	for i, want := range recs {
		got, err := jr.Next()
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if got != want {
			t.Errorf("record %d: got %+v want %+v", i, got, want)
		}
	}
	if _, err := jr.Next(); err != io.EOF {
		t.Fatalf("end of stream: %v", err)
	}
	if jr.Offset() != int64(len(framed)) {
		t.Errorf("offset = %d, want %d", jr.Offset(), len(framed))
	}
}

func TestRecordRejectsInvalid(t *testing.T) {
	cases := []Record{
		{Kind: 0, T: 1},                                       // zero kind
		{Kind: 99, T: 1},                                      // unknown kind
		{Kind: 6, Session: "s", T: 1},                         // retired session-export kind
		{Kind: KindEstimate, T: math.NaN()},                   // NaN time
		{Kind: KindEstimate, T: 1, Yaw: math.Inf(1)},          // Inf yaw
		{Kind: KindEstimate, T: 1, MatchDist: math.NaN()},     // NaN dist
		{Kind: KindReap, Session: string(make([]byte, 5000))}, // oversized session
	}
	for i, r := range cases {
		if _, err := AppendRecord(nil, &r); !errors.Is(err, ErrBadRecord) {
			t.Errorf("case %d: err = %v, want ErrBadRecord", i, err)
		}
	}
	// A kind-6 payload in the retired export layout (estimate tail,
	// estimate time, from/to node indices, flags) no longer decodes.
	export := []byte{6, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 's'}
	export = append(export, make([]byte, estimateLen+8+3)...)
	if _, err := DecodeRecord(export); !errors.Is(err, ErrBadRecord) {
		t.Errorf("kind-6 payload: err = %v, want ErrBadRecord", err)
	}
}

func TestWriterBatchSizeTrigger(t *testing.T) {
	var sb syncBuffer
	w, err := New(Config{W: &sb, BatchSize: 4, IntervalS: 1e9})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if !w.Append(estRec("s", float64(i)*0.01, 1)) {
			t.Fatalf("append %d refused", i)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	st := w.Stats()
	if st.Records != 8 {
		t.Errorf("records = %d, want 8", st.Records)
	}
	// 8 records at batch size 4: exactly 2 commits (Flush found nothing
	// left over). The writer may legally have committed in smaller
	// groups only if the queue drained slower, but the size trigger
	// bounds it: never more than 8, never fewer than 2.
	if st.Batches < 2 || st.Batches > 8 {
		t.Errorf("batches = %d, want within [2,8]", st.Batches)
	}
	if st.Syncs != st.Batches {
		t.Errorf("syncs = %d, batches = %d: SyncBatch must pair them", st.Syncs, st.Batches)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestWriterIntervalTrigger(t *testing.T) {
	var sb syncBuffer
	w, err := New(Config{W: &sb, BatchSize: 1 << 20, IntervalS: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	// Two records 0.3 s apart: the second runs past the interval and
	// must commit the batch without any Flush.
	w.Append(estRec("s", 0.0, 1))
	w.Append(estRec("s", 0.3, 2))
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if st := w.Stats(); st.Records != 2 || st.Batches == 0 {
		t.Errorf("stats = %+v, want 2 records in ≥1 batch", st)
	}
	w.Close()
}

// TestWriterNonFiniteIntervalDefaults: a NaN or +Inf interval takes
// the 0.25 s default instead of disabling the interval trigger. The
// record at 0.3 s commits the first two records on its own, so the
// Flush commits the third as a second batch.
func TestWriterNonFiniteIntervalDefaults(t *testing.T) {
	for _, iv := range []float64{math.NaN(), math.Inf(1)} {
		var sb syncBuffer
		w, err := New(Config{W: &sb, BatchSize: 1 << 20, IntervalS: iv})
		if err != nil {
			t.Fatal(err)
		}
		w.Append(estRec("s", 0.0, 1))
		w.Append(estRec("s", 0.3, 2))
		w.Append(estRec("s", 0.35, 3))
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		if st := w.Stats(); st.Records != 3 || st.Batches != 2 {
			t.Errorf("IntervalS=%v: stats = %+v, want 3 records in 2 batches", iv, st)
		}
		w.Close()
	}
}

func TestWriterDeterministicBytes(t *testing.T) {
	run := func() []byte {
		var sb syncBuffer
		w, err := New(Config{W: &sb, BatchSize: 3})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 10; i++ {
			w.Append(estRec("car", float64(i)*0.1, float64(i)))
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		data, _, _ := sb.snapshot()
		return data
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		t.Error("same record sequence produced different journal bytes")
	}
}

func TestWriterOverflowSheds(t *testing.T) {
	// A writer whose goroutine is wedged behind a blocking first Write
	// would be flaky to build; instead use QueueLen=1 and a pre-filled
	// queue window: append faster than the drain can be observed. The
	// deterministic route: stop the goroutine entirely by closing, then
	// assert DroppedClosed; overflow is covered via a full queue racing
	// a slow writer in the soak tests. Here, pin the accounting rules.
	var sb syncBuffer
	w, err := New(Config{W: &sb, QueueLen: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if w.Append(estRec("s", 1, 1)) {
		t.Error("append accepted after Close")
	}
	if st := w.Stats(); st.DroppedClosed != 1 {
		t.Errorf("droppedClosed = %d, want 1", st.DroppedClosed)
	}
	if err := w.Close(); err != ErrClosed {
		t.Errorf("second Close = %v, want ErrClosed", err)
	}
	if err := w.Flush(); err != ErrClosed {
		t.Errorf("Flush after Close = %v, want ErrClosed", err)
	}
}

func TestWriterSyncPolicies(t *testing.T) {
	t.Run("none", func(t *testing.T) {
		var sb syncBuffer
		w, _ := New(Config{W: &sb, Sync: SyncNone, BatchSize: 2})
		for i := 0; i < 6; i++ {
			w.Append(estRec("s", float64(i), 1))
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		_, _, syncs := sb.snapshot()
		if syncs != 1 {
			t.Errorf("syncs = %d, want exactly the close sync", syncs)
		}
	})
	t.Run("batch1", func(t *testing.T) {
		var sb syncBuffer
		w, _ := New(Config{W: &sb, Sync: SyncBatch, BatchSize: 1})
		for i := 0; i < 5; i++ {
			w.Append(estRec("s", float64(i), 1))
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		st := w.Stats()
		// Every record its own commit+sync: fsync per record.
		if st.Batches != 5 || st.Syncs != 5 {
			t.Errorf("batches=%d syncs=%d, want 5/5", st.Batches, st.Syncs)
		}
		w.Close()
	})
}

func TestWriterWriteFailureCountedAndReported(t *testing.T) {
	sb := syncBuffer{failAt: 1}
	var reported []error
	var mu sync.Mutex
	w, err := New(Config{
		W: &sb, BatchSize: 2,
		OnError: func(e error) { mu.Lock(); reported = append(reported, e); mu.Unlock() },
	})
	if err != nil {
		t.Fatal(err)
	}
	w.Append(estRec("s", 0, 1))
	w.Append(estRec("s", 0.01, 1))
	if err := w.Flush(); err == nil {
		t.Error("Flush swallowed the write failure")
	}
	st := w.Stats()
	if st.Errors == 0 {
		t.Error("write failure not counted")
	}
	mu.Lock()
	n := len(reported)
	mu.Unlock()
	if n == 0 {
		t.Error("OnError never called")
	}
	// The journal degrades, never wedges: later appends still land.
	w.Append(estRec("s", 0.02, 2))
	if err := w.Flush(); err != nil {
		t.Fatalf("writer wedged after failure: %v", err)
	}
	w.Close()
	data, _, _ := sb.snapshot()
	res, err := Recover(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	if s := res.Sessions["s"]; s == nil || s.Estimate.Yaw != 2 {
		t.Errorf("post-failure record not durable: %+v", s)
	}
}

func TestWriterInvalidRecordCounted(t *testing.T) {
	var sb syncBuffer
	w, _ := New(Config{W: &sb})
	w.Append(Record{Kind: KindEstimate, Session: "s", T: math.NaN()})
	w.Flush()
	if st := w.Stats(); st.Errors != 1 || st.Records != 0 {
		t.Errorf("stats = %+v, want the NaN record counted as an error, not written", st)
	}
	w.Close()
}

func TestWriterStatsConservation(t *testing.T) {
	var sb syncBuffer
	w, _ := New(Config{W: &sb, BatchSize: 7})
	accepted := 0
	for i := 0; i < 100; i++ {
		if w.Append(estRec("s", float64(i)*0.001, 1)) {
			accepted++
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	st := w.Stats()
	if st.Enqueued != uint64(accepted) {
		t.Errorf("enqueued = %d, accepted = %d", st.Enqueued, accepted)
	}
	// Close's trailer is written but never enqueued, hence the +1.
	if st.Records != st.Enqueued+1 {
		t.Errorf("records = %d, want enqueued+trailer = %d", st.Records, st.Enqueued+1)
	}
	if st.DroppedFull != 0 || st.DroppedClosed != 0 || st.Errors != 0 {
		t.Errorf("unexpected losses: %+v", st)
	}
}

func TestOpenFileAndTrailer(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sessions.journal")
	w, err := OpenFile(path, Config{BatchSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	w.Append(estRec("a", 1.0, 10))
	w.Append(Record{Kind: KindHealth, Session: "a", T: 2.0, From: 0, To: 1})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	res, err := RecoverFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !res.CleanShutdown {
		t.Error("trailer not detected after clean Close")
	}
	if res.Records != 3 || res.Counts[KindShutdown] != 1 {
		t.Errorf("records = %d, counts = %v", res.Records, res.Counts)
	}
	if s := res.Sessions["a"]; s == nil || s.Health != 1 || !s.HasEstimate {
		t.Errorf("session state = %+v", res.Sessions["a"])
	}
	// The trailer carries the journal's high-water stream time.
	if res.LastT != 2.0 {
		t.Errorf("lastT = %v, want 2.0", res.LastT)
	}
}

func TestWriterMetricsRegistered(t *testing.T) {
	reg := obs.NewRegistry()
	var sb syncBuffer
	w, err := New(Config{W: &sb, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	w.Append(estRec("s", 1, 1))
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	var prom bytes.Buffer
	if err := reg.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	text := prom.String()
	for _, name := range []string{
		"vihot_journal_appends_total",
		"vihot_journal_dropped_total",
		"vihot_journal_records_written_total",
		"vihot_journal_batches_total",
		"vihot_journal_syncs_total",
		"vihot_journal_errors_total",
		"vihot_journal_bytes_total",
		"vihot_journal_queue_depth",
		"vihot_journal_batch_records",
		"vihot_journal_sync_seconds",
	} {
		if !strings.Contains(text, name) {
			t.Errorf("metric %s not registered", name)
		}
	}
}

func TestParseSyncPolicy(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want SyncPolicy
	}{{"batch", SyncBatch}, {"none", SyncNone}, {"NONE", SyncNone}} {
		got, err := ParseSyncPolicy(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParseSyncPolicy(%q) = %v, %v", tc.in, got, err)
		}
		if got.String() == "" {
			t.Errorf("empty String for %v", got)
		}
	}
	for _, bad := range []string{"sometimes", "always"} {
		if _, err := ParseSyncPolicy(bad); err == nil {
			t.Errorf("bad policy %q accepted", bad)
		}
	}
}

func TestNewRejectsNilWriter(t *testing.T) {
	if _, err := New(Config{}); !errors.Is(err, ErrNoWriter) {
		t.Errorf("err = %v, want ErrNoWriter", err)
	}
}

func TestWriterConcurrentAppend(t *testing.T) {
	var sb syncBuffer
	w, err := New(Config{W: &sb, BatchSize: 16, QueueLen: 1 << 14})
	if err != nil {
		t.Fatal(err)
	}
	const workers, per = 8, 200
	var wg sync.WaitGroup
	var accepted, rejected uint64
	var mu sync.Mutex
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			acc, rej := uint64(0), uint64(0)
			for i := 0; i < per; i++ {
				if w.Append(estRec("s", float64(g*per+i)*1e-4, 1)) {
					acc++
				} else {
					rej++
				}
			}
			mu.Lock()
			accepted += acc
			rejected += rej
			mu.Unlock()
		}(g)
	}
	wg.Wait()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	st := w.Stats()
	if st.Enqueued != accepted || st.DroppedFull+st.DroppedClosed != rejected {
		t.Errorf("conservation broken: stats %+v vs accepted %d rejected %d", st, accepted, rejected)
	}
	if st.Records != st.Enqueued+1 {
		t.Errorf("records = %d, want enqueued+trailer", st.Records)
	}
	data, _, _ := sb.snapshot()
	res, err := Recover(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	if res.Records != int(st.Records) {
		t.Errorf("recovered %d records, wrote %d", res.Records, st.Records)
	}
	if !res.CleanShutdown {
		t.Error("clean shutdown not detected")
	}
}
