package obs

import (
	"encoding/json"
	"io"
	"sync"
)

// Span is one recorded unit of pipeline work. It lives on two
// timelines at once: StreamT anchors the span at the *stream-time*
// instant of the item being processed (the sensor timestamp the
// degradation machine and golden traces run on), while StartNS/DurNS
// record when and for how long the work ran on the serving process's
// monotonic clock (see Now). Offline analysis joins the two — "how
// much wall latency did the pipeline spend at stream second 3.2, and
// in which stage?" — which neither timeline answers alone.
type Span struct {
	Session string  `json:"session,omitempty"`
	Stage   string  `json:"stage"`
	StreamT float64 `json:"stream_t"` // stream-time anchor (seconds)
	StartNS int64   `json:"start_ns"` // start, ns since the tracer was created
	DurNS   int64   `json:"dur_ns"`   // duration, ns
}

// Tracer records spans into a fixed-capacity ring: the newest spans
// win, and the number of overwritten older spans is tallied so a dump
// is honest about what it no longer holds. Record takes one short
// mutex hold — tracing is opt-in, and the spans it guards are written
// from worker goroutines while dumps run concurrently, so the lock is
// the simplest correct design (the metrics hot path never goes through
// here). Record reads no clock: callers pass the stamps they already
// took. A nil Tracer discards spans.
type Tracer struct {
	mu    sync.Mutex
	ring  []Span
	next  int    // ring slot the next span lands in
	total uint64 // spans ever recorded
	t0    int64  // Now at creation; StartNS counts from here
}

// DefaultTraceCapacity is the ring size NewTracer(0) selects. The
// serving stack records three spans per CSI frame (dwell, sanitize,
// track) and a fourth when a match runs, so a busy ≈500 Hz session
// makes ~1.5–2k spans/s and the ring holds the last several seconds
// of work, at ~64 B a span.
const DefaultTraceCapacity = 65536

// NewTracer returns a tracer holding the most recent capacity spans
// (DefaultTraceCapacity when capacity ≤ 0).
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultTraceCapacity
	}
	return &Tracer{ring: make([]Span, 0, capacity), t0: Now()}
}

// Record appends one span of work that ran from start to end, two Now
// stamps, anchored at stream time streamT. A nil Tracer discards it.
func (tr *Tracer) Record(session, stage string, streamT float64, start, end int64) {
	if tr == nil {
		return
	}
	sp := Span{
		Session: session,
		Stage:   stage,
		StreamT: streamT,
		StartNS: start - tr.t0,
		DurNS:   end - start,
	}
	tr.mu.Lock()
	if len(tr.ring) < cap(tr.ring) {
		tr.ring = append(tr.ring, sp)
	} else {
		tr.ring[tr.next] = sp
	}
	tr.next = (tr.next + 1) % cap(tr.ring)
	tr.total++
	tr.mu.Unlock()
}

// TraceDump is the JSON export schema: the retained spans in record
// order plus enough bookkeeping to know how much history was lost.
type TraceDump struct {
	Recorded    uint64 `json:"recorded"`    // spans ever recorded
	Overwritten uint64 `json:"overwritten"` // spans lost to ring wrap
	Spans       []Span `json:"spans"`       // oldest → newest
}

// Dump snapshots the retained spans, oldest first. A nil Tracer dumps
// an empty trace.
func (tr *Tracer) Dump() TraceDump {
	if tr == nil {
		return TraceDump{Spans: []Span{}}
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	spans := make([]Span, 0, len(tr.ring))
	if len(tr.ring) < cap(tr.ring) {
		spans = append(spans, tr.ring...)
	} else {
		spans = append(spans, tr.ring[tr.next:]...)
		spans = append(spans, tr.ring[:tr.next]...)
	}
	return TraceDump{
		Recorded:    tr.total,
		Overwritten: tr.total - uint64(len(spans)),
		Spans:       spans,
	}
}

// WriteJSON writes the Dump as indented JSON.
func (tr *Tracer) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(tr.Dump())
}

// ReadTrace parses a TraceDump previously written by WriteJSON.
func ReadTrace(r io.Reader) (TraceDump, error) {
	var d TraceDump
	err := json.NewDecoder(r).Decode(&d)
	return d, err
}
