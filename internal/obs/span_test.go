package obs

import (
	"bytes"
	"testing"
	"time"
)

func TestTracerRingOrder(t *testing.T) {
	tr := NewTracer(4)
	// The caller's stamps are the only clock: StartNS arithmetic is exact.
	end := tr.t0 + int64(time.Millisecond)
	for i := 0; i < 6; i++ {
		tr.Record("s", "stage", float64(i), end-int64(i), end)
	}
	d := tr.Dump()
	if d.Recorded != 6 || d.Overwritten != 2 || len(d.Spans) != 4 {
		t.Fatalf("dump = %d recorded, %d overwritten, %d kept; want 6/2/4", d.Recorded, d.Overwritten, len(d.Spans))
	}
	for i, sp := range d.Spans {
		if want := float64(i + 2); sp.StreamT != want {
			t.Fatalf("span %d StreamT = %v, want %v (oldest-first order)", i, sp.StreamT, want)
		}
		if want := int64(time.Millisecond) - sp.DurNS; sp.StartNS != want {
			t.Fatalf("span %d StartNS = %d, want %d", i, sp.StartNS, want)
		}
	}
}

func TestTracerPartialRing(t *testing.T) {
	tr := NewTracer(8)
	tr.Record("a", "x", 1, 0, 10)
	tr.Record("b", "y", 2, 0, 20)
	d := tr.Dump()
	if d.Recorded != 2 || d.Overwritten != 0 || len(d.Spans) != 2 {
		t.Fatalf("dump = %+v", d)
	}
	if d.Spans[0].Session != "a" || d.Spans[1].Session != "b" {
		t.Fatal("partial ring out of order")
	}
}

func TestTraceJSONRoundTrip(t *testing.T) {
	tr := NewTracer(16)
	tr.Record("car-1", "track", 3.25, tr.t0+100, tr.t0+1600)
	tr.Record("", "dwell", 3.5, tr.t0, tr.t0+900)
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	d, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Spans) != 2 || d.Recorded != 2 {
		t.Fatalf("round trip lost spans: %+v", d)
	}
	got := d.Spans[0]
	if got.Session != "car-1" || got.Stage != "track" || got.StreamT != 3.25 || got.StartNS != 100 || got.DurNS != 1500 {
		t.Fatalf("span corrupted: %+v", got)
	}
	if d.Spans[1].Session != "" {
		t.Fatal("empty session did not survive omitempty round trip")
	}
}

func TestTracerDefaultCapacity(t *testing.T) {
	if got := cap(NewTracer(0).ring); got != DefaultTraceCapacity {
		t.Fatalf("default capacity = %d, want %d", got, DefaultTraceCapacity)
	}
}

func TestStampMatchesNow(t *testing.T) {
	before := Now()
	s := Stamp(time.Now())
	after := Now()
	if s < before || s > after {
		t.Fatalf("Stamp(time.Now()) = %d outside [%d, %d]", s, before, after)
	}
}
