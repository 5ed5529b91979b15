package journal

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"

	"vihot/internal/envelope"
)

// Reader replays a journal stream record by record. It is strict
// about what it returns — every record came through an intact
// envelope and a clean payload decode — and precise about where it
// stops: Offset is always the byte offset just past the last valid
// record, which is exactly where a repair should truncate and an
// appender should resume.
type Reader struct {
	br  *bufio.Reader
	off int64
	err error
}

// NewReader wraps a journal stream.
func NewReader(r io.Reader) *Reader {
	return &Reader{br: bufio.NewReader(r)}
}

// Next returns the next valid record. io.EOF means the stream ended
// cleanly on a record boundary; any other error means the bytes at
// Offset are torn or corrupt, and the reader stays stopped there.
func (r *Reader) Next() (Record, error) {
	if r.err != nil {
		return Record{}, r.err
	}
	payload, _, err := envelope.Read(r.br, recordSpec)
	if err != nil {
		r.err = err
		return Record{}, err
	}
	rec, err := DecodeRecord(payload)
	if err != nil {
		r.err = err
		return Record{}, err
	}
	r.off += int64(envelope.HeaderLen + len(payload))
	return rec, nil
}

// Offset is the byte offset just past the last valid record.
func (r *Reader) Offset() int64 { return r.off }

// SessionState is what recovery knows about one session after
// replaying its records: enough for a warm restart to seed the
// session's last estimate and health, and for tooling to report
// per-session activity.
type SessionState struct {
	// Records is how many journal records mentioned this session.
	Records int
	// FirstT and LastT span the session's records (stream seconds).
	FirstT, LastT float64
	// HasEstimate reports whether Estimate holds a delivered estimate.
	HasEstimate bool
	// Estimate is the session's last KindEstimate record, verbatim.
	Estimate Record
	// Health is the last health value seen for the session — from an
	// estimate record, a transition's destination, or a close record,
	// whichever came last.
	Health uint8
	// Closed reports the session ended (KindClose or KindReap).
	Closed bool
	// Reaped reports the close was an idle-TTL eviction specifically.
	Reaped bool
}

// Diagnostics describes the physical condition of the scanned file.
type Diagnostics struct {
	// ValidBytes is the length of the valid record prefix — the offset
	// RepairFile truncates to.
	ValidBytes int64
	// TailBytes is how many bytes past the valid prefix the stream
	// carried (0 on a clean file).
	TailBytes int64
	// Truncated reports a torn or corrupt tail was found.
	Truncated bool
	// Err is the decode error that stopped the scan (nil on a clean
	// file).
	Err error
}

// RecoverResult is a replayed journal: aggregate counts, the time
// span, per-session terminal state, and the tail diagnostics.
type RecoverResult struct {
	// Records is the number of valid records replayed.
	Records int
	// Counts breaks Records down by kind.
	Counts map[Kind]int
	// Sessions maps session ID to its reconstructed state.
	Sessions map[string]*SessionState
	// HasSpan reports at least one record was replayed; FirstT and
	// LastT then span the journal's stream time.
	HasSpan       bool
	FirstT, LastT float64
	// CleanShutdown reports the last record is the KindShutdown
	// trailer Writer.Close appends — the process exited gracefully. A
	// crash (or any record after the trailer) leaves it false.
	CleanShutdown bool
	// Diag describes the physical tail of the file.
	Diag Diagnostics
}

// Live returns the sessions recovery considers open — journaled
// activity, never closed or reaped — sorted by ID. These are the
// candidates for warm-restart seeding.
func (res *RecoverResult) Live() []string {
	var ids []string
	for id, s := range res.Sessions {
		if !s.Closed {
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)
	return ids
}

// apply folds one record into the result.
func (res *RecoverResult) apply(rec Record) {
	res.Records++
	res.Counts[rec.Kind]++
	if !res.HasSpan {
		res.FirstT, res.HasSpan = rec.T, true
	}
	if rec.T > res.LastT || res.Records == 1 {
		res.LastT = rec.T
	}
	// The trailer is only "clean" if nothing follows it.
	res.CleanShutdown = rec.Kind == KindShutdown
	if rec.Kind == KindShutdown {
		return
	}
	s := res.Sessions[rec.Session]
	if s == nil {
		s = &SessionState{FirstT: rec.T}
		res.Sessions[rec.Session] = s
	}
	s.Records++
	s.LastT = rec.T
	switch rec.Kind {
	case KindEstimate:
		s.HasEstimate = true
		s.Estimate = rec
		s.Health = rec.Health
		// A record after a close means the ID was reopened: a fresh
		// session under a reused name.
		s.Closed, s.Reaped = false, false
	case KindHealth:
		s.Health = rec.To
		s.Closed, s.Reaped = false, false
	case KindReap:
		s.Closed, s.Reaped = true, true
	case KindClose:
		s.Closed = true
		s.Health = rec.Health
	}
}

// Recover replays a journal stream to the last valid record and
// reconstructs per-session state. It never fails on a torn or corrupt
// tail — that is the case it exists for — it reports the damage in
// Diag and returns everything before it. size is the stream's total
// length in bytes (pass 0 if unknown; TailBytes is then 0 on damage).
func Recover(r io.Reader, size int64) (*RecoverResult, error) {
	res := &RecoverResult{
		Counts:   make(map[Kind]int),
		Sessions: make(map[string]*SessionState),
	}
	jr := NewReader(r)
	for {
		rec, err := jr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			res.Diag.Truncated = true
			res.Diag.Err = err
			break
		}
		res.apply(rec)
	}
	res.Diag.ValidBytes = jr.Offset()
	if res.Diag.Truncated && size > jr.Offset() {
		res.Diag.TailBytes = size - jr.Offset()
	}
	return res, nil
}

// RecoverFile replays a journal file. A missing file is not an error:
// it recovers to the empty state (first boot looks exactly like a
// clean restart with no history).
func RecoverFile(path string) (*RecoverResult, error) {
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return &RecoverResult{
			Counts:   make(map[Kind]int),
			Sessions: make(map[string]*SessionState),
		}, nil
	}
	if err != nil {
		return nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	return Recover(f, fi.Size())
}

// RepairFile truncates a journal file to its valid record prefix so a
// Writer can append to it again: everything Recover could replay is
// kept, the torn tail is cut. Returns the recovery result describing
// what survived. A missing file is left missing (OpenFile will create
// it).
func RepairFile(path string) (*RecoverResult, error) {
	res, err := RecoverFile(path)
	if err != nil {
		return nil, err
	}
	if !res.Diag.Truncated {
		return res, nil
	}
	if err := os.Truncate(path, res.Diag.ValidBytes); err != nil {
		return nil, fmt.Errorf("journal: repair %s: %w", path, err)
	}
	return res, nil
}
