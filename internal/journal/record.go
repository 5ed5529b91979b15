package journal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"vihot/internal/envelope"
)

// Magic opens every journal record on disk.
const Magic = "ViHJ"

// FormatVersion is the newest record format this build writes and the
// highest it accepts.
const FormatVersion = 1

// maxSession bounds the session-ID length a record may carry; serve
// session IDs are short strings (UDP addresses, car IDs), so anything
// past this is corruption that slipped the CRC.
const maxSession = 4096

// maxRecordPayload caps the payload length the reader will believe: a
// full fixed section plus the largest legal session ID. Estimate is the
// widest kind tail.
const maxRecordPayload = recFixedLen + estimateLen + maxSession

// recordSpec is the journal's per-record envelope: the same
// magic/version/length/CRC-32 frame driver profiles use (PR 4,
// internal/envelope), under the journal's own magic.
var recordSpec = envelope.Spec{
	Magic:      Magic,
	Version:    FormatVersion,
	MaxPayload: maxRecordPayload,
}

// ErrBadRecord wraps every payload-level decode failure: unknown
// kind, non-finite field, truncated or oversized payload. Framing
// failures surface as envelope errors instead.
var ErrBadRecord = errors.New("journal: bad record")

// Kind discriminates what a record describes.
type Kind uint8

// Record kinds. The zero value is invalid on purpose: an
// all-zeroes payload (a torn write over preallocated space) can never
// decode as a legitimate record.
const (
	// KindEstimate is one delivered estimate: the yaw/position the
	// serving engine handed its sinks, plus the session health it was
	// emitted under.
	KindEstimate Kind = 1
	// KindHealth is one degradation-state transition.
	KindHealth Kind = 2
	// KindReap is one idle-TTL eviction.
	KindReap Kind = 3
	// KindClose is one explicit CloseSession, carrying the session's
	// last clock and health.
	KindClose Kind = 4
	// KindShutdown is the journal's own clean-shutdown trailer,
	// written by Writer.Close. A recovery that finds it last knows the
	// process exited cleanly; its absence marks a crash.
	KindShutdown Kind = 5
)

// String names the kind for tooling output.
func (k Kind) String() string {
	switch k {
	case KindEstimate:
		return "estimate"
	case KindHealth:
		return "health"
	case KindReap:
		return "reap"
	case KindClose:
		return "close"
	case KindShutdown:
		return "shutdown"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// valid reports whether the kind is one this build writes.
func (k Kind) valid() bool { return k >= KindEstimate && k <= KindShutdown }

// Record is one journal entry. Exactly the fields implied by Kind are
// meaningful; the rest stay zero and are not encoded.
type Record struct {
	Kind    Kind
	Session string  // empty for KindShutdown
	T       float64 // stream time (seconds); must be finite

	// KindEstimate fields.
	Yaw       float64 // degrees
	Position  int32   // profile position index
	Source    uint8   // core.Source of the estimate
	MatchDist float64 // normalized DTW distance of the winning match

	// KindEstimate and KindClose: session health (serve.Health) at the
	// event. For KindHealth, To carries the destination instead.
	Health uint8

	// KindHealth fields.
	From, To uint8
}

// Payload layout (after the envelope frame):
//
//	offset  size  field
//	0       1     kind
//	1       8     stream time, IEEE-754 bits big-endian
//	9       2     session length S, big-endian uint16
//	11      S     session bytes
//	11+S    …     kind-specific fixed fields (below)
//
//	estimate: yaw f64 | position i32 | source u8 | matchDist f64 | health u8
//	health:   from u8 | to u8
//	close:    health u8
//	reap, shutdown: (nothing)
const (
	recFixedLen = 1 + 8 + 2
	estimateLen = 8 + 4 + 1 + 8 + 1
	healthLen   = 2
	closeLen    = 1
)

// kindTail returns the kind-specific payload length.
func kindTail(k Kind) int {
	switch k {
	case KindEstimate:
		return estimateLen
	case KindHealth:
		return healthLen
	case KindClose:
		return closeLen
	default:
		return 0
	}
}

// validate rejects records no reader should ever have to interpret:
// unknown kinds, oversized sessions, and non-finite numeric fields
// (the same NaN/Inf hygiene the profile validator enforces — a NaN
// stream time would poison every last-write-wins comparison recovery
// makes).
func (r *Record) validate() error {
	if !r.Kind.valid() {
		return fmt.Errorf("%w: unknown kind %d", ErrBadRecord, uint8(r.Kind))
	}
	if len(r.Session) > maxSession {
		return fmt.Errorf("%w: session id %d bytes long", ErrBadRecord, len(r.Session))
	}
	if badFloat(r.T) {
		return fmt.Errorf("%w: non-finite stream time %v", ErrBadRecord, r.T)
	}
	if r.Kind == KindEstimate && (badFloat(r.Yaw) || badFloat(r.MatchDist)) {
		return fmt.Errorf("%w: non-finite estimate fields (yaw %v, dist %v)", ErrBadRecord, r.Yaw, r.MatchDist)
	}
	return nil
}

func badFloat(v float64) bool { return math.IsNaN(v) || math.IsInf(v, 0) }

// appendPayload encodes the record's payload (no envelope) onto dst.
func (r *Record) appendPayload(dst []byte) ([]byte, error) {
	if err := r.validate(); err != nil {
		return dst, err
	}
	dst = append(dst, byte(r.Kind))
	dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(r.T))
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(r.Session)))
	dst = append(dst, r.Session...)
	switch r.Kind {
	case KindEstimate:
		dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(r.Yaw))
		dst = binary.BigEndian.AppendUint32(dst, uint32(r.Position))
		dst = append(dst, r.Source)
		dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(r.MatchDist))
		dst = append(dst, r.Health)
	case KindHealth:
		dst = append(dst, r.From, r.To)
	case KindClose:
		dst = append(dst, r.Health)
	}
	return dst, nil
}

// AppendRecord frames one record (payload + envelope) onto dst.
func AppendRecord(dst []byte, r *Record) ([]byte, error) {
	payload, err := r.appendPayload(nil)
	if err != nil {
		return dst, err
	}
	return envelope.Append(dst, recordSpec, payload), nil
}

// DecodeRecord decodes one record payload (the bytes inside the
// envelope). It is strict: the payload must be exactly consumed, the
// kind known, every float finite — anything else is ErrBadRecord.
func DecodeRecord(payload []byte) (Record, error) {
	var r Record
	if len(payload) < recFixedLen {
		return r, fmt.Errorf("%w: %d-byte payload shorter than fixed section", ErrBadRecord, len(payload))
	}
	r.Kind = Kind(payload[0])
	if !r.Kind.valid() {
		return Record{}, fmt.Errorf("%w: unknown kind %d", ErrBadRecord, payload[0])
	}
	r.T = math.Float64frombits(binary.BigEndian.Uint64(payload[1:9]))
	slen := int(binary.BigEndian.Uint16(payload[9:11]))
	if want := recFixedLen + slen + kindTail(r.Kind); len(payload) != want {
		return Record{}, fmt.Errorf("%w: %d-byte payload, want %d for kind %v", ErrBadRecord, len(payload), want, r.Kind)
	}
	r.Session = string(payload[recFixedLen : recFixedLen+slen])
	tail := payload[recFixedLen+slen:]
	switch r.Kind {
	case KindEstimate:
		r.Yaw = math.Float64frombits(binary.BigEndian.Uint64(tail[0:8]))
		r.Position = int32(binary.BigEndian.Uint32(tail[8:12]))
		r.Source = tail[12]
		r.MatchDist = math.Float64frombits(binary.BigEndian.Uint64(tail[13:21]))
		r.Health = tail[21]
	case KindHealth:
		r.From, r.To = tail[0], tail[1]
	case KindClose:
		r.Health = tail[0]
	}
	if err := r.validate(); err != nil {
		return Record{}, err
	}
	return r, nil
}
