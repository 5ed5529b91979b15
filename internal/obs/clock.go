package obs

import "time"

// epoch is the origin of the instrumentation timeline. Its monotonic
// reading makes every stamp monotonic: a wall-clock step cannot make
// a span negative.
var epoch = time.Now()

// Now is one monotonic clock read, in nanoseconds since epoch. The
// serving stack stamps an item's stage boundaries with it, so spans
// between consecutive stamps share their boundaries exactly.
func Now() int64 { return int64(time.Since(epoch)) }

// Stamp places t, a time.Now() reading, on the Now timeline.
func Stamp(t time.Time) int64 { return int64(t.Sub(epoch)) }
