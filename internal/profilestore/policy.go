package profilestore

import "fmt"

// Eviction policies. The store's contract (Get/Put/Invalidate/Stats,
// shared immutable instances, singleflight cold loads) is identical
// under every policy; only the choice of eviction victim differs.
//
//   - PolicyLRU (default) keeps the exact pre-v2 behavior: one
//     intrusive recency list per shard, hit = splice to front, victim
//     = tail. Best when the working set fits and access is bursty.
//   - PolicyLFU keeps use counts in O(1) frequency buckets (an
//     intrusive list of buckets, each an intrusive LRU list of
//     entries). Victim = least-used, ties broken least-recent. Best
//     when a few driver styles dominate a churny tail: a one-shot key
//     can never displace a profile with real hit history.
//
// All policy bookkeeping runs under the owning shard's mutex and
// allocates nothing on the hit path (LFU's frequency buckets recycle
// through a freelist; the in-place bump below keeps the common
// lone-entry case pointer-stable).
type Policy uint8

const (
	// PolicyLRU evicts the least-recently-used profile (default).
	PolicyLRU Policy = iota
	// PolicyLFU evicts the least-frequently-used profile (ties:
	// least-recent within the lowest frequency).
	PolicyLFU
)

// String names the policy for metric labels and flags.
func (p Policy) String() string {
	switch p {
	case PolicyLRU:
		return "lru"
	case PolicyLFU:
		return "lfu"
	default:
		return fmt.Sprintf("policy(%d)", uint8(p))
	}
}

// ParsePolicy maps a flag value onto a Policy.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "", "lru":
		return PolicyLRU, nil
	case "lfu":
		return PolicyLFU, nil
	default:
		return PolicyLRU, fmt.Errorf("profilestore: unknown policy %q (have lru, lfu)", s)
	}
}

// policy is the per-shard eviction strategy. Every method runs under
// the owning shard's mutex, touches only intrusive links, and must
// not allocate on the hit path (touched). Entries enter via admitted,
// leave via evict (the policy picks and unlinks the victim) or
// removed (the caller picked: Invalidate, replace bookkeeping).
type policy interface {
	// touched records a cache hit on a resident entry.
	touched(e *entry)
	// admitted records a new resident entry.
	admitted(e *entry)
	// removed unlinks an entry the caller is dropping (Invalidate).
	removed(e *entry)
	// evict picks the victim, unlinks it, and returns it; nil when the
	// policy tracks nothing evictable.
	evict() *entry
}

// newPolicy builds the per-shard policy instance.
func newPolicy(kind Policy) policy {
	if kind == PolicyLFU {
		return &lfuPolicy{}
	}
	return &lruPolicy{}
}

// list is one intrusive doubly-linked entry list (head = most
// recently placed, tail = eviction end). It is the exact list the
// pre-v2 store inlined in the shard; every policy builds on it.
type list struct {
	head, tail *entry
	n          int
}

// pushFront links e at the head. e must be unlinked.
func (l *list) pushFront(e *entry) {
	e.next = l.head
	if l.head != nil {
		l.head.prev = e
	}
	l.head = e
	if l.tail == nil {
		l.tail = e
	}
	l.n++
}

// remove unlinks e.
func (l *list) remove(e *entry) {
	if e.prev != nil {
		e.prev.next = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	}
	if l.head == e {
		l.head = e.next
	}
	if l.tail == e {
		l.tail = e.prev
	}
	e.prev, e.next = nil, nil
	l.n--
}

// moveToFront splices a linked e to the head.
func (l *list) moveToFront(e *entry) {
	if l.head == e {
		return
	}
	l.remove(e)
	l.pushFront(e)
}

// popTail unlinks and returns the tail, nil when empty.
func (l *list) popTail() *entry {
	e := l.tail
	if e != nil {
		l.remove(e)
	}
	return e
}

// ── LRU ──────────────────────────────────────────────────────────────
//
// Bit-identical to the pre-v2 store: TestLRUTraceMatchesReference
// pins the eviction order against an independent reference model.

type lruPolicy struct{ l list }

func (p *lruPolicy) touched(e *entry)  { p.l.moveToFront(e) }
func (p *lruPolicy) admitted(e *entry) { p.l.pushFront(e) }
func (p *lruPolicy) removed(e *entry)  { p.l.remove(e) }
func (p *lruPolicy) evict() *entry     { return p.l.popTail() }

// ── LFU ──────────────────────────────────────────────────────────────

// freqBucket chains the entries sharing one use count (LRU-ordered
// within), itself linked into the policy's ascending-frequency bucket
// list. Buckets recycle through a freelist, so steady-state hits
// allocate nothing.
type freqBucket struct {
	freq       uint64
	entries    list
	prev, next *freqBucket
}

type lfuPolicy struct {
	least *freqBucket // lowest-frequency bucket (eviction end)
	free  *freqBucket // spare bucket nodes, next-linked
}

// bucketAfter inserts a recycled-or-new bucket with the given freq
// after prev (prev == nil: at the least end).
func (p *lfuPolicy) bucketAfter(prev *freqBucket, freq uint64) *freqBucket {
	b := p.free
	if b != nil {
		p.free = b.next
		*b = freqBucket{freq: freq}
	} else {
		b = &freqBucket{freq: freq}
	}
	if prev == nil {
		b.next = p.least
		if p.least != nil {
			p.least.prev = b
		}
		p.least = b
	} else {
		b.next = prev.next
		b.prev = prev
		if prev.next != nil {
			prev.next.prev = b
		}
		prev.next = b
	}
	return b
}

// release unlinks an emptied bucket and parks it on the freelist.
func (p *lfuPolicy) release(b *freqBucket) {
	if b.prev != nil {
		b.prev.next = b.next
	}
	if b.next != nil {
		b.next.prev = b.prev
	}
	if p.least == b {
		p.least = b.next
	}
	b.prev = nil
	b.next = p.free
	p.free = b
}

func (p *lfuPolicy) admitted(e *entry) {
	b := p.least
	if b == nil || b.freq != 1 {
		b = p.bucketAfter(nil, 1)
	}
	e.fb = b
	b.entries.pushFront(e)
}

func (p *lfuPolicy) touched(e *entry) {
	b := e.fb
	want := b.freq + 1
	if b.entries.n == 1 && (b.next == nil || b.next.freq > want) {
		// Alone in its bucket with headroom above: bump in place — the
		// steady-state path for a hot profile, zero work beyond the
		// increment.
		b.freq = want
		return
	}
	b.entries.remove(e)
	dst := b.next
	if dst == nil || dst.freq != want {
		dst = p.bucketAfter(b, want)
	}
	e.fb = dst
	dst.entries.pushFront(e)
	if b.entries.n == 0 {
		p.release(b)
	}
}

func (p *lfuPolicy) removed(e *entry) {
	b := e.fb
	b.entries.remove(e)
	e.fb = nil
	if b.entries.n == 0 {
		p.release(b)
	}
}

func (p *lfuPolicy) evict() *entry {
	b := p.least
	if b == nil {
		return nil
	}
	e := b.entries.popTail()
	if e != nil {
		e.fb = nil
	}
	if b.entries.n == 0 {
		p.release(b)
	}
	return e
}
