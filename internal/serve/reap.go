package serve

import (
	"sort"

	"vihot/internal/journal"
)

// Stream-time idle-session reaping (Config.SessionTTLS, DESIGN.md
// §11). The sweep runs on the shard's own timeline: the shard stream
// clock is the max timestamp any of its sessions has admitted, and a
// session is idle by (shard clock − session clock). No wall clocks
// are read anywhere, so a deterministic replay of one item sequence
// reaps the same sessions at the same points every time — the
// property TestReapDeterministicReplay pins down.

// afterProcess runs after every processed item on the goroutine that
// owns the shard (its worker, or the caller in deterministic mode):
// it advances the shard stream clock past the item's session and
// fires the idle sweep when one is due. The clock fields are owned by
// that same goroutine, so reading them takes no lock; only the sweep
// itself touches shared state.
func (m *Manager) afterProcess(sh *shard, s *session) {
	ttl := m.cfg.SessionTTLS
	// !(ttl > 0), not ttl <= 0: a NaN TTL would arm a sweep at
	// clock+NaN that falls due on every item.
	if !(ttl > 0) || s == nil || !s.haveNow {
		return
	}
	if !sh.haveClock {
		sh.clock, sh.haveClock = s.now, true
		// A quarter-TTL cadence bounds how far past its horizon a
		// session can linger (TTL + TTL/4) without paying a map walk
		// per item.
		sh.nextSweep = sh.clock + ttl/4
		return
	}
	if s.now > sh.clock {
		sh.clock = s.now
	}
	if sh.clock < sh.nextSweep {
		return
	}
	m.sweep(sh, ttl)
}

// sweep evicts every session idle past the TTL at the current shard
// stream time. Registry mutation and the gauge update happen under
// sh.mu, as in Open; the KindReap events are published after the lock
// drops, in sorted session order so replays observe identical event
// sequences regardless of map iteration order.
func (m *Manager) sweep(sh *shard, ttl float64) {
	now := sh.clock
	sh.nextSweep = now + ttl/4
	var evicted []string
	sh.mu.Lock()
	for id, s := range sh.sessions {
		var ref float64
		switch {
		case s.haveNow:
			ref = s.now
		case s.haveRef:
			ref = s.reapRef
		default:
			// Opened but never fed: no clock of its own. Anchor its
			// grace period at the first sweep that sees it, granting
			// one full TTL from now.
			s.reapRef, s.haveRef = now, true
			continue
		}
		if now-ref > ttl {
			evicted = append(evicted, id)
		}
	}
	for _, id := range evicted {
		delete(sh.sessions, id)
	}
	if n := len(evicted); n > 0 {
		m.sessOpen.Add(-float64(n))
	}
	sh.mu.Unlock()
	sort.Strings(evicted)
	for _, id := range evicted {
		m.publish(journal.Record{Kind: journal.KindReap, Session: id, T: now})
	}
}
