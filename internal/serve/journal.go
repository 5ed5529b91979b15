package serve

import "vihot/internal/journal"

// publish is the one path every session event leaves the manager
// through: one record per delivered estimate, health transition,
// idle-TTL reap and explicit CloseSession. It bumps the counter the
// record implies, offers the record to Config.Journal, and hands every
// non-estimate record to Config.OnEvent, so the counters, the journal
// and the callback can never disagree about what happened.
//
// It runs on the goroutine the event happened on (the shard worker
// for estimates, transitions and reaps, the caller for closes) and
// never blocks on the journal: its write-behind queue absorbs the
// append, and an overflow sheds the record — counted here in
// JournalDropped, so the serving books extend to durability:
//
//	JournalAppended + JournalDropped ==
//	    Estimates + ToDegraded + ToCoasting + ToStale + Recoveries +
//	    SessionsReaped + SessionsClosed
//
// after a drain with journaling enabled for the whole run (the
// KindShutdown trailer is the journal's own and is outside the
// identity).
func (m *Manager) publish(rec journal.Record) {
	c := &m.counters
	switch rec.Kind {
	case journal.KindEstimate:
		c.estimates.Add(1)
	case journal.KindHealth:
		switch Health(rec.To) {
		case Degraded:
			c.toDegraded.Add(1)
		case Coasting:
			c.toCoasting.Add(1)
		case Stale:
			c.toStale.Add(1)
		case Healthy:
			c.recoveries.Add(1)
		}
	case journal.KindReap:
		c.reaped.Add(1)
	case journal.KindClose:
		c.closed.Add(1)
	}
	if m.cfg.Journal != nil {
		if m.cfg.Journal.Append(rec) {
			c.journalAppended.Add(1)
		} else {
			c.journalDropped.Add(1)
		}
	}
	if rec.Kind != journal.KindEstimate && m.cfg.OnEvent != nil {
		m.cfg.OnEvent(rec)
	}
}
