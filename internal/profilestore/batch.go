package profilestore

import (
	"sync"

	"vihot/internal/core"
)

// Batch resolution: the fleet-open path. A ride-share depot bringing
// N cars online, or vihot-serve opening an N-car scenario mix, asks
// for N profiles drawn from M ≤ N distinct keys. Resolving them
// one Get at a time works (the cache and singleflight already cap the
// loads at M), but serializes the cold loads; GetMany overlaps them
// and dedupes duplicate keys inside the batch itself, so the whole
// batch costs exactly one loader call per distinct cold key — and
// those calls run concurrently, not back to back.

// GetMany resolves every key in one batch. The returned slices align
// with keys: out[i] is the profile for keys[i] and errs[i] its error
// (nil on success) — per-key reporting, so one broken profile fails
// one session, not the fleet. Duplicate keys share one resolution
// (and one hit/miss account). Keys already in flight from concurrent
// Gets are joined, never reloaded; cold keys owned by this batch load
// concurrently through the configured Loader.
func (s *Store) GetMany(keys []string) ([]*core.Profile, []error) {
	ps := make([]*core.Profile, len(keys))
	errs := make([]error, len(keys))
	if len(keys) == 0 {
		return ps, errs
	}

	// One resolution per distinct key; later duplicates copy from the
	// first occurrence after it settles.
	type pending struct {
		idx int
		f   *flight
	}
	first := make(map[string]int, len(keys))
	var owned, joined []pending
	for i, key := range keys {
		if key == "" {
			errs[i] = ErrEmptyKey
			continue
		}
		if _, dup := first[key]; dup {
			continue
		}
		first[key] = i
		p, _, f, own, err := s.acquire(key)
		switch {
		case err != nil:
			errs[i] = err
		case f == nil:
			ps[i] = p
		case own:
			owned = append(owned, pending{i, f})
		default:
			joined = append(joined, pending{i, f})
		}
	}

	// Run the loads this batch owns. One cold key loads inline; more
	// overlap on their own goroutines (the Loader contract allows
	// concurrent calls for different keys).
	switch len(owned) {
	case 0:
	case 1:
		s.runLoad(keys[owned[0].idx], owned[0].f)
	default:
		var wg sync.WaitGroup
		wg.Add(len(owned))
		for _, w := range owned {
			go func(key string, f *flight) {
				defer wg.Done()
				s.runLoad(key, f)
			}(keys[w.idx], w.f)
		}
		wg.Wait()
	}
	for _, w := range owned {
		ps[w.idx], errs[w.idx] = w.f.p, w.f.err
	}
	// Flights owned by concurrent Gets (or other batches) settle on
	// their own schedule; park on each.
	for _, w := range joined {
		<-w.f.done
		ps[w.idx], errs[w.idx] = w.f.p, w.f.err
	}

	for i, key := range keys {
		if key == "" {
			continue
		}
		if j := first[key]; j != i {
			ps[i], errs[i] = ps[j], errs[j]
		}
	}
	return ps, errs
}
