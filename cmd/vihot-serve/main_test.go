package main

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRunRejectsEmptyProfileCache: with -profile-dir set, a
// -profile-cache below 1 is refused before any profiling starts
// instead of silently running the store's 256-profile default.
func TestRunRejectsEmptyProfileCache(t *testing.T) {
	for _, capacity := range []int{0, -3} {
		err := run(1, 1, 1, 64, 1, 0, faultFlags{}, "", "", t.TempDir(), capacity, "", journalFlags{})
		if err == nil || !strings.Contains(err.Error(), "-profile-cache") {
			t.Errorf("-profile-cache %d: err = %v, want a -profile-cache error", capacity, err)
		}
	}
}

// TestRunRejectsBadJournalInterval: with -journal set, an interval
// that is not a finite positive number is refused before the journal
// file is opened.
func TestRunRejectsBadJournalInterval(t *testing.T) {
	for _, iv := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		path := filepath.Join(t.TempDir(), "j.vhj")
		jf := journalFlags{path: path, batch: 64, intervalS: iv, sync: "batch"}
		err := run(1, 1, 1, 64, 1, 0, faultFlags{}, "", "", "", 1, "", jf)
		if err == nil || !strings.Contains(err.Error(), "-journal-interval") {
			t.Errorf("-journal-interval %v: err = %v, want a -journal-interval error", iv, err)
		}
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Errorf("-journal-interval %v: journal file created (stat err %v)", iv, err)
		}
	}
}

// TestRunRejectsBadSizes: a size below 1 for -drivers, -shards,
// -queue or -journal-batch, a -seconds that is not finite and
// positive, and a -session-ttl that is negative, NaN or infinite, are
// refused before profiling starts or the journal file is opened,
// instead of running the manager's or the journal's default.
func TestRunRejectsBadSizes(t *testing.T) {
	cases := []struct {
		flag         string
		drivers      int
		shards       int
		seconds      float64
		queue        int
		ttl          float64
		journalBatch int
	}{
		{flag: "-drivers", drivers: 0, shards: 1, seconds: 1, queue: 64, journalBatch: 64},
		{flag: "-drivers", drivers: -3, shards: 1, seconds: 1, queue: 64, journalBatch: 64},
		{flag: "-seconds", drivers: 1, shards: 1, seconds: 0, queue: 64, journalBatch: 64},
		{flag: "-seconds", drivers: 1, shards: 1, seconds: -1, queue: 64, journalBatch: 64},
		{flag: "-seconds", drivers: 1, shards: 1, seconds: math.NaN(), queue: 64, journalBatch: 64},
		{flag: "-seconds", drivers: 1, shards: 1, seconds: math.Inf(1), queue: 64, journalBatch: 64},
		{flag: "-shards", drivers: 1, shards: 0, seconds: 1, queue: 64, journalBatch: 64},
		{flag: "-shards", drivers: 1, shards: -2, seconds: 1, queue: 64, journalBatch: 64},
		{flag: "-queue", drivers: 1, shards: 1, seconds: 1, queue: 0, journalBatch: 64},
		{flag: "-queue", drivers: 1, shards: 1, seconds: 1, queue: -1, journalBatch: 64},
		{flag: "-journal-batch", drivers: 1, shards: 1, seconds: 1, queue: 64, journalBatch: 0},
		{flag: "-journal-batch", drivers: 1, shards: 1, seconds: 1, queue: 64, journalBatch: -5},
		{flag: "-session-ttl", drivers: 1, shards: 1, seconds: 1, queue: 64, ttl: -1, journalBatch: 64},
		{flag: "-session-ttl", drivers: 1, shards: 1, seconds: 1, queue: 64, ttl: math.NaN(), journalBatch: 64},
		{flag: "-session-ttl", drivers: 1, shards: 1, seconds: 1, queue: 64, ttl: math.Inf(1), journalBatch: 64},
	}
	for _, c := range cases {
		path := filepath.Join(t.TempDir(), "j.vhj")
		jf := journalFlags{path: path, batch: c.journalBatch, intervalS: 0.25, sync: "batch"}
		err := run(c.drivers, c.shards, c.seconds, c.queue, 1, c.ttl, faultFlags{}, "", "", "", 1, "", jf)
		if err == nil || !strings.Contains(err.Error(), c.flag) {
			t.Errorf("%+v: err = %v, want a %s error", c, err, c.flag)
		}
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Errorf("%+v: journal file created (stat err %v)", c, err)
		}
	}
}
