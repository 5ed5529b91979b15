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
