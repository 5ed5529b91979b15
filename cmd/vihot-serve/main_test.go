package main

import (
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
