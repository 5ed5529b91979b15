// Crash-safety tests for SaveProfile's atomic temp+fsync+rename path.
// External test package: the disk-fault injector lives in
// internal/faults, which (through internal/serve) imports core.
package core_test

import (
	"math"
	"os"
	"path/filepath"
	"testing"

	"vihot/internal/core"
	"vihot/internal/dsp"
	"vihot/internal/faults"
)

func crashTestProfile(t *testing.T, positions int, offset float64) *core.Profile {
	t.Helper()
	var recs []core.SweepRecording
	for i := 0; i < positions; i++ {
		rec := core.SweepRecording{Position: i, Fingerprint: offset + float64(i)}
		for ts := 0.0; ts < 8; ts += 0.002 {
			theta := 80 * math.Sin(2*math.Pi*ts/4)
			rec.Phase = append(rec.Phase, dsp.Sample{T: ts, V: offset + 0.8*math.Sin(theta*math.Pi/180)})
		}
		for ts := 0.0; ts < 8; ts += 1.0 / 60 {
			rec.Orientation = append(rec.Orientation, dsp.Sample{T: ts, V: 80 * math.Sin(2*math.Pi*ts/4)})
		}
		recs = append(recs, rec)
	}
	p, err := core.BuildProfile(recs, 100)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// dirEntries returns the names in dir — the temp-litter check.
func dirEntries(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, len(ents))
	for i, e := range ents {
		names[i] = e.Name()
	}
	return names
}

// TestSaveProfileAtomicOverwrite: replacing a profile on disk is
// all-or-nothing — after a successful overwrite the new content loads,
// and no temp files are left behind.
func TestSaveProfileAtomicOverwrite(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "driver.profile")
	p1 := crashTestProfile(t, 2, -1)
	p2 := crashTestProfile(t, 3, 0.5)

	if err := core.SaveProfile(path, p1); err != nil {
		t.Fatal(err)
	}
	if err := core.SaveProfile(path, p2); err != nil {
		t.Fatal(err)
	}
	got, err := core.LoadProfile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Fingerprint() != p2.Fingerprint() {
		t.Error("overwrite did not land the new profile")
	}
	if names := dirEntries(t, dir); len(names) != 1 || names[0] != "driver.profile" {
		t.Errorf("temp litter after overwrite: %v", names)
	}
}

// TestSaveProfileFailedWriteKeepsOriginal: a save that fails mid-write
// (here: the profile flunks WriteProfile's validation) leaves the
// previously saved profile untouched and no temp files behind.
func TestSaveProfileFailedWriteKeepsOriginal(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "driver.profile")
	good := crashTestProfile(t, 2, -1)
	if err := core.SaveProfile(path, good); err != nil {
		t.Fatal(err)
	}

	bad := good.Clone()
	bad.Positions[0].PhiGrid[0] = math.NaN()
	if err := core.SaveProfile(path, bad); err == nil {
		t.Fatal("non-finite profile saved without error")
	}

	got, err := core.LoadProfile(path)
	if err != nil {
		t.Fatalf("original profile unreadable after failed save: %v", err)
	}
	if got.Fingerprint() != good.Fingerprint() {
		t.Error("failed save changed the on-disk profile")
	}
	if names := dirEntries(t, dir); len(names) != 1 || names[0] != "driver.profile" {
		t.Errorf("temp litter after failed save: %v", names)
	}
}

// TestSaveProfileCrashTornTemp emulates the crash the atomic protocol
// defends against: power dies mid-way through writing the NEW bytes,
// before the rename. The faults disk injector produces exactly the
// torn byte prefix such a crash leaves in the temp file; the
// invariants are (a) the torn bytes are unreadable as a profile, so
// they must never sit at the real path, and (b) with the temp+rename
// protocol the real path still holds the old profile in full.
func TestSaveProfileCrashTornTemp(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "driver.profile")
	old := crashTestProfile(t, 2, -1)
	if err := core.SaveProfile(path, old); err != nil {
		t.Fatal(err)
	}
	next := crashTestProfile(t, 3, 0.5)

	for _, crashAt := range []int64{4, 10, 19, 64, 1024} {
		// What the writeback actually persisted before the power cut.
		df := faults.NewDiskFile(faults.DiskConfig{Seed: 1, CrashAt: crashAt})
		if err := core.WriteProfile(df, next); err != nil {
			t.Fatal(err)
		}
		torn := df.Bytes()
		if int64(len(torn)) != crashAt {
			t.Fatalf("crashAt %d: injector stored %d bytes", crashAt, len(torn))
		}

		// The reboot finds the torn bytes in the TEMP file, not at path.
		tmp := filepath.Join(dir, "driver.profile.tmp-crash")
		if err := os.WriteFile(tmp, torn, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := core.LoadProfile(tmp); err == nil {
			t.Fatalf("crashAt %d: torn profile prefix loaded cleanly", crashAt)
		}
		got, err := core.LoadProfile(path)
		if err != nil {
			t.Fatalf("crashAt %d: original unreadable after crash: %v", crashAt, err)
		}
		if got.Fingerprint() != old.Fingerprint() {
			t.Fatalf("crashAt %d: original profile changed", crashAt)
		}
		os.Remove(tmp)
	}
}
