package cluster

import (
	"fmt"
	"testing"
)

func TestRingDeterministic(t *testing.T) {
	a, err := NewRing([]string{"n2", "n0", "n1", "n3"})
	if err != nil {
		t.Fatal(err)
	}
	// Same membership in a different declaration order: the ring is a
	// function of the member set, not of the slice.
	b, err := NewRing([]string{"n3", "n1", "n0", "n2"})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := a.Points(), 4*ringVNodes; got != want {
		t.Fatalf("Points() = %d, want %d", got, want)
	}
	for i := 0; i < 500; i++ {
		key := fmt.Sprintf("session-%03d", i)
		if a.Owner(key) != b.Owner(key) {
			t.Fatalf("owner of %q differs across identical memberships: %q vs %q",
				key, a.Owner(key), b.Owner(key))
		}
	}
	if got := a.Owner("anything-on-empty"); got == "" {
		t.Fatal("Owner returned empty on a populated ring")
	}
}

func TestRingBalance(t *testing.T) {
	members := []string{"alpha", "beta", "gamma", "delta"}
	r, err := NewRing(members)
	if err != nil {
		t.Fatal(err)
	}
	const keys = 4000
	counts := map[string]int{}
	for i := 0; i < keys; i++ {
		counts[r.Owner(fmt.Sprintf("session-%04d", i))]++
	}
	// With 64 vnodes each member should land within a loose factor of
	// the fair share — the test guards against degenerate skew, not
	// perfect uniformity.
	fair := keys / len(members)
	for _, m := range members {
		n := counts[m]
		if n < fair/3 || n > fair*3 {
			t.Fatalf("member %s owns %d of %d keys (fair share %d): ring badly skewed: %v",
				m, n, keys, fair, counts)
		}
	}
}

// TestRingSequentialIDsSpread pins the avalanche fix: session IDs
// that differ only in a trailing counter — the shape real deployments
// mint — must not pile onto one member (raw FNV-1a put all of these
// on a single node).
func TestRingSequentialIDsSpread(t *testing.T) {
	r, err := NewRing([]string{"n0", "n1", "n2"})
	if err != nil {
		t.Fatal(err)
	}
	owners := map[string]bool{}
	for i := 0; i < 5; i++ {
		owners[r.Owner(fmt.Sprintf("driver-%02d", i))] = true
	}
	if len(owners) < 2 {
		t.Fatalf("5 sequential IDs all landed on %v", owners)
	}
}

func TestRingMinimalMovement(t *testing.T) {
	members := []string{"alpha", "beta", "gamma", "delta"}
	r, err := NewRing(members)
	if err != nil {
		t.Fatal(err)
	}
	shrunk, err := r.Without("beta")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := shrunk.Points(), 3*ringVNodes; got != want {
		t.Fatalf("shrunk Points() = %d, want %d", got, want)
	}
	moved, kept := 0, 0
	for i := 0; i < 2000; i++ {
		key := fmt.Sprintf("session-%04d", i)
		before, after := r.Owner(key), shrunk.Owner(key)
		if after == "beta" {
			t.Fatalf("removed member still owns %q", key)
		}
		if before == "beta" {
			moved++
			continue
		}
		if before != after {
			t.Fatalf("key %q moved %s→%s although its owner stayed in the ring",
				key, before, after)
		}
		kept++
	}
	if moved == 0 || kept == 0 {
		t.Fatalf("degenerate distribution: moved=%d kept=%d", moved, kept)
	}
}

func TestRingErrors(t *testing.T) {
	if _, err := NewRing(nil); err == nil {
		t.Fatal("empty membership accepted")
	}
	if _, err := NewRing([]string{"a", "a"}); err == nil {
		t.Fatal("duplicate member accepted")
	}
	if _, err := NewRing([]string{"a", ""}); err == nil {
		t.Fatal("empty member name accepted")
	}
	r, err := NewRing([]string{"solo"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Without("ghost"); err == nil {
		t.Fatal("Without(unknown) accepted")
	}
	last, err := r.Without("solo")
	if err != nil {
		t.Fatal(err)
	}
	if got := last.Owner("any"); got != "" {
		t.Fatalf("empty ring owns %q", got)
	}
}
