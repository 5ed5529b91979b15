package scenario

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"testing"
)

// The golden accuracy regression suite: the full corpus replayed
// deterministically, one session per scenario, with the resulting
// per-scenario summaries (median/p95 error, final health counts,
// traffic counters) committed to testdata. JSON float64 round-trips
// are bit-exact, so byte equality against the committed file IS
// bit-identity of every float — the same guard idiom as the
// experiment package's golden traces.
//
// Regenerate after an intentional pipeline change with:
//
//	go test ./internal/scenario -run TestGoldenScenarioAccuracy -update

var update = flag.Bool("update", false, "rewrite the golden scenario summaries")

const goldenPath = "testdata/golden_scenarios.json"

// corpusMix is the full corpus at equal weight, durations as
// committed.
func corpusMix() []MixEntry {
	var mix []MixEntry
	for _, c := range Corpus() {
		mix = append(mix, MixEntry{Config: c, Weight: 1})
	}
	return mix
}

// runCorpus replays the corpus deterministically and returns the
// marshaled report. encoding/json sorts map keys, so the bytes are a
// canonical form.
func runCorpus(t *testing.T, mix []MixEntry) []byte {
	t.Helper()
	rep, err := Generate(GeneratorConfig{
		Mix:           mix,
		Sessions:      len(mix),
		Deterministic: true,
	})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	blob, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		t.Fatalf("marshal report: %v", err)
	}
	return append(blob, '\n')
}

func TestGoldenScenarioAccuracy(t *testing.T) {
	got := runCorpus(t, corpusMix())
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", goldenPath, len(got))
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden summaries (regenerate with -update): %v", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	// Byte inequality means a real change; decode both sides to say
	// where, then fail with the precise bits.
	var gotRep, wantRep Report
	if err := json.Unmarshal(got, &gotRep); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(want, &wantRep); err != nil {
		t.Fatalf("golden file does not decode (regenerate with -update): %v", err)
	}
	for i := range wantRep.Scenarios {
		if i >= len(gotRep.Scenarios) {
			break
		}
		g, w := gotRep.Scenarios[i], wantRep.Scenarios[i]
		for _, d := range []struct {
			field     string
			got, want float64
		}{
			{"median_err_deg", g.MedianErrDeg, w.MedianErrDeg},
			{"p95_err_deg", g.P95ErrDeg, w.P95ErrDeg},
			{"max_err_deg", g.MaxErrDeg, w.MaxErrDeg},
		} {
			if math.Float64bits(d.got) != math.Float64bits(d.want) {
				t.Errorf("%s %s: got %v (bits %#016x) want %v (bits %#016x)",
					w.Scenario, d.field, d.got, math.Float64bits(d.got), d.want, math.Float64bits(d.want))
			}
		}
		if g.Estimates != w.Estimates || g.Items != w.Items {
			t.Errorf("%s: got %d estimates over %d items, want %d over %d",
				w.Scenario, g.Estimates, g.Items, w.Estimates, w.Items)
		}
		if fmt.Sprint(g.FinalHealth) != fmt.Sprint(w.FinalHealth) {
			t.Errorf("%s final health: got %v want %v", w.Scenario, g.FinalHealth, w.FinalHealth)
		}
	}
	t.Fatalf("golden scenario summaries drifted (see field diffs above; regenerate with -update if intentional)")
}

// TestGoldenScenarioDeterminism replays the full corpus twice in one
// process at reduced duration and requires bit-identical summaries —
// the determinism contract the golden file depends on, checked
// without trusting any committed state.
func TestGoldenScenarioDeterminism(t *testing.T) {
	short := corpusMix()
	for i := range short {
		short[i].Config.DurationS = 3
	}
	a := runCorpus(t, short)
	b := runCorpus(t, short)
	if !bytes.Equal(a, b) {
		t.Fatalf("two consecutive corpus runs of the same seeds disagree:\nrun1: %d bytes\nrun2: %d bytes", len(a), len(b))
	}
}
