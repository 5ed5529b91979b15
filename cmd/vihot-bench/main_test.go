package main

import (
	"math"
	"strings"
	"testing"
)

// TestFigurePlanRejectsNoOpRuns: flags that would run nothing, or
// quietly fall back to a default, are refused before any figure runs.
func TestFigurePlanRejectsNoOpRuns(t *testing.T) {
	for _, tc := range []struct {
		name      string
		only      string
		ext       bool
		runtimeS  float64
		estimateS float64
		repeats   int
		want      string
	}{
		{"unknown figure", "fig99", false, 0, 0, 0, "no such figure"},
		{"unknown among known", "fig10, fig99", false, 0, 0, 0, "fig99"},
		{"extension without -ext", "ext-5ghz", false, 0, 0, 0, "requires -ext"},
		{"negative runtime", "", false, -1, 0, 0, "-runtime"},
		{"NaN runtime", "", false, math.NaN(), 0, 0, "-runtime"},
		{"infinite runtime", "", false, math.Inf(1), 0, 0, "-runtime"},
		{"negative estimate", "", false, 0, -0.02, 0, "-estimate"},
		{"NaN estimate", "", false, 0, math.NaN(), 0, "-estimate"},
		{"infinite estimate", "", false, 0, math.Inf(1), 0, "-estimate"},
		{"negative repeats", "", false, 0, 0, -1, "-repeats"},
	} {
		gens, err := figurePlan(tc.only, tc.ext, tc.runtimeS, tc.estimateS, tc.repeats)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want one naming %q", tc.name, err, tc.want)
		}
		if gens != nil {
			t.Errorf("%s: %d generators planned alongside the error", tc.name, len(gens))
		}
	}
}

// TestFigurePlanSelects: -only picks the named figures in paper order,
// extensions only with -ext, and an empty -only runs every figure.
func TestFigurePlanSelects(t *testing.T) {
	ids := func(only string, ext bool) []string {
		t.Helper()
		gens, err := figurePlan(only, ext, 15, 0.02, 1)
		if err != nil {
			t.Fatalf("-only %q -ext=%v: %v", only, ext, err)
		}
		var out []string
		for _, g := range gens {
			out = append(out, g.ID)
		}
		return out
	}
	if got := ids("fig12, fig10,", false); strings.Join(got, ",") != "fig10,fig12" {
		t.Errorf("-only fig12,fig10 ran %v, want [fig10 fig12]", got)
	}
	if got := ids("ext-5ghz", true); strings.Join(got, ",") != "ext-5ghz" {
		t.Errorf("-only ext-5ghz -ext ran %v", got)
	}
	all, withExt := ids("", false), ids("", true)
	if len(all) == 0 || len(withExt) <= len(all) {
		t.Errorf("empty -only ran %d figures, %d with -ext", len(all), len(withExt))
	}
}
