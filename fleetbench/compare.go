package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// benchDef is the part of BENCHMARK.json -compare reads.
type benchDef struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// bound is one metric's comparison rule; bound 0 means none (per-layer
// metrics are reported, never judged).
type bound struct {
	name   string
	higher bool
	bound  float64
}

func readBounds(path string) ([]bound, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d benchDef
	if err := json.Unmarshal(b, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	var out []bound
	for _, m := range d.EndToEnd {
		out = append(out, bound{m.Name, m.Better == "higher", m.Bound})
	}
	for _, m := range d.PerLayer {
		out = append(out, bound{m.Name, m.Better == "higher", 0})
	}
	return out, nil
}

// runs maps workload → metric → seed-ordered samples.
type runs map[string]map[string][]runValue

type runValue struct {
	seed  int64
	value float64
}

func readRuns(path string) (runs, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := runs{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for n := 1; sc.Scan(); n++ {
		var rl resultLine
		if err := json.Unmarshal(sc.Bytes(), &rl); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, n, err)
		}
		if rl.Result == nil || !rl.Result.Correct {
			return nil, fmt.Errorf("%s:%d: not a correct result", path, n)
		}
		if out[rl.Workload] == nil {
			out[rl.Workload] = map[string][]runValue{}
		}
		for name, v := range rl.Result.Metrics {
			out[rl.Workload][name] = append(out[rl.Workload][name], runValue{rl.Seed, v.Value})
		}
	}
	return out, sc.Err()
}

// quartiles are the three cut points Python's statistics.quantiles(xs,
// n=4) gives (its default "exclusive" method), so spreads read the
// same here as in any script over the same runs.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	if n == 0 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		j = max(1, min(j, n-1))
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), quantile(s, 0.5), cut(3)
}

// spread is the interquartile range as a share of the median.
func spread(xs []float64) float64 {
	q1, med, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(med)
}

// verdict judges new runs against old ones for one metric:
//   - regressed: the new median is worse by more than the bound;
//   - improved: the new side wins at least nine tenths of the
//     seed-paired runs and the medians differ by more than the old
//     side's interquartile range — or every new run beats every old one;
//   - unresolved: either side spreads wider than the bound;
//   - unchanged: otherwise.
func verdict(old, cur []runValue, b bound) string {
	if len(old) == 0 || len(cur) == 0 {
		return "missing"
	}
	ov, cv := values(old), values(cur)
	oq1, om, oq3 := quartiles(ov)
	_, cm, _ := quartiles(cv)
	better := func(a, c float64) bool { // c better than a
		if b.higher {
			return c > a
		}
		return c < a
	}
	worse := (cm - om) / math.Abs(om)
	if b.higher {
		worse = -worse
	}
	if b.bound == 0 {
		return "-"
	}
	if worse > b.bound {
		return "regressed"
	}
	allBetter := true
	for _, o := range ov {
		for _, c := range cv {
			allBetter = allBetter && better(o, c)
		}
	}
	wins, pairs := 0, 0
	for _, p := range pairUp(old, cur) {
		pairs++
		if better(p[0], p[1]) {
			wins++
		}
	}
	if allBetter || (better(om, cm) && float64(wins) >= 0.9*float64(pairs) && math.Abs(cm-om) > oq3-oq1) {
		return "improved"
	}
	if spread(ov) > b.bound || spread(cv) > b.bound {
		return "unresolved"
	}
	return "unchanged"
}

func values(s []runValue) []float64 {
	out := make([]float64, len(s))
	for i, x := range s {
		out[i] = x.value
	}
	return out
}

// pairUp pairs runs made on the same seed; when no seed matches, runs
// pair in file order.
func pairUp(old, cur []runValue) [][2]float64 {
	bySeed := map[int64]float64{}
	for _, o := range old {
		bySeed[o.seed] = o.value
	}
	var out [][2]float64
	for _, c := range cur {
		if o, ok := bySeed[c.seed]; ok {
			out = append(out, [2]float64{o, c.value})
		}
	}
	if len(out) > 0 {
		return out
	}
	for i := 0; i < min(len(old), len(cur)); i++ {
		out = append(out, [2]float64{old[i].value, cur[i].value})
	}
	return out
}

// compareFiles prints, per workload and metric, each side's median and
// quartiles, the change of the median, and the verdict.
func compareFiles(w io.Writer, benchPath, oldPath, newPath string) error {
	bounds, err := readBounds(benchPath)
	if err != nil {
		return err
	}
	old, err := readRuns(oldPath)
	if err != nil {
		return err
	}
	cur, err := readRuns(newPath)
	if err != nil {
		return err
	}
	var wls []string
	for wl := range old {
		wls = append(wls, wl)
	}
	sort.Strings(wls)
	fmt.Fprintf(w, "%-12s %-28s %28s %28s %8s  %s\n", "workload", "metric", "old median [q1, q3] n", "new median [q1, q3] n", "Δ", "verdict")
	for _, wl := range wls {
		for _, b := range bounds {
			o, c := old[wl][b.name], cur[wl][b.name]
			if len(o) == 0 && len(c) == 0 {
				continue
			}
			fmt.Fprintf(w, "%-12s %-28s %28s %28s %7.1f%%  %s\n", wl, b.name,
				fmtSide(o), fmtSide(c), 100*(median(c)-median(o))/math.Abs(median(o)), verdict(o, c, b))
		}
	}
	return nil
}

func median(s []runValue) float64 {
	_, m, _ := quartiles(values(s))
	return m
}

func fmtSide(s []runValue) string {
	if len(s) == 0 {
		return "-"
	}
	q1, m, q3 := quartiles(values(s))
	return fmt.Sprintf("%.4g [%.4g, %.4g] %d", m, q1, q3, len(s))
}
