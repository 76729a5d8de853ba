// Command compare reads two sets of archbench result files — runs of a
// base and of a change — and prints, per workload and metric, each
// side's median and quartiles and a verdict against the bounds in
// BENCHMARK.json. It reads files only.
//
//	go run ./compare -bench ../BENCHMARK.json BASE_DIR CHANGE_DIR
//
// A result file holds one run's standard output (the last line is the
// result JSON) and its name starts with the workload, as in
// browse-seed3.txt. Verdicts, for metrics with a bound:
//
//	worse       the change's median is worse than the base's by more than the bound
//	better      the change's median is better by more than the base's own spread
//	            (quartile distance over median), and the change wins at least
//	            nine tenths of all (base, change) run pairs
//	same        neither
//	unresolved  either side's spread exceeds the bound, unless every change run
//	            reads better (or worse) than every base run
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

type metricSpec struct {
	Name, Unit, Better string
	Bound              float64
}

type benchmark struct {
	Workloads []struct{ Name string }
	EndToEnd  []metricSpec `json:"end_to_end"`
	PerLayer  []metricSpec `json:"per_layer"`
}

type result struct {
	Metrics map[string]struct{ Value float64 }
}

func main() {
	benchPath := flag.String("bench", "BENCHMARK.json", "the benchmark definition")
	flag.Parse()
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: compare [-bench BENCHMARK.json] BASE_DIR CHANGE_DIR")
		os.Exit(2)
	}
	b, err := os.ReadFile(*benchPath)
	if err != nil {
		fatal(err)
	}
	var bench benchmark
	if err := json.Unmarshal(b, &bench); err != nil {
		fatal(fmt.Errorf("%s: %w", *benchPath, err))
	}
	var names []string
	for _, w := range bench.Workloads {
		names = append(names, w.Name)
	}
	base, err := load(flag.Arg(0), names)
	if err != nil {
		fatal(err)
	}
	change, err := load(flag.Arg(1), names)
	if err != nil {
		fatal(err)
	}
	specs := append(append([]metricSpec(nil), bench.EndToEnd...), bench.PerLayer...)
	fmt.Println("Verdicts need ten or more runs a side to mean much; n is shown per side.")
	fmt.Printf("%-8s %-36s %30s %30s %8s  %s\n", "workload", "metric", "base q1/median/q3", "change q1/median/q3", "change", "verdict")
	for _, w := range names {
		for _, m := range specs {
			a, c := base[w][m.Name], change[w][m.Name]
			if len(a) == 0 || len(c) == 0 {
				continue
			}
			qa, qc := quartiles(a), quartiles(c)
			fmt.Printf("%-8s %-36s %30s %30s %+7.1f%%  %s\n", w, m.Name+" ("+m.Unit+")",
				fmt.Sprintf("%.4g/%.4g/%.4g n=%d", qa[0], qa[1], qa[2], len(a)),
				fmt.Sprintf("%.4g/%.4g/%.4g n=%d", qc[0], qc[1], qc[2], len(c)),
				100*(qc[1]-qa[1])/qa[1], verdict(m, a, c))
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "compare:", err)
	os.Exit(1)
}

// load reads every result file in dir into workload → metric → values.
func load(dir string, workloads []string) (map[string]map[string][]float64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	out := map[string]map[string][]float64{}
	for _, e := range entries {
		w := ""
		for _, name := range workloads {
			if strings.HasPrefix(e.Name(), name) {
				w = name
			}
		}
		if w == "" || e.IsDir() {
			continue
		}
		r, err := lastResult(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, err
		}
		if out[w] == nil {
			out[w] = map[string][]float64{}
		}
		for k, v := range r.Metrics {
			out[w][k] = append(out[w][k], v.Value)
		}
	}
	return out, nil
}

// lastResult parses the last non-empty line of a run's output.
func lastResult(path string) (result, error) {
	f, err := os.Open(path)
	if err != nil {
		return result{}, err
	}
	defer f.Close()
	var last string
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" {
			last = line
		}
	}
	if err := sc.Err(); err != nil {
		return result{}, fmt.Errorf("%s: %w", path, err)
	}
	var r result
	if err := json.Unmarshal([]byte(last), &r); err != nil {
		return result{}, fmt.Errorf("%s: last line is not a result: %w", path, err)
	}
	return r, nil
}

// quartiles returns the first quartile, median and third quartile, by
// the exclusive method (Python's statistics.quantiles default).
func quartiles(xs []float64) [3]float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return [3]float64{s[0], s[0], s[0]}
	}
	var q [3]float64
	for i := range q {
		pos := float64(i+1) * float64(n+1) / 4 // 1-based
		j := int(pos)
		switch {
		case j < 1:
			q[i] = s[0]
		case j >= n:
			q[i] = s[n-1]
		default:
			q[i] = s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
		}
	}
	return q
}

// verdict compares a change's runs c to the base runs a; see the
// package comment.
func verdict(m metricSpec, a, c []float64) string {
	if m.Bound == 0 {
		return "-"
	}
	qa, qc := quartiles(a), quartiles(c)
	// worse > 0 means the change moved the median the wrong way.
	worse := (qc[1] - qa[1]) / qa[1]
	better := func(x, y float64) bool { return x < y } // x better than y
	if m.Better == "higher" {
		worse = -worse
		better = func(x, y float64) bool { return x > y }
	}
	wins, losses := 0, 0
	for _, x := range c {
		for _, y := range a {
			if better(x, y) {
				wins++
			} else if better(y, x) {
				losses++
			}
		}
	}
	pairs := len(a) * len(c)
	spreadA, spreadC := (qa[2]-qa[0])/qa[1], (qc[2]-qc[0])/qc[1]
	switch {
	case (spreadA > m.Bound || spreadC > m.Bound) && wins == pairs:
		return "better"
	case (spreadA > m.Bound || spreadC > m.Bound) && losses == pairs:
		return "worse"
	case spreadA > m.Bound || spreadC > m.Bound:
		return "unresolved"
	case worse > m.Bound:
		return "worse"
	case -worse > spreadA && float64(wins) >= 0.9*float64(pairs):
		return "better"
	}
	return "same"
}
