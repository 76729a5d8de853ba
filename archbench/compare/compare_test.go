package main

import "testing"

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q != [3]float64{2.75, 5.5, 8.25} {
		t.Errorf("quartiles = %v", q)
	}
}

func TestVerdict(t *testing.T) {
	lower := metricSpec{Name: "p50_ms", Better: "lower", Bound: 0.1}
	base := []float64{10, 10.2, 9.9, 10.1, 10, 9.8, 10.3, 10.1, 9.9, 10}
	for _, c := range []struct {
		name   string
		m      metricSpec
		change []float64
		want   string
	}{
		{"unchanged", lower, []float64{10.1, 9.9, 10, 10.2, 9.8, 10, 10.1, 9.9, 10.2, 10}, "same"},
		{"much slower", lower, []float64{13, 13.2, 12.8, 13.1, 12.9, 13, 13.3, 12.7, 13, 13.1}, "worse"},
		{"much faster", lower, []float64{8, 8.1, 7.9, 8, 8.2, 7.8, 8.1, 8, 7.9, 8}, "better"},
		{"faster is worse when higher is better", metricSpec{Better: "higher", Bound: 0.1},
			[]float64{8, 8.1, 7.9, 8, 8.2, 7.8, 8.1, 8, 7.9, 8}, "worse"},
		{"noisy", lower, []float64{6, 14, 9, 11, 7, 13, 10, 12, 8, 15}, "unresolved"},
		{"every run a little slower, within the bound", lower, []float64{10.4, 10.5, 10.4, 10.6, 10.5, 10.4, 10.5, 10.6, 10.5, 10.4}, "same"},
		{"noisy but every run faster", lower, []float64{2, 9, 5, 3, 8, 4, 7, 6, 2, 9}, "better"},
		{"no bound", metricSpec{Better: "lower"}, []float64{1}, "-"},
	} {
		if got := verdict(c.m, base, c.change); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}
