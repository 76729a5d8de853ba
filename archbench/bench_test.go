package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
)

// toySizes keeps a run to about a second.
var toySizes = sizes{
	Authors: 2, Sims: 6, MinFiles: 2, MaxFiles: 4,
	Grids: []int{8, 12},
	MinKB: 1, MaxKB: 4, IngestMinKB: 1, IngestMaxKB: 4,
	SetupRepeats: 1, Warmup: 100 * time.Millisecond, PageLimit: 5,
}

func toyConfig(t *testing.T) runConfig {
	return runConfig{sz: toySizes, seed: 3, seconds: 0.6, work: t.TempDir()}
}

// benchmarkJSON is the part of BENCHMARK.json the program must agree
// with.
type benchmarkJSON struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct{ Name, Unit, Better string } `json:"end_to_end"`
	PerLayer   []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	bj := readBenchmarkJSON(t)
	if bj.RunSeconds != runSeconds {
		t.Errorf("BENCHMARK.json run_seconds is %d, the program's default %d", bj.RunSeconds, runSeconds)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bj.Workloads[i].Name != w.name || bj.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, program %q: %q", i, bj.Workloads[i], w.name, w.why)
		}
	}
	if len(bj.EndToEnd) != len(endToEndMetrics) {
		t.Fatalf("end_to_end: %d in BENCHMARK.json, %d in the program", len(bj.EndToEnd), len(endToEndMetrics))
	}
	for i, e := range endToEndMetrics {
		if got := bj.EndToEnd[i]; got.Name != e.name || got.Unit != e.unit || got.Better != e.better {
			t.Errorf("end_to_end %d: BENCHMARK.json has %+v, program %+v", i, got, e)
		}
	}
	if len(bj.PerLayer) != len(layerMetrics) {
		t.Fatalf("per_layer: %d in BENCHMARK.json, %d in the program", len(bj.PerLayer), len(layerMetrics))
	}
	for i, l := range layerMetrics {
		if got := bj.PerLayer[i]; got.Name != l.name || got.Unit != l.unit || got.Better != l.better {
			t.Errorf("per_layer %d: BENCHMARK.json has %+v, program %s %s", i, got, l.name, l.unit)
		}
	}
}

// TestEveryWorkloadEmitsEveryMetric runs each workload untraced and
// traced at toy size and checks the answers were right and every named
// metric came out with its unit.
func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	bj := readBenchmarkJSON(t)
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			res, layers, err := runWorkload(toyConfig(t), w, traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if traced {
				res = layers
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", w.name, traced, res.Correct, res.Attempted, res.Failed)
			}
			want := bj.EndToEnd
			if traced {
				want = bj.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w.name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s traced=%v: metric %s = %+v, want unit %s", w.name, traced, m.Name, got, m.Unit)
				}
			}
			if !traced {
				for _, m := range want {
					if res.Metrics[m.Name].Value <= 0 {
						t.Errorf("%s: end-to-end metric %s is %v", w.name, m.Name, res.Metrics[m.Name].Value)
					}
				}
			}
		}
	}
}

// flipHost corrupts one byte of the first file the archive streams.
type flipHost struct {
	core.FileHost
	done *atomic.Bool
}

func (h flipHost) OpenFile(path, token string) (io.ReadCloser, error) {
	rc, err := h.FileHost.OpenFile(path, token)
	if err != nil || h.done.Swap(true) {
		return rc, err
	}
	b, err := io.ReadAll(rc)
	rc.Close()
	if err != nil {
		return nil, err
	}
	if len(b) > 0 {
		b[len(b)/2] ^= 0x01
	}
	return io.NopCloser(bytes.NewReader(b)), nil
}

func TestFlippedDownloadByteIsCounted(t *testing.T) {
	cfg := toyConfig(t)
	var done atomic.Bool
	cfg.wrapHost = func(h core.FileHost) core.FileHost { return flipHost{FileHost: h, done: &done} }
	w, _ := findWorkload("browse")
	res, _, err := runWorkload(cfg, w, false)
	if err != nil {
		t.Fatal(err)
	}
	if !done.Load() {
		t.Fatal("no download reached the file host")
	}
	if res.Correct || res.Failed != 1 {
		t.Errorf("one corrupted download: correct=%v failed=%d, want false and 1", res.Correct, res.Failed)
	}
}

func TestQuantile(t *testing.T) {
	ds := []time.Duration{4, 1, 3, 2, 5}
	for _, c := range []struct {
		q    float64
		want float64
	}{{0.5, 3}, {0, 1}, {1, 5}, {0.25, 2}} {
		if got := quantileMs(ds, c.q) * 1e6; got != c.want {
			t.Errorf("quantile %v = %v, want %v", c.q, got, c.want)
		}
	}
}
