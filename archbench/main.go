// Command archbench is the archive's request-level benchmark. In one
// process it deploys the archive as easiad and dlfsd do — the metadata
// DB behind the web UI, file host fs1 (one dlfs daemon) and file host
// fs2 (a replication gateway over three member daemons), all on
// loopback — loads a seeded archive, and drives it with closed-loop
// sessions for a fixed time. Every reply is checked against the
// generated data.
//
//	archbench --workload browse|ingest|all --seed N --seconds S --trace 0|1
//
// With --trace 0 it reports the end-to-end metrics. With --trace 1 it
// runs the workload twice, untraced and then traced with the same seed,
// and reports per-layer metrics plus the tracing overhead. The last
// line of standard output is one JSON object: correct, attempted,
// failed and metrics. The exit code is non-zero when any answer was
// wrong.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/telemetry"
)

// sessions is the number of concurrent closed-loop users.
const sessions = 2

// runSeconds is the measured time of one run, BENCHMARK.json's
// run_seconds.
const runSeconds = 20

func main() {
	var (
		name    = flag.String("workload", "browse", "browse, ingest or all")
		seed    = flag.Int64("seed", 1, "workload seed")
		seconds = flag.Float64("seconds", runSeconds, "measured seconds per run")
		trace   = flag.Int("trace", 0, "1 reports per-layer metrics from a traced run")
		work    = flag.String("work", ".bench_build/work", "scratch directory for the archive")
		spans   = flag.String("spans", "", "directory to write traced spans to (traced runs)")
	)
	flag.Parse()
	if err := os.MkdirAll(*work, 0o755); err != nil {
		fail(err)
	}
	cfg := runConfig{sz: fullSizes, seed: *seed, seconds: *seconds, work: *work, spans: *spans}
	var res *result
	var err error
	if *name == "all" {
		res, err = runAll(cfg)
	} else {
		w, ok := findWorkload(*name)
		if !ok {
			fail(fmt.Errorf("unknown workload %q", *name))
		}
		var e2e, layers *result
		e2e, layers, err = runWorkload(cfg, w, *trace == 1)
		res = e2e
		if layers != nil {
			res = layers
		}
	}
	if err != nil {
		fail(err)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "archbench:", err)
	os.Exit(2)
}

type runConfig struct {
	sz       sizes
	seed     int64
	seconds  float64
	work     string
	spans    string
	wrapHost func(core.FileHost) core.FileHost // see deployment.wrapHost
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// phase is one measured run of a workload on a fresh deployment.
type phase struct {
	w       workload
	setups  []float64 // seconds
	warm    tally     // the warm-up: its failures count too
	tally   tally     // the timed window (and the checks after it)
	window  float64   // seconds, until the last step ended
	slice   time.Duration
	marks   []mark // process counters at each slice boundary
	gcs     uint32
	gcPause uint64
	rssKB   int64
	checks  []string // failed cross-checks
	layer   layerInputs

	sliceP50 []float64 // main_p50_ms of each slice, for the report
}

// mark samples the process's CPU time and allocation total.
type mark struct {
	cpuNs int64
	alloc uint64
}

func takeMark() mark { return mark{cpuNs(), memStats().TotalAlloc} }

// sliceSeconds is the length of the slices the timed window is cut
// into. Each end-to-end metric is measured per slice and reported as
// the median over slices, so a burst of noise from outside the process
// moves one slice, not the result.
const sliceSeconds = 2

// layerInputs is what the traced run measures besides the spans.
type layerInputs struct {
	tr        *tracer
	db0, db1  []telemetry.Metric
	failovers int
	walBytes  int64
}

func (p *phase) completed() int { return p.tally.attempted - p.tally.failed }

func (p *phase) attempted() int { return p.warm.attempted + p.tally.attempted }

func (p *phase) failed() int { return p.warm.failed + p.tally.failed }

func (p *phase) correct() bool { return p.failed() == 0 && len(p.checks) == 0 }

// runPhase sets the archive up (repeats times, keeping the last), warms
// it up, and measures the workload for cfg.seconds.
func runPhase(cfg runConfig, w workload, traced bool, repeats int) (*phase, error) {
	m := newModel(cfg.seed, cfg.sz)
	p := &phase{w: w}
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	// Leave the file system settled for whatever runs next: freeing the
	// run's files costs the next fsyncs dearly until it is flushed.
	defer syncFS()
	var d *deployment
	for i := 0; i < repeats; i++ {
		dir, err := os.MkdirTemp(cfg.work, w.name+"-")
		if err != nil {
			return nil, err
		}
		syncFS()
		start := time.Now()
		if d, err = deploy(dir, m, tr, cfg.wrapHost); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		p.setups = append(p.setups, time.Since(start).Seconds())
		if i < repeats-1 {
			// Keep the directory until the run ends: removing it here
			// would make the next set-up wait on the file system
			// freeing its blocks.
			defer os.RemoveAll(dir) //nolint:errcheck // scratch files
			if err := d.stop(); err != nil {
				return nil, err
			}
		}
	}
	defer d.close() //nolint:errcheck // an error here leaves only scratch files
	var ss []*session
	for i := 0; i < sessions; i++ {
		s, err := newSession(i, d, m, cfg.seed*7919+int64(i))
		if err != nil {
			return nil, err
		}
		ss = append(ss, s)
	}
	each := func(f func(s *session)) {
		var wg sync.WaitGroup
		for _, s := range ss {
			wg.Add(1)
			go func() {
				defer wg.Done()
				f(s)
			}()
		}
		wg.Wait()
	}
	// Warm up until caches are full and the file system has reached the
	// state the workload keeps it in; at least a few steps per session.
	warm := time.Now().Add(cfg.sz.Warmup)
	each(func(s *session) {
		for i := 0; i < 4 || time.Now().Before(warm); i++ {
			w.step(s)
		}
	})

	var wal *walMeter
	if traced && w.name == "ingest" {
		wal = &walMeter{path: filepath.Join(d.dir, "db", "wal.log")}
		wal.sample()
		wal.grown = 0
	}
	ms0 := memStats()
	if traced {
		p.layer = layerInputs{tr: tr, db0: d.a.DB.MetricsSnapshot()}
		p.layer.failovers = d.rs.Stats().Failovers
		tr.on.Store(true)
	}
	nSlices := max(1, int(cfg.seconds/sliceSeconds+0.5))
	p.slice = time.Duration(cfg.seconds * float64(time.Second) / float64(nSlices))
	p.marks = make([]mark, nSlices+1)
	start := time.Now()
	for _, s := range ss {
		p.warm.merge(&s.tally)
		s.tally = tally{}
		s.record, s.t0 = true, start
	}
	p.marks[0] = takeMark()
	deadline := start.Add(time.Duration(nSlices) * p.slice)
	var sampler sync.WaitGroup
	sampler.Add(1)
	go func() {
		defer sampler.Done()
		for i := 1; i <= nSlices; i++ {
			time.Sleep(time.Until(start.Add(time.Duration(i) * p.slice)))
			p.marks[i] = takeMark()
		}
	}()
	each(func(s *session) {
		for time.Now().Before(deadline) {
			w.step(s)
			if wal != nil {
				wal.sample()
			}
		}
	})
	p.window = time.Since(start).Seconds()
	sampler.Wait()
	if traced {
		tr.on.Store(false)
		p.layer.db1 = d.a.DB.MetricsSnapshot()
		p.layer.failovers = d.rs.Stats().Failovers - p.layer.failovers
		if wal != nil {
			p.layer.walBytes = wal.grown
		}
	}
	ms1 := memStats()
	p.gcs = ms1.NumGC - ms0.NumGC
	p.gcPause = ms1.PauseTotalNs - ms0.PauseTotalNs
	for _, s := range ss {
		p.tally.merge(&s.tally)
	}
	if traced && w.name == "browse" {
		p.checks = append(p.checks, crossCheck(tr, &p.tally)...)
	}
	if w.name == "ingest" {
		n, errs := verifyIngest(d, ss)
		for _, err := range errs {
			p.tally.fail("%v", err)
		}
		if n == 0 {
			p.checks = append(p.checks, "no acknowledged ingest to verify")
		}
	}
	p.rssKB = peakRSSKB()
	if traced && cfg.spans != "" {
		if err := os.MkdirAll(cfg.spans, 0o755); err != nil {
			return nil, err
		}
		if err := tr.writeSpans(filepath.Join(cfg.spans, fmt.Sprintf("%s-seed%d.tsv", w.name, cfg.seed))); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// crossCheck proves the wrappers saw every call on the browse path:
// each rendered DATALINK cell stats its file once, so the archive-side
// stat RPCs equal the cells the generated data predicts, each cell runs
// at least one link-column probe besides the page's own query, and
// each operation reads its code and dataset once.
func crossCheck(tr *tracer, t *tally) []string {
	tot := tr.totals()
	var out []string
	if got := tot.n[key(spRPC, "stat")]; got != t.cells {
		out = append(out, fmt.Sprintf("dlfs stat RPCs %d, want one per rendered DATALINK cell (%d)", got, t.cells))
	}
	if got := tot.n[key(spSelect, "")]; got < t.pages+t.cells {
		out = append(out, fmt.Sprintf("%d SELECTs, want at least one per page plus one per DATALINK cell (%d)", got, t.pages+t.cells))
	}
	// Operations run alone while traced: the file bytes read inside
	// their handler spans are exactly the code and datasets they fetch.
	if _, got := tr.within("/oprun", spHost); got != t.opIn {
		out = append(out, fmt.Sprintf("operations read %d file bytes, want their code and datasets (%d)", got, t.opIn))
	}
	return out
}

// walMeter follows the WAL file's growth across checkpoints, which
// truncate it.
type walMeter struct {
	mu          sync.Mutex
	path        string
	last, grown int64
}

// sample stats the WAL under the lock, so sizes from both sessions are
// applied in the order they were read.
func (w *walMeter) sample() {
	w.mu.Lock()
	defer w.mu.Unlock()
	fi, err := os.Stat(w.path)
	if err != nil {
		return
	}
	if n := fi.Size(); n >= w.last {
		w.grown += n - w.last
	} else {
		w.grown += n
	}
	w.last = fi.Size()
}

// syncFS flushes the file systems, so that writes and frees still
// pending are not paid for inside a measurement.
func syncFS() { syscall.Sync() }

func cpuNs() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

func memStats() runtime.MemStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms
}

// peakRSSKB reads the process's peak resident set size.
func peakRSSKB() int64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb int64
			fmt.Sscan(rest, &kb)
			return kb
		}
	}
	return 0
}

// runWorkload measures one workload untraced and returns its
// end-to-end metrics; with traced set it then runs it traced with the
// same seed and also returns the per-layer metrics, whose tracing
// overhead is measured against the untraced run.
func runWorkload(cfg runConfig, w workload, traced bool) (e2e, layers *result, err error) {
	base, err := runPhase(cfg, w, false, cfg.sz.SetupRepeats)
	if err != nil {
		return nil, nil, err
	}
	e2e = &result{Correct: base.correct(), Attempted: base.attempted(), Failed: base.failed(), Metrics: endToEnd(base)}
	printPhase(base, e2e.Metrics, nil)
	if !traced {
		return e2e, nil, nil
	}
	tp, err := runPhase(cfg, w, true, 1)
	if err != nil {
		return nil, nil, err
	}
	layers = &result{Correct: e2e.Correct && tp.correct(),
		Attempted: e2e.Attempted + tp.attempted(), Failed: e2e.Failed + tp.failed(), Metrics: perLayer(tp, base)}
	printPhase(tp, endToEnd(tp), layers.Metrics)
	return e2e, layers, nil
}

// runAll runs every workload untraced and traced, printing every
// metric; its JSON line carries all of them, prefixed by workload.
func runAll(cfg runConfig) (*result, error) {
	all := &result{Correct: true, Metrics: map[string]metric{}}
	for _, w := range workloads {
		e2e, layers, err := runWorkload(cfg, w, true)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		all.Correct = all.Correct && layers.Correct
		all.Attempted += layers.Attempted
		all.Failed += layers.Failed
		for _, r := range []*result{e2e, layers} {
			for k, v := range r.Metrics {
				all.Metrics[w.name+"."+k] = v
			}
		}
	}
	return all, nil
}

// ---------- end-to-end metrics ----------

// endToEndMetrics are the metrics every workload reports untraced. The
// main_* and side_* latencies are those of the workload's main and side
// request kinds (see workloads).
var endToEndMetrics = []struct{ name, unit, better string }{
	{"setup_s", "s", "lower"},
	{"req_per_s", "1/s", "higher"},
	{"main_p50_ms", "ms", "lower"},
	{"main_p99_ms", "ms", "lower"},
	{"side_p50_ms", "ms", "lower"},
	{"side_p90_ms", "ms", "lower"},
	{"cpu_ms_per_req", "ms", "lower"},
	{"alloc_kb_per_req", "KiB", "lower"},
	{"peak_rss_mb", "MiB", "lower"},
}

// endToEnd computes every end-to-end metric per slice of the timed
// window (requests counted where they completed) and reports each as
// the median over the slices.
func endToEnd(p *phase) map[string]metric {
	perSlice := map[string][]float64{}
	for i := 0; i+1 < len(p.marks); i++ {
		from, to := time.Duration(i)*p.slice, time.Duration(i+1)*p.slice
		n := 0
		for _, s := range p.tally.samples {
			if s.end >= from && s.end < to {
				n++
			}
		}
		if n == 0 {
			continue
		}
		main, side := p.tally.lat(p.w.main, from, to), p.tally.lat(p.w.side, from, to)
		m0, m1 := p.marks[i], p.marks[i+1]
		for k, v := range map[string]float64{
			"req_per_s":        float64(n) / p.slice.Seconds(),
			"main_p50_ms":      quantileMs(main, 0.50),
			"main_p99_ms":      quantileMs(main, 0.99),
			"side_p50_ms":      quantileMs(side, 0.50),
			"side_p90_ms":      quantileMs(side, 0.90),
			"cpu_ms_per_req":   float64(m1.cpuNs-m0.cpuNs) / 1e6 / float64(n),
			"alloc_kb_per_req": float64(m1.alloc-m0.alloc) / 1024 / float64(n),
		} {
			perSlice[k] = append(perSlice[k], v)
		}
	}
	p.sliceP50 = perSlice["main_p50_ms"]
	perSlice["setup_s"] = p.setups
	perSlice["peak_rss_mb"] = []float64{float64(p.rssKB) / 1024}
	out := map[string]metric{}
	for _, e := range endToEndMetrics {
		out[e.name] = metric{median(perSlice[e.name]), e.unit}
	}
	return out
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// quantileMs interpolates the q-quantile of the durations, in ms.
func quantileMs(ds []time.Duration, q float64) float64 {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	pos := q * float64(len(s)-1)
	i := int(pos)
	v := float64(s[i])
	if i+1 < len(s) {
		v += (pos - float64(i)) * float64(s[i+1]-s[i])
	}
	return v / 1e6
}

// ---------- report ----------

func printPhase(p *phase, e2e, layers map[string]metric) {
	mode := "untraced"
	if p.layer.tr != nil {
		mode = "traced"
	}
	t := &p.tally
	fmt.Printf("# %s (%s): %d sessions, %.2fs window in %d slices, attempted %d, failed %d (warm-up included)\n",
		p.w.name, mode, sessions, p.window, len(p.marks)-1, p.attempted(), p.failed())
	for _, e := range append(p.warm.errs, t.errs...) {
		fmt.Printf("#   failure: %s\n", e)
	}
	for _, c := range p.checks {
		fmt.Printf("#   cross-check failed: %s\n", c)
	}
	// Whole-window latencies by request kind, under the names the
	// main_* and side_* metrics stand for on this workload.
	for k := reqKind(0); k < numKinds; k++ {
		if lat := t.lat(k, 0, time.Duration(1<<62)); len(lat) > 0 {
			fmt.Printf("  %-28s %10.4f ms   %-28s %10.4f ms   n=%d\n",
				kindNames[k]+"_p50_ms", quantileMs(lat, .5), kindNames[k]+"_p99_ms", quantileMs(lat, .99), len(lat))
		}
	}
	fmt.Printf("  %-28s %10.6f ratio\n", "fail_ratio", float64(p.failed())/float64(max(p.attempted(), 1)))
	fmt.Printf("  %-28s %s\n", "main_p50_ms by slice", strings.Trim(fmt.Sprintf("%.4f", p.sliceP50), "[]"))
	fmt.Printf("  %-28s %s\n", "setup_s by set-up", strings.Trim(fmt.Sprintf("%.4f", p.setups), "[]"))
	for _, e := range endToEndMetrics {
		fmt.Printf("  %-28s %10.4f %s\n", e.name, e2e[e.name].Value, e2e[e.name].Unit)
	}
	for _, l := range layerMetrics {
		if v, ok := layers[l.name]; ok {
			fmt.Printf("  %-38s %12.4f %-6s  moves %s\n", l.name, v.Value, v.Unit, l.moves)
		}
	}
}
