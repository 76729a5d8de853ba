package main

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"html"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"regexp"
	"sort"
	"strings"
	"time"

	"repro/internal/sqltypes"
)

// reqKind classifies a session's requests for latency reporting.
type reqKind int

const (
	kPage     reqKind = iota // a QBE or browse result page
	kDownload                // a DATALINK download, send → last byte
	kOpForm                  // an operation's parameter form
	kOp                      // an operation run (POST /oprun)
	kIngest                  // archive a file + autocommit its linked row
	numKinds
)

var kindNames = [numKinds]string{"page", "download", "operation_form", "operation", "ingest"}

// workload is one traffic mix. main and side name the request kinds its
// main_* and side_* latency metrics report.
type workload struct {
	name, why  string
	main, side reqKind
	step       func(s *session) // one closed-loop step of a session
}

var workloads = []workload{
	{"browse", "QBE forms Zipf-drawn from ~1500 shapes (> 256-plan cache), an FK click, some downloads, a GetImage run per ~20 steps; main_*: result pages, side_*: downloads",
		kPage, kDownload, (*session).browseStep},
	{"ingest", "archivists put files (fs2 fans out to 2 replicas) and autocommit the linked INSERT (WAL, 2PC); every 4th step renders the growing page; main_*: ingests, side_*: pages",
		kIngest, kPage, (*session).ingestStep},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// sample is one successful request of the timed window: its kind, when
// it completed (since the window opened) and how long it took.
type sample struct {
	kind     reqKind
	end, dur time.Duration
}

// tally is what one session observed; sessions merge theirs at the end.
type tally struct {
	samples   []sample
	attempted int
	failed    int
	errs      []string // the first few failures, for the report
	cells     int64    // DATALINK cells the rendered pages must hold
	pages     int64    // result pages rendered
	pageBytes int64    // HTML bytes of result pages, forms and op results
	html      int64    // HTML responses
	ops       int64
	opIn      int64 // bytes GetImage fetches: its code and the dataset
	opOut     int64 // GetImage output bytes
	ingests   int64
}

func (t *tally) merge(o *tally) {
	t.samples = append(t.samples, o.samples...)
	t.attempted += o.attempted
	t.failed += o.failed
	if len(t.errs) < 5 {
		t.errs = append(t.errs, o.errs[:min(len(o.errs), 5-len(t.errs))]...)
	}
	t.cells += o.cells
	t.pages += o.pages
	t.pageBytes += o.pageBytes
	t.html += o.html
	t.ops += o.ops
	t.opIn += o.opIn
	t.opOut += o.opOut
	t.ingests += o.ingests
}

// lat returns the durations of kind k that completed in [from, to).
func (t *tally) lat(k reqKind, from, to time.Duration) []time.Duration {
	var out []time.Duration
	for _, s := range t.samples {
		if s.kind == k && s.end >= from && s.end < to {
			out = append(out, s.dur)
		}
	}
	return out
}

func (t *tally) fail(format string, args ...any) {
	t.failed++
	if len(t.errs) < 5 {
		t.errs = append(t.errs, fmt.Sprintf(format, args...))
	}
}

// session is one closed-loop user: it sends its next request only when
// the previous reply is complete, over one keep-alive connection.
type session struct {
	id     int
	d      *deployment
	m      *archiveModel
	r      *rand.Rand
	hc     *http.Client
	base   string
	cookie string
	shapes *zipfShapes
	tally  tally
	record bool      // timed window: keep samples
	t0     time.Time // when the timed window opened

	// ingest state: the simulations this session archives into, and
	// the rows it has had acknowledged.
	sims  []*simulation
	acked map[string][]*fileRow
	seq   int
}

func newSession(id int, d *deployment, m *archiveModel, seed int64) (*session, error) {
	t := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}
	d.clients = append(d.clients, t)
	s := &session{
		id: id, d: d, m: m, r: rand.New(rand.NewSource(seed)), base: d.web.url,
		hc: &http.Client{Transport: t, CheckRedirect: func(*http.Request, []*http.Request) error {
			return http.ErrUseLastResponse
		}},
		acked: map[string][]*fileRow{},
	}
	s.shapes = m.shapes(s.r)
	for i, sim := range m.sims {
		if i%sessions == id {
			s.sims = append(s.sims, sim)
		}
	}
	resp, err := s.hc.PostForm(s.base+"/login", url.Values{"username": {"admin"}, "password": {adminPassword}})
	if err != nil {
		return nil, fmt.Errorf("login: %w", err)
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck // only the cookie matters
	resp.Body.Close()
	for _, c := range resp.Cookies() {
		s.cookie = c.Name + "=" + c.Value
	}
	if s.cookie == "" {
		return nil, errors.New("login: no session cookie")
	}
	return s, nil
}

// do sends one request and reads the whole reply, timing send → last
// byte. Any transport error or non-200 status is returned as an error.
func (s *session) do(method, path string, form url.Values) ([]byte, time.Duration, error) {
	var body io.Reader
	if form != nil {
		body = strings.NewReader(form.Encode())
	}
	req, err := http.NewRequest(method, s.base+path, body)
	if err != nil {
		return nil, 0, err
	}
	req.Header.Set("Cookie", s.cookie)
	if form != nil {
		req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
	}
	tr := s.d.tr
	var startNs int64
	if tr != nil {
		// An operation runs alone while traced, so every span inside
		// its handler span is its own (see tracer.within).
		if strings.HasPrefix(path, "/oprun") {
			tr.opGate.Lock()
			defer tr.opGate.Unlock()
		} else {
			tr.opGate.RLock()
			defer tr.opGate.RUnlock()
		}
		startNs = tr.now()
	}
	start := time.Now()
	resp, err := s.hc.Do(req)
	if err != nil {
		return nil, 0, err
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	dur := time.Since(start)
	if tr != nil {
		tr.record(spClient, kindPath(path), startNs, int64(len(b)))
	}
	if err != nil {
		return nil, dur, err
	}
	if resp.StatusCode != http.StatusOK {
		return b, dur, fmt.Errorf("%s %s: status %d", method, path, resp.StatusCode)
	}
	return b, dur, nil
}

func kindPath(p string) string {
	if i := strings.IndexByte(p, '?'); i >= 0 {
		return p[:i]
	}
	return p
}

// request runs one request of kind k, checks its reply and records it.
func (s *session) request(k reqKind, method, path string, form url.Values, check func([]byte) error) ([]byte, bool) {
	s.tally.attempted++
	b, dur, err := s.do(method, path, form)
	if err == nil {
		err = check(b)
	}
	if err != nil {
		s.tally.fail("%s: %v", kindNames[k], err)
		return nil, false
	}
	s.keep(k, dur)
	if k != kDownload {
		s.tally.html++
		s.tally.pageBytes += int64(len(b))
	}
	return b, true
}

// keep records a successful request that just completed.
func (s *session) keep(k reqKind, dur time.Duration) {
	if s.record {
		s.tally.samples = append(s.tally.samples, sample{kind: k, end: time.Since(s.t0), dur: dur})
	}
}

// ---------- page checks ----------

var (
	hrefRe  = regexp.MustCompile(`href="([^"]*)"`)
	countRe = regexp.MustCompile(`<p class="meta">(\d+) row\(s\) from`)
)

func hrefs(page []byte, prefix string) []string {
	var out []string
	for _, m := range hrefRe.FindAllSubmatch(page, -1) {
		if h := html.UnescapeString(string(m[1])); strings.HasPrefix(h, prefix) {
			out = append(out, h)
		}
	}
	return out
}

// downloadPaths returns the file behind each download link, in page
// order, as host+path without the access token.
func downloadPaths(page []byte) ([]string, error) {
	var out []string
	for _, h := range hrefs(page, "/download?") {
		q, err := url.ParseQuery(strings.TrimPrefix(h, "/download?"))
		if err != nil {
			return nil, err
		}
		u, err := sqltypes.ParseDatalinkURL(q.Get("url"))
		if err != nil {
			return nil, err
		}
		path, token := sqltypes.SplitTokenizedPath(u.Path)
		if token == "" {
			return nil, fmt.Errorf("download link %q carries no token", h)
		}
		out = append(out, "http://"+u.Host+path)
	}
	return out, nil
}

// checkRows verifies a result page: its row count, and that its download
// links name exactly the files of the expected rows (in page order when
// ordered is set) when the page shows the DATALINK column.
func checkRows(page []byte, want []*fileRow, links, ordered bool) error {
	m := countRe.FindSubmatch(page)
	if m == nil {
		return errors.New("no row count on result page")
	}
	if got := string(m[1]); got != fmt.Sprint(len(want)) {
		return fmt.Errorf("page shows %s rows, want %d", got, len(want))
	}
	got, err := downloadPaths(page)
	if err != nil {
		return err
	}
	var exp []string
	if links {
		for _, f := range want {
			exp = append(exp, f.url())
		}
	}
	if !ordered {
		sort.Strings(got)
		sort.Strings(exp)
	}
	if strings.Join(got, " ") != strings.Join(exp, " ") {
		return fmt.Errorf("download links %v, want %v", got, exp)
	}
	return nil
}

// ---------- browse ----------

// browseStep submits a QBE form, follows one browse link from the result
// page (and, one time in twenty, runs GetImage on that simulation's
// dataset) and, one time in three, downloads one listed result file.
func (s *session) browseStep() {
	q := s.m.form(s.shapes.next(), s.r)
	want := s.m.expect(q, s.m.sz.PageLimit)
	links := q.selects("DOWNLOAD_RESULT")
	page, ok := s.request(kPage, "GET", "/query?"+q.query(s.m.sz.PageLimit), nil, func(b []byte) error {
		return checkRows(b, want, links, true)
	})
	if !ok {
		return
	}
	s.tally.pages++
	if links {
		s.tally.cells += int64(len(want))
	}
	if bl := hrefs(page, "/browse?"); len(bl) > 0 {
		link := bl[s.r.Intn(len(bl))]
		if _, ok := s.request(kPage, "GET", link, nil, func(b []byte) error { return s.checkBrowse(link, b) }); ok {
			s.tally.pages++
			// Now and then the user reduces that simulation's dataset
			// with GetImage instead of downloading it.
			if s.r.Intn(20) == 0 {
				q, _ := url.ParseQuery(strings.TrimPrefix(link, "/browse?")) // parsed by checkBrowse
				s.getImage(s.m.simByKey[q.Get("value")].Dataset)
			}
		}
	}
	// Users download result files; datasets they reduce with GetImage.
	dl := hrefs(page, "/download?")
	paths, _ := downloadPaths(page) // parsed without error by checkRows
	var files []int
	for i, p := range paths {
		if s.m.byURL[p].Grid == 0 {
			files = append(files, i)
		}
	}
	if len(files) == 0 || s.r.Intn(3) != 0 {
		return
	}
	i := files[s.r.Intn(len(files))]
	f := s.m.byURL[paths[i]]
	s.request(kDownload, "GET", dl[i], nil, func(b []byte) error {
		if sha256.Sum256(b) != f.Sum {
			return fmt.Errorf("download of %s: %d bytes with the wrong checksum", f.url(), len(b))
		}
		return nil
	})
}

// checkBrowse checks a page reached by a browse link. From RESULT_FILE
// pages the links are foreign-key "details" links to one SIMULATION row.
func (s *session) checkBrowse(link string, page []byte) error {
	q, err := url.ParseQuery(strings.TrimPrefix(link, "/browse?"))
	if err != nil {
		return err
	}
	if q.Get("mode") != "fk" || q.Get("table") != "SIMULATION" {
		return fmt.Errorf("unexpected browse link %s", link)
	}
	m := countRe.FindSubmatch(page)
	if m == nil || string(m[1]) != "1" {
		return fmt.Errorf("browse %s: want one SIMULATION row", q.Get("value"))
	}
	if len(hrefs(page, "/download?")) != 0 {
		return errors.New("SIMULATION page shows download links")
	}
	return nil
}

// ---------- GetImage ----------

var (
	opOutRe = regexp.MustCompile(`>slice\.pgm</a> \((\d+) bytes\)`)
	axes    = []string{"x", "y", "z"}
	comps   = []string{"u", "v", "w", "p"}
)

// getImage opens the GetImage form for a dataset and runs it with a
// drawn axis and component.
func (s *session) getImage(ds *fileRow) {
	axis, comp := axes[s.r.Intn(len(axes))], comps[s.r.Intn(len(comps))]
	q := url.Values{"op": {"GetImage"}, "colid": {"RESULT_FILE.DOWNLOAD_RESULT"}, "table": {"RESULT_FILE"},
		"pk_FILE_NAME": {ds.Name}, "pk_SIMULATION_KEY": {ds.Sim}}
	if _, ok := s.request(kOpForm, "GET", "/opform?"+q.Encode(), nil, func(b []byte) error {
		if !bytes.Contains(b, []byte(`name="slice"`)) {
			return errors.New("operation form has no slice parameter")
		}
		return nil
	}); !ok {
		return
	}
	q.Set("slice", axis)
	q.Set("type", comp)
	want := pgmSize(ds.Grid)
	if _, ok := s.request(kOp, "POST", "/oprun", q, func(b []byte) error {
		m := opOutRe.FindSubmatch(b)
		if m == nil {
			return fmt.Errorf("GetImage on %s: no slice.pgm in the output", ds.Name)
		}
		if got := string(m[1]); got != fmt.Sprint(want) {
			return fmt.Errorf("GetImage %s axis %s: slice.pgm is %s bytes, want %d", ds.Name, axis, got, want)
		}
		if !bytes.Contains(b, []byte(fmt.Sprintf("slice %s = %d of %s", axis, ds.Grid/2, comp))) {
			return fmt.Errorf("GetImage on %s: output does not name slice %s of %s", ds.Name, axis, comp)
		}
		if n := bytes.Count(b, []byte("\nprofile ")); n != ds.Grid/2 {
			return fmt.Errorf("GetImage on %s: %d profile lines, want %d", ds.Name, n, ds.Grid/2)
		}
		return nil
	}); ok {
		s.tally.ops++
		s.tally.opIn += s.m.code.Size + ds.Size
		s.tally.opOut += int64(want)
	}
}

// ---------- ingest ----------

// ingestStep archives a new result file on its simulation's host and
// autocommits the linked row; every 4th step it renders that
// simulation's result page.
func (s *session) ingestStep() {
	sim := s.sims[s.r.Intn(len(s.sims))]
	s.seq++
	f := &fileRow{
		Name: fmt.Sprintf("%s-I%d%05d.DAT", sim.Key, s.id, s.seq), Sim: sim.Key, Timestep: s.seq,
		Measurement: measurements[s.r.Intn(len(measurements))], Format: "DAT",
		Host: sim.Host, Path: fmt.Sprintf("/ingest/%s/i%d-%05d.dat", sim.Key, s.id, s.seq),
	}
	data := make([]byte, logUniformKB(s.r, s.m.sz.IngestMinKB, s.m.sz.IngestMaxKB))
	s.r.Read(data)
	f.Size, f.Sum = int64(len(data)), sha256.Sum256(data)

	s.tally.attempted++
	start := time.Now()
	got, err := s.d.a.ArchiveFile(f.Host, f.Path, bytes.NewReader(data))
	if err == nil && got != f.url() {
		err = fmt.Errorf("archived at %s, want %s", got, f.url())
	}
	if err == nil {
		_, err = s.d.a.DB.Exec(insertResultSQL, resultArgs(f)...)
	}
	dur := time.Since(start)
	if err != nil {
		s.tally.fail("ingest %s: %v", f.Name, err)
		return
	}
	s.acked[sim.Key] = append(s.acked[sim.Key], f)
	s.tally.ingests++
	s.keep(kIngest, dur)
	if s.seq%4 != 0 {
		return
	}
	want := append(append([]*fileRow(nil), s.m.bySim[sim.Key]...), s.acked[sim.Key]...)
	path := "/browse?" + url.Values{"mode": {"pk"}, "table": {"RESULT_FILE"}, "col": {"SIMULATION_KEY"}, "value": {sim.Key}}.Encode()
	if _, ok := s.request(kPage, "GET", path, nil, func(b []byte) error { return checkRows(b, want, true, false) }); ok {
		s.tally.pages++
		s.tally.cells += int64(len(want))
	}
}

// verifyIngest reopens the archive from its directory and checks that
// every acknowledged row is present with its DATALINK and that its file
// is linked on its host. It returns one error per missing row.
func verifyIngest(d *deployment, ss []*session) (checked int, errs []error) {
	if err := d.reopen(); err != nil {
		return 0, []error{err}
	}
	rows, err := d.a.DB.Query(`SELECT FILE_NAME, DOWNLOAD_RESULT FROM RESULT_FILE`)
	if err != nil {
		return 0, []error{err}
	}
	have := map[string]string{}
	for _, r := range rows.Data {
		have[r[0].Str()] = r[1].Str()
	}
	for _, s := range ss {
		for _, fs := range s.acked {
			for _, f := range fs {
				checked++
				if have[f.Name] != f.url() {
					errs = append(errs, fmt.Errorf("acknowledged row %s missing after reopen (have %q)", f.Name, have[f.Name]))
					continue
				}
				h, _ := d.a.Host(f.Host)
				fi, err := h.StatFile(f.Path)
				if err != nil || !fi.Linked || fi.Size != f.Size {
					errs = append(errs, fmt.Errorf("file %s not linked on its host after reopen (%+v, %v)", f.url(), fi, err))
				}
			}
		}
	}
	return checked, errs
}
