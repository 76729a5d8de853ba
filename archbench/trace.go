package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/dlfs"
	"repro/internal/med"
	"repro/internal/sqldb"
	"repro/internal/sqltypes"
)

// spanKind names the seam a span was recorded at.
type spanKind uint8

const (
	spClient  spanKind = iota // a session's request, send → last byte
	spWeb                     // the webui handler
	spSelect                  // one SELECT, from the engine's statement trace
	spExec                    // one DML statement, likewise
	spMed                     // a LinkController call into the SQL/MED coordinator
	spHost                    // a core.FileHost call on the archive side
	spRPC                     // an archive-side dlfs RPC, send → last byte
	spGateway                 // the fs2 replication gateway's handler
	spMember                  // a gateway → member dlfs RPC
	numSpanKinds
)

var spanKindNames = [numSpanKinds]string{"client", "webui", "sql.select", "sql.exec", "med", "host", "dlfs.rpc", "gateway", "member.rpc"}

// span is one timed call at a layer boundary. Times are nanoseconds
// since the tracer started. parent is the id of the handler span the
// call ran under when its request context says so, else 0.
type span struct {
	id, parent int64
	kind       spanKind
	route      string
	start, end int64
	bytes      int64
}

func (s span) dur() int64 { return s.end - s.start }

// sqlTotals aggregates what the engine's statement traces report
// beyond time.
type sqlTotals struct {
	selectRows, heapReads  int64
	commits                int64
	fsyncWaitNs, latchWait int64
}

// tracer keeps spans in memory while recording is on. Wrappers around
// the program's public seams feed it; nothing inside the program is
// changed.
type tracer struct {
	t0     time.Time
	on     atomic.Bool
	nextID atomic.Int64
	// opGate makes each operation run (POST /oprun) exclusive of every
	// other session request, so the calls inside its handler span are
	// its own. Sessions take it only in traced runs.
	opGate sync.RWMutex

	mu    sync.Mutex
	spans []span
	sql   sqlTotals
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

func (t *tracer) add(s span) {
	if !t.on.Load() {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// record adds a span of kind/route that started at start and ends now.
func (t *tracer) record(kind spanKind, route string, start, bytes int64) {
	t.add(span{kind: kind, route: route, start: start, end: t.now(), bytes: bytes})
}

// writeSpans writes the recorded spans as tab-separated lines.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id\tparent\tlayer\troute\tstart_ns\tend_ns\tbytes")
	t.mu.Lock()
	for _, s := range t.spans {
		fmt.Fprintf(w, "%d\t%d\t%s\t%s\t%d\t%d\t%d\n", s.id, s.parent, spanKindNames[s.kind], s.route, s.start, s.end, s.bytes)
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ---------- handlers ----------

type spanKey struct{}

// handler wraps an http.Handler, recording one span per request and
// passing the span's id down in the request context.
func (t *tracer) handler(kind spanKind, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := t.nextID.Add(1)
		start := t.now()
		h.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), spanKey{}, id)))
		t.add(span{id: id, kind: kind, route: r.URL.Path, start: start, end: t.now()})
	})
}

// ---------- dlfs RPCs ----------

// dlfsRoute names a dlfs RPC by what it does.
func dlfsRoute(r *http.Request) string {
	p := r.URL.Path
	switch {
	case strings.HasPrefix(p, "/files/"):
		if r.Method == http.MethodPut {
			return "put"
		}
		return "read"
	case strings.HasPrefix(p, "/dlfm/"):
		switch v := strings.TrimPrefix(p, "/dlfm/"); v {
		case "stat", "prepare", "commit", "abort":
			return v
		}
	}
	return "other" // health probes, link listings, renames, removals
}

type tracedRT struct {
	t    *tracer
	kind spanKind
	base http.RoundTripper
}

func (t *tracer) roundTripper(kind spanKind, base http.RoundTripper) http.RoundTripper {
	return tracedRT{t: t, kind: kind, base: base}
}

// RoundTrip records the RPC from send to the last response byte (the
// span ends when the body is drained or closed).
func (rt tracedRT) RoundTrip(req *http.Request) (*http.Response, error) {
	parent, _ := req.Context().Value(spanKey{}).(int64)
	s := span{parent: parent, kind: rt.kind, route: dlfsRoute(req), start: rt.t.now()}
	var sent *countingReader
	if req.Body != nil && req.Body != http.NoBody {
		// Count the bytes sent on a copy: a RoundTripper must not
		// modify the caller's request.
		sent = &countingReader{r: req.Body}
		body := req.Body
		req = req.Clone(req.Context())
		req.Body = struct {
			io.Reader
			io.Closer
		}{sent, body}
	}
	resp, err := rt.base.RoundTrip(req)
	if err != nil {
		s.end = rt.t.now()
		rt.t.add(s)
		return nil, err
	}
	if sent != nil {
		s.bytes = sent.n.Load()
	}
	resp.Body = &spanBody{rc: resp.Body, t: rt.t, s: s, recv: s.route == "read"}
	return resp, nil
}

type countingReader struct {
	r io.Reader
	n atomic.Int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n.Add(int64(n))
	return n, err
}

// spanBody ends its span at EOF or Close, whichever comes first. For
// reads, the span's bytes are the body bytes received.
type spanBody struct {
	rc   io.ReadCloser
	t    *tracer
	s    span
	recv bool
	n    int64
	once sync.Once
}

func (b *spanBody) finish() {
	b.once.Do(func() {
		b.s.end = b.t.now()
		if b.recv {
			b.s.bytes = b.n
		}
		b.t.add(b.s)
	})
}

func (b *spanBody) Read(p []byte) (int, error) {
	n, err := b.rc.Read(p)
	b.n += int64(n)
	if err == io.EOF {
		b.finish()
	}
	return n, err
}

func (b *spanBody) Close() error {
	err := b.rc.Close()
	b.finish()
	return err
}

// ---------- core.FileHost ----------

// tracedHost wraps the archive's handle on one file host.
type tracedHost struct {
	core.FileHost
	t *tracer
}

func (h tracedHost) Prepare(tx uint64, op med.LinkOp) error {
	start := h.t.now()
	err := h.FileHost.Prepare(tx, op)
	h.t.record(spHost, "prepare", start, 0)
	return err
}

func (h tracedHost) Commit(tx uint64) error {
	start := h.t.now()
	err := h.FileHost.Commit(tx)
	h.t.record(spHost, "commit", start, 0)
	return err
}

func (h tracedHost) Abort(tx uint64) error {
	start := h.t.now()
	err := h.FileHost.Abort(tx)
	h.t.record(spHost, "abort", start, 0)
	return err
}

func (h tracedHost) EnsureLinked(path string, opts sqltypes.DatalinkOptions) error {
	start := h.t.now()
	err := h.FileHost.EnsureLinked(path, opts)
	h.t.record(spHost, "ensure", start, 0)
	return err
}

func (h tracedHost) StatFile(path string) (dlfs.FileInfo, error) {
	start := h.t.now()
	fi, err := h.FileHost.StatFile(path)
	h.t.record(spHost, "stat", start, 0)
	return fi, err
}

func (h tracedHost) PutFile(path string, r io.Reader) error {
	start := h.t.now()
	cr := &countingReader{r: r}
	err := h.FileHost.PutFile(path, cr)
	h.t.record(spHost, "put", start, cr.n.Load())
	return err
}

// OpenFile's span lasts until the caller drains or closes the file.
func (h tracedHost) OpenFile(path, token string) (io.ReadCloser, error) {
	s := span{kind: spHost, route: "read", start: h.t.now()}
	rc, err := h.FileHost.OpenFile(path, token)
	if err != nil {
		s.end = h.t.now()
		h.t.add(s)
		return nil, err
	}
	return &spanBody{rc: rc, t: h.t, s: s, recv: true}, nil
}

// ---------- sqldb.LinkController ----------

// tracedLinks wraps the SQL/MED coordinator as the engine sees it.
type tracedLinks struct {
	lc sqldb.LinkController
	t  *tracer
}

func (l tracedLinks) PrepareLink(tx uint64, url string, opts sqltypes.DatalinkOptions) error {
	start := l.t.now()
	err := l.lc.PrepareLink(tx, url, opts)
	l.t.record(spMed, "prepare_link", start, 0)
	return err
}

func (l tracedLinks) PrepareUnlink(tx uint64, url string, opts sqltypes.DatalinkOptions) error {
	start := l.t.now()
	err := l.lc.PrepareUnlink(tx, url, opts)
	l.t.record(spMed, "prepare_unlink", start, 0)
	return err
}

func (l tracedLinks) Commit(tx uint64) error {
	start := l.t.now()
	err := l.lc.Commit(tx)
	l.t.record(spMed, "commit", start, 0)
	return err
}

func (l tracedLinks) Abort(tx uint64) error {
	start := l.t.now()
	err := l.lc.Abort(tx)
	l.t.record(spMed, "abort", start, 0)
	return err
}

// ---------- sqldb statement traces ----------

// sqlSink receives the engine's slow-query log, one JSON trace per
// statement (the threshold is set so every statement is logged), and
// turns each into a span ending when it is written.
type sqlSink struct{ t *tracer }

func (t *tracer) sqlSink() io.Writer { return sqlSink{t} }

func (s sqlSink) Write(line []byte) (int, error) {
	end := s.t.now()
	if !s.t.on.Load() {
		return len(line), nil
	}
	var tr sqldb.Trace
	if err := json.Unmarshal(line, &tr); err != nil {
		return 0, fmt.Errorf("statement trace: %w", err)
	}
	kind := spSelect
	if tr.Kind != "select" {
		kind = spExec
	}
	s.t.mu.Lock()
	s.t.spans = append(s.t.spans, span{kind: kind, start: end - tr.WallNs, end: end})
	if kind == spSelect {
		s.t.sql.selectRows += tr.Rows
		s.t.sql.heapReads += tr.HeapReads
	} else {
		s.t.sql.commits++
		s.t.sql.fsyncWaitNs += tr.FsyncWaitNs
		s.t.sql.latchWait += tr.LatchWaitNs + tr.BarrierWaitNs
	}
	s.t.mu.Unlock()
	return len(line), nil
}

// ---------- totals ----------

// spanTotals sums span counts, durations and bytes by kind and route.
type spanTotals struct {
	n, ns, bytes map[string]int64
}

func key(k spanKind, route string) string { return spanKindNames[k] + "|" + route }

func (t *tracer) totals() spanTotals {
	tot := spanTotals{n: map[string]int64{}, ns: map[string]int64{}, bytes: map[string]int64{}}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		for _, k := range []string{key(s.kind, s.route), key(s.kind, "*")} {
			tot.n[k]++
			tot.ns[k] += s.dur()
			tot.bytes[k] += s.bytes
		}
	}
	return tot
}

// within sums, per kind, the spans that lie inside a handler span of
// the given route — the children of those requests, since the webui
// calls layers below it only from its own handlers. Spans carry no
// request identity, so this is exact only for a route that runs alone:
// /oprun, behind opGate.
func (t *tracer) within(route string, kinds ...spanKind) (ns, bytes int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	var outer []span
	for _, s := range t.spans {
		if s.kind == spWeb && s.route == route {
			outer = append(outer, s)
		}
	}
	sort.Slice(outer, func(i, j int) bool { return outer[i].start < outer[j].start })
	for _, s := range t.spans {
		match := false
		for _, k := range kinds {
			match = match || s.kind == k
		}
		if !match {
			continue
		}
		// The last few handlers starting before s are the only ones
		// that can contain it: sessions never overlap themselves.
		i := sort.Search(len(outer), func(i int) bool { return outer[i].start > s.start })
		for j := i - 1; j >= 0 && j >= i-4; j-- {
			if outer[j].end >= s.end {
				ns += s.dur()
				bytes += s.bytes
				break
			}
		}
	}
	return ns, bytes
}
