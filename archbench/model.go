package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math"
	"math/rand"
	"net/url"
	"sort"
	"strings"
	"time"

	"repro/internal/turb"
)

// Host names of the two file-server hosts. fs1 is a plain file-manager
// daemon; fs2 is a replication gateway over three member daemons.
const (
	host1 = "fs1.sim:80"
	host2 = "fs2.sim:80"
)

// sizes fixes how big the generated archive and its inputs are. The
// benchmark uses fullSizes; the package tests use toy sizes.
type sizes struct {
	Authors, Sims      int
	MinFiles, MaxFiles int   // plain result files per simulation
	Grids              []int // turb dataset grid edges, drawn per simulation
	MinKB, MaxKB       int   // plain result file sizes (log-uniform)
	IngestMinKB        int   // ingested file sizes (log-uniform)
	IngestMaxKB        int
	SetupRepeats       int           // set-ups per run; setup_s is their median
	Warmup             time.Duration // untimed load before timing
	PageLimit          int           // rows per QBE result page
}

var fullSizes = sizes{
	Authors: 8, Sims: 48, MinFiles: 6, MaxFiles: 18,
	Grids: []int{16, 24, 32},
	MinKB: 1, MaxKB: 48, IngestMinKB: 2, IngestMaxKB: 128,
	SetupRepeats: 7, Warmup: 4 * time.Second, PageLimit: 20,
}

// fileRow is one RESULT_FILE row of the generated archive together with
// what the benchmark needs to check answers about it.
type fileRow struct {
	Name, Sim           string
	Timestep            int
	Measurement, Format string
	Size                int64
	Host, Path          string
	Sum                 [32]byte // sha256 of the content
	Grid                int      // grid edge of a turb dataset; 0 otherwise
	seed                int64    // content seed
	data                []byte   // content, kept for repeated set-ups
}

func (f *fileRow) url() string { return "http://" + f.Host + f.Path }

// generate makes the file's bytes from its seed and fixes its size and
// checksum.
func (f *fileRow) generate() {
	f.data = f.content()
	f.Size, f.Sum = int64(len(f.data)), sha256.Sum256(f.data)
}

func (f *fileRow) content() []byte {
	if f.Grid > 0 {
		var buf bytes.Buffer
		if _, err := turb.Generate(f.Grid, 0, f.seed).WriteTo(&buf); err != nil {
			panic(err) // writing to a bytes.Buffer cannot fail
		}
		return buf.Bytes()
	}
	b := make([]byte, f.Size)
	rand.New(rand.NewSource(f.seed)).Read(b)
	return b
}

type author struct{ Key, Name, Org string }

type simulation struct {
	Key, Author, Title string
	Grid, Timesteps    int
	Reynolds           float64
	Host               string
	Dataset            *fileRow
}

// archiveModel is the generated archive: what is loaded at set-up and
// what every answer is checked against.
type archiveModel struct {
	sz       sizes
	authors  []author
	sims     []*simulation
	files    []*fileRow // sorted by Name
	byURL    map[string]*fileRow
	bySim    map[string][]*fileRow
	simByKey map[string]*simulation
	code     *fileRow // the GetImage code package (a CODE_FILE row)
	perm     []int    // shape popularity order
}

var (
	measurements = []string{"VELOCITY", "PRESSURE", "VORTICITY", "ENERGY", "STRAIN"}
	formats      = []string{"DAT", "CSV", "HDF", "NCF"}
)

// logUniformKB draws a size in bytes, log-uniform between lo and hi KiB.
func logUniformKB(r *rand.Rand, lo, hi int) int64 {
	l, h := math.Log(float64(lo)), math.Log(float64(hi))
	return int64(math.Exp(l+r.Float64()*(h-l)) * 1024)
}

// newModel generates the archive for a seed. Simulations alternate
// between the two file hosts.
func newModel(seed int64, sz sizes) *archiveModel {
	r := rand.New(rand.NewSource(seed))
	m := &archiveModel{sz: sz, byURL: map[string]*fileRow{}, bySim: map[string][]*fileRow{}, simByKey: map[string]*simulation{}}
	m.perm = r.Perm(numShapes)
	// Every grid size gets the same number of simulations; the seed
	// decides which.
	grids := r.Perm(sz.Sims)
	for i := 0; i < sz.Authors; i++ {
		m.authors = append(m.authors, author{
			Key: fmt.Sprintf("A%04d", i), Name: fmt.Sprintf("AUTHOR %c%d", 'A'+r.Intn(26), i),
			Org: fmt.Sprintf("LAB %d", r.Intn(10)),
		})
	}
	for i := 0; i < sz.Sims; i++ {
		s := &simulation{
			Key:       fmt.Sprintf("S%04d", i),
			Author:    m.authors[r.Intn(len(m.authors))].Key,
			Title:     fmt.Sprintf("CHANNEL FLOW RUN %d", i),
			Grid:      sz.Grids[grids[i]%len(sz.Grids)],
			Timesteps: 4 + r.Intn(28),
			Reynolds:  100 + float64(r.Intn(2000)),
			Host:      []string{host1, host2}[i%2],
		}
		m.sims = append(m.sims, s)
		m.simByKey[s.Key] = s
		ds := &fileRow{
			Name: s.Key + "-TS0.TSF", Sim: s.Key, Timestep: 0, Measurement: "U,V,W,P", Format: "TSF",
			Host: s.Host, Path: fmt.Sprintf("/vol%d/%s/ts0.tsf", i%4, s.Key), Grid: s.Grid, seed: r.Int63(),
		}
		s.Dataset = ds
		m.add(ds)
		n := sz.MinFiles + r.Intn(sz.MaxFiles-sz.MinFiles+1)
		for j := 0; j < n; j++ {
			f := &fileRow{
				Name: fmt.Sprintf("%s-R%03d.DAT", s.Key, j), Sim: s.Key, Timestep: r.Intn(s.Timesteps),
				Measurement: measurements[r.Intn(len(measurements))], Format: formats[r.Intn(len(formats))],
				Size: logUniformKB(r, sz.MinKB, sz.MaxKB), Host: s.Host,
				Path: fmt.Sprintf("/vol%d/%s/r%03d.dat", i%4, s.Key, j), seed: r.Int63(),
			}
			m.add(f)
		}
	}
	sort.Slice(m.files, func(i, j int) bool { return m.files[i].Name < m.files[j].Name })
	for _, f := range m.files {
		f.generate()
	}
	m.code = &fileRow{Name: "GetImage.easl", Host: host1, Path: "/codes/getimage.easl", data: []byte(getImageCode)}
	m.code.Size, m.code.Sum = int64(len(m.code.data)), sha256.Sum256(m.code.data)
	return m
}

func (m *archiveModel) add(f *fileRow) {
	m.files = append(m.files, f)
	m.byURL[f.url()] = f
	m.bySim[f.Sim] = append(m.bySim[f.Sim], f)
}

// getImageCode is the archived GetImage post-processing code: it writes
// one slice of the dataset as a PGM image, prints the slice's range,
// and prints the component's plane-averaged profile along the axis at
// every 2nd plane, summed in the interpreter (enough interpreter work
// that the operation work directory's file churn stays a small share).
const getImageCode = `
let axis = params["slice"]
let comp = params["type"]
if (axis == nil) { axis = "z" }
if (comp == nil) { comp = "u" }
let info = datasetInfo(filename)
let n = info.n
let mid = floor(n / 2)
writeImage("slice.pgm", filename, comp, axis, mid)
let st = sliceStats(filename, comp, axis, mid)
print("slice", axis, "=", mid, "of", comp, " min", st.min, "max", st.max)
let i = 0
while (i < n) {
  let sum = 0
  for (v in loadSlice(filename, comp, axis, i)) { sum = sum + v }
  print("profile", i, sum / (n * n))
  i = i + 2
}
`

// pgmSize is the size of the GetImage output for an n-point grid: a P5
// header plus one byte per point of an n×n plane, whatever the axis.
func pgmSize(n int) int { return len(fmt.Sprintf("P5\n%d %d\n255\n", n, n)) + n*n }

// ---------- QBE form shapes ----------

// qbeColumns are the RESULT_FILE columns a form may select besides
// FILE_NAME, which every form returns.
var qbeColumns = []string{"SIMULATION_KEY", "TIMESTEP", "MEASUREMENT", "FILE_FORMAT", "FILE_SIZE", "DOWNLOAD_RESULT"}

// qbeRestrictions are the (column, operator) pairs a form may restrict.
var qbeRestrictions = []struct{ Col, Op string }{
	{"SIMULATION_KEY", "="}, {"SIMULATION_KEY", "STARTS"},
	{"TIMESTEP", "="}, {"TIMESTEP", "<"}, {"TIMESTEP", "<="}, {"TIMESTEP", ">"}, {"TIMESTEP", ">="}, {"TIMESTEP", "<>"},
	{"FILE_SIZE", "<"}, {"FILE_SIZE", "<="}, {"FILE_SIZE", ">"}, {"FILE_SIZE", ">="},
	{"MEASUREMENT", "="}, {"MEASUREMENT", "<>"}, {"MEASUREMENT", "STARTS"}, {"MEASUREMENT", "CONTAINS"},
	{"FILE_FORMAT", "="}, {"FILE_FORMAT", "<>"}, {"FILE_FORMAT", "STARTS"},
	{"FILE_NAME", "STARTS"}, {"FILE_NAME", "CONTAINS"}, {"FILE_NAME", ">="}, {"FILE_NAME", "<"},
}

// numShapes is the form population: every column subset times every
// restriction, more distinct statements than the engine's plan cache.
var numShapes = (1 << len(qbeColumns)) * len(qbeRestrictions)

// qbeForm is one submitted form: a shape plus the restriction value.
type qbeForm struct {
	Cols  []string // selected columns, FILE_NAME first
	Col   string   // restricted column
	Op    string
	Value string
	num   int64 // Value, for the numeric columns
}

func (q qbeForm) selects(col string) bool {
	for _, c := range q.Cols {
		if c == col {
			return true
		}
	}
	return false
}

// form builds the form for a shape, drawing the restriction value from
// the archive so most forms match something.
func (m *archiveModel) form(shape int, r *rand.Rand) qbeForm {
	subset, rs := shape%(1<<len(qbeColumns)), qbeRestrictions[shape>>len(qbeColumns)]
	q := qbeForm{Cols: []string{"FILE_NAME"}, Col: rs.Col, Op: rs.Op}
	for i, c := range qbeColumns {
		if subset&(1<<i) != 0 {
			q.Cols = append(q.Cols, c)
		}
	}
	f := m.files[r.Intn(len(m.files))]
	switch rs.Col {
	case "SIMULATION_KEY":
		q.Value = f.Sim
		if rs.Op == "STARTS" {
			q.Value = f.Sim[:4]
		}
	case "TIMESTEP":
		q.num = int64(f.Timestep)
		q.Value = fmt.Sprint(q.num)
	case "FILE_SIZE":
		q.num = f.Size
		q.Value = fmt.Sprint(q.num)
	case "MEASUREMENT":
		q.Value = f.Measurement
		switch rs.Op {
		case "STARTS":
			q.Value = f.Measurement[:2]
		case "CONTAINS":
			q.Value = f.Measurement[1:3]
		}
	case "FILE_FORMAT":
		q.Value = f.Format
		if rs.Op == "STARTS" {
			q.Value = f.Format[:1]
		}
	case "FILE_NAME":
		q.Value = f.Name
		switch rs.Op {
		case "STARTS":
			q.Value = f.Sim + "-R0"
		case "CONTAINS":
			q.Value = f.Name[len(f.Sim) : len(f.Sim)+4]
		}
	}
	return q
}

// query is the form's URL query string as the QBE page submits it.
func (q qbeForm) query(limit int) string {
	var b strings.Builder
	b.WriteString("table=RESULT_FILE")
	for _, c := range q.Cols {
		b.WriteString("&sel=" + c)
	}
	fmt.Fprintf(&b, "&op_%s=%s&val_%s=%s&orderby=FILE_NAME&limit=%d",
		q.Col, url.QueryEscape(q.Op), q.Col, url.QueryEscape(q.Value), limit)
	return b.String()
}

// match evaluates the form's restriction against one row.
func (q qbeForm) match(f *fileRow) bool {
	var s string
	var n int64
	numeric := false
	switch q.Col {
	case "SIMULATION_KEY":
		s = f.Sim
	case "TIMESTEP":
		n, numeric = int64(f.Timestep), true
	case "FILE_SIZE":
		n, numeric = f.Size, true
	case "MEASUREMENT":
		s = f.Measurement
	case "FILE_FORMAT":
		s = f.Format
	case "FILE_NAME":
		s = f.Name
	}
	var c int
	if numeric {
		c = cmpInt(n, q.num)
	} else {
		switch q.Op {
		case "STARTS":
			return strings.HasPrefix(s, q.Value)
		case "CONTAINS":
			return strings.Contains(s, q.Value)
		}
		c = strings.Compare(s, q.Value)
	}
	switch q.Op {
	case "=":
		return c == 0
	case "<>":
		return c != 0
	case "<":
		return c < 0
	case "<=":
		return c <= 0
	case ">":
		return c > 0
	case ">=":
		return c >= 0
	}
	return false
}

func cmpInt(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// expect returns the rows the form's result page must show, in page
// order (FILE_NAME ascending, first limit rows).
func (m *archiveModel) expect(q qbeForm, limit int) []*fileRow {
	var out []*fileRow
	for _, f := range m.files {
		if q.match(f) {
			out = append(out, f)
			if len(out) == limit {
				break
			}
		}
	}
	return out
}

// zipfShapes draws shapes Zipf-popular over the model's permutation of
// the population, so popularity is not tied to a shape's bit pattern.
type zipfShapes struct {
	perm []int
	z    *rand.Zipf
}

func (m *archiveModel) shapes(r *rand.Rand) *zipfShapes {
	return &zipfShapes{perm: m.perm, z: rand.NewZipf(r, 1.1, 10, uint64(numShapes-1))}
}

func (z *zipfShapes) next() int { return z.perm[z.z.Uint64()] }
