package sqldb

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/sqltypes"
)

// arenaFixture builds a deterministic multi-table dataset that exercises
// every result-path shape: single-table scans, index paths, joins,
// grouped and fold aggregates, sorts and top-k.
func arenaFixture(t *testing.T, db *DB) {
	t.Helper()
	mustExec(t, db, `CREATE TABLE sim (id INTEGER PRIMARY KEY, name VARCHAR(30), bucket INTEGER, score DOUBLE, ok BOOLEAN)`)
	mustExec(t, db, `CREATE TABLE run (rid INTEGER PRIMARY KEY, sim_id INTEGER, cost DOUBLE)`)
	ins, err := db.Prepare(`INSERT INTO sim VALUES (?, ?, ?, ?, ?)`)
	if err != nil {
		t.Fatalf("prepare: %v", err)
	}
	for i := 0; i < 500; i++ {
		if _, err := ins.Exec(
			sqltypes.NewInt(int64(i)),
			sqltypes.NewString(fmt.Sprintf("S%03d", i%97)),
			sqltypes.NewInt(int64(i%7)),
			sqltypes.NewDouble(float64(i)*0.25),
			sqltypes.NewBool(i%3 == 0),
		); err != nil {
			t.Fatalf("insert sim %d: %v", i, err)
		}
	}
	insRun, err := db.Prepare(`INSERT INTO run VALUES (?, ?, ?)`)
	if err != nil {
		t.Fatalf("prepare: %v", err)
	}
	for i := 0; i < 200; i++ {
		if _, err := insRun.Exec(
			sqltypes.NewInt(int64(i)),
			sqltypes.NewInt(int64(i*2%500)),
			sqltypes.NewDouble(float64(i)+0.5),
		); err != nil {
			t.Fatalf("insert run %d: %v", i, err)
		}
	}
}

// arenaShapes are the query shapes whose results must be byte-identical
// between the arena/columnar path and the legacy per-row make path.
var arenaShapes = []struct {
	name string
	sql  string
}{
	{"projection", `SELECT id, name, score FROM sim WHERE ok = TRUE`},
	{"star", `SELECT * FROM sim WHERE bucket = 3`},
	{"expr-proj", `SELECT id + 1, score * 2.0, name FROM sim WHERE id < 200`},
	{"sort", `SELECT id, name FROM sim WHERE bucket < 4 ORDER BY name, id DESC`},
	{"topk", `SELECT id, score FROM sim ORDER BY score DESC LIMIT 10`},
	{"limit-offset", `SELECT id FROM sim WHERE ok = TRUE LIMIT 25 OFFSET 5`},
	{"limit-no-order", `SELECT id, bucket FROM sim LIMIT 40`},
	{"distinct", `SELECT DISTINCT bucket FROM sim ORDER BY bucket`},
	{"group", `SELECT bucket, COUNT(*), SUM(score) FROM sim GROUP BY bucket ORDER BY bucket`},
	{"fold", `SELECT COUNT(*), MIN(score), MAX(score) FROM sim WHERE ok = TRUE`},
	{"having", `SELECT name, COUNT(*) FROM sim GROUP BY name HAVING COUNT(*) > 4 ORDER BY name`},
	{"join", `SELECT sim.id, sim.name, run.cost FROM sim, run WHERE sim.id = run.sim_id AND sim.ok = TRUE ORDER BY run.rid`},
	{"group-limit", `SELECT bucket, COUNT(*) FROM sim GROUP BY bucket ORDER BY COUNT(*) DESC LIMIT 3`},
}

func rowsMustEqual(t *testing.T, name string, got, want *Rows) {
	t.Helper()
	if len(got.Columns) != len(want.Columns) {
		t.Fatalf("%s: columns %v != %v", name, got.Columns, want.Columns)
	}
	if len(got.Data) != len(want.Data) {
		t.Fatalf("%s: %d rows, want %d", name, len(got.Data), len(want.Data))
	}
	for i := range got.Data {
		if len(got.Data[i]) != len(want.Data[i]) {
			t.Fatalf("%s row %d: width %d != %d", name, i, len(got.Data[i]), len(want.Data[i]))
		}
		for j := range got.Data[i] {
			if !got.Data[i][j].Equal(want.Data[i][j]) {
				t.Fatalf("%s row %d col %d: %s != %s", name, i, j,
					got.Data[i][j].String(), want.Data[i][j].String())
			}
		}
	}
}

// TestArenaLegacyEquivalence checks the streaming arena projection
// produces exactly the same rows as the materialise-then-project route
// with one make per row, across projections, sorts, top-k, LIMIT
// without ORDER BY (both paths scan in the same deterministic order, so
// early-stop picks identical rows), DISTINCT, joins and aggregates.
// Every arena row must have cap == len, so an append to one row can
// never write into its neighbour.
func TestArenaLegacyEquivalence(t *testing.T) {
	db := memDB(t)
	arenaFixture(t, db)
	for _, shape := range arenaShapes {
		db.materialiseResults = true
		want := mustQuery(t, db, shape.sql)
		db.materialiseResults = false
		got := mustQuery(t, db, shape.sql)
		rowsMustEqual(t, shape.name, got, want)
		for i, row := range got.Data {
			if cap(row) != len(row) {
				t.Fatalf("%s row %d: cap %d != len %d", shape.name, i, cap(row), len(row))
			}
		}
	}
}

// TestArenaEarlierResultSurvivesLaterStatements: a result stays intact
// after many later statements run and their callers scribble over
// their own rows — no statement ever hands out memory another result
// still references.
func TestArenaEarlierResultSurvivesLaterStatements(t *testing.T) {
	db := memDB(t)
	arenaFixture(t, db)

	earlier := mustQuery(t, db, `SELECT id, name, score FROM sim WHERE bucket = 2 ORDER BY id`)
	snapshot := make([][]string, len(earlier.Data))
	for i, row := range earlier.Data {
		snapshot[i] = []string{row[0].String(), row[1].String(), row[2].String()}
	}

	for i := 0; i < 50; i++ {
		r := mustQuery(t, db, `SELECT * FROM sim`)
		for ri := range r.Data {
			for ci := range r.Data[ri] {
				r.Data[ri][ci] = sqltypes.NewString("CLOBBER")
			}
		}
	}

	if len(earlier.Data) != len(snapshot) {
		t.Fatalf("earlier rows shrank: %d != %d", len(earlier.Data), len(snapshot))
	}
	for i, row := range earlier.Data {
		for j := range row {
			if row[j].String() != snapshot[i][j] {
				t.Fatalf("earlier row %d col %d corrupted: %s != %s", i, j, row[j].String(), snapshot[i][j])
			}
		}
	}
}

// TestArenaSlabGrowth pins the slab policy: the first slab holds
// arenaFirstSlab Values, each later one doubles up to arenaMaxSlab, and
// a request larger than the largest slab comes straight from make.
func TestArenaSlabGrowth(t *testing.T) {
	var a rowArena
	var sizes []int
	for i := 0; i < 40000; i++ {
		free := len(a.cur)
		row := a.alloc(3)
		if len(row) != 3 || cap(row) != 3 {
			t.Fatalf("row %d: len %d cap %d, want 3/3", i, len(row), cap(row))
		}
		if free < 3 {
			sizes = append(sizes, len(a.cur)+3)
		}
	}
	want := []int{64, 128, 256, 512, 1024, 2048, 4096, 8192, 8192}
	for i, w := range want {
		if i >= len(sizes) || sizes[i] != w {
			t.Fatalf("slab sizes %v, want prefix %v", sizes, want)
		}
	}
	before := len(a.cur)
	if big := a.alloc(arenaMaxSlab + 1); len(big) != arenaMaxSlab+1 || len(a.cur) != before {
		t.Fatalf("oversized request touched the arena: len %d, free %d -> %d", len(big), before, len(a.cur))
	}
}

// TestArenaConcurrentQueries runs many readers against the arena path
// while a writer mutates the table, under -race. Each reader verifies a
// per-row invariant (score == id * 0.25) that rows shared between
// statements would break.
func TestArenaConcurrentQueries(t *testing.T) {
	db := memDB(t)
	arenaFixture(t, db)

	stop := make(chan struct{})
	var writerWG sync.WaitGroup
	writerWG.Add(1)
	go func() {
		defer writerWG.Done()
		for i := 500; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := db.Exec(`INSERT INTO sim VALUES (?, 'W', 0, ?, FALSE)`,
				sqltypes.NewInt(int64(i)), sqltypes.NewDouble(float64(i)*0.25)); err != nil {
				t.Errorf("writer insert: %v", err)
				return
			}
		}
	}()

	const readers = 8
	var wg sync.WaitGroup
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; n < 60; n++ {
				rows, err := db.Query(`SELECT id, score FROM sim WHERE ok = TRUE ORDER BY id LIMIT 50`)
				if err != nil {
					t.Errorf("query: %v", err)
					return
				}
				for _, row := range rows.Data {
					id, score := row[0].Int(), row[1].Double()
					if score != float64(id)*0.25 {
						t.Errorf("row invariant broken: id=%d score=%v", id, score)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	writerWG.Wait()
}
