package sqldb

import (
	"container/list"
	"fmt"
	"sync"

	"repro/internal/sqltypes"
)

// Query result cache.
//
// The archive workload the paper describes is dominated by a small set
// of hot metadata queries repeated over and over between rare ingests
// (Graywulf makes the same observation for scientific result sets). The
// result cache serves those repeats from completed, size-capped result
// sets instead of re-executing the statement. Opt-in via
// DB.SetResultCache(bytes); consulted only on the auto-commit
// Stmt.query path (explicit transactions and scripts run in latest-mode
// visibility, which must observe the transaction's own writes).
//
// Identity: an entry is keyed by statement text + the canonical
// encoding of its bound arguments (key.go) — the same identity the plan
// cache uses for the text plus the engine's canonical value identity
// for the args, including its documented far-integer collision window.
// Plans containing volatile functions (NOW / CURRENT_TIMESTAMP) are
// never cached (selectPlan.cacheable).
//
// Visibility contract (why a hit can never be a stale read): an entry
// records asOf — the snapshot the filling statement executed at — and
// each source table carries lastWrite, the newest commit stamp that
// wrote it. Both lastWrite and the global lastTS are published under
// DB.commitMu, lastWrite first (mvccRefs.commit). A lookup at snapshot
// snap serves an entry only when
//
//	ent.epoch == current schema epoch   (no DDL in between)
//	snap >= ent.asOf                    (the reader is no older)
//	every table's lastWrite <= ent.asOf (no write since the fill)
//
// Suppose a commit with stamp ts <= snap changed a source table. Its
// lastWrite >= ts was stored before lastTS advanced to ts, and snap >=
// ts was read after; so at serve time lastWrite > ent.asOf is observed
// and the entry is rejected. Writes newer than snap can only cause
// false-negative rejections — never a wrong hit. The commit hook
// (commitTx) additionally drops entries over written tables eagerly;
// that sweep reclaims memory but the serve-time check above is the
// correctness backstop, so its timing (after commitMu is released) is
// not load-bearing. DDL flushes the whole cache (flushResultCache at
// every schema-epoch bump) and the epoch check rejects any straggler.
//
// Memory: entries store one flat []Value slab per result (rows are
// subslices), with bytes estimated as rowFootprint per row plus the
// variable payload sizes (sqltypes.Value.Size). When the database has
// Options.MemoryBudget, cached bytes are charged against the same pool
// as live statement buffers — insert refuses (statement still
// succeeds, uncached) when the pool is exhausted, and every eviction,
// invalidation or flush refunds in full.
//
// Locking: mu is a leaf lock — taken under db.mu read sections (the
// lookup path) and after commitMu is released (the invalidation hook),
// never around either.

const (
	// resultCacheMaxRows caps cached result sets by row count: the cache
	// targets the hot small browse queries, not bulk exports.
	resultCacheMaxRows = 1024
	// resultCacheEntryDivisor caps one entry at capacity/divisor bytes,
	// so a single large result cannot monopolise the cache.
	resultCacheEntryDivisor = 8
)

// cacheEntry is one cached result set.
type cacheEntry struct {
	key  string // stmt text + canonical arg encoding
	stmt string // stmt text alone (AccessPath introspection)

	cols  []string
	kinds []sqltypes.Kind
	flat  []sqltypes.Value // nrows*ncols values, row-major
	ncols int
	nrows int

	bytes  int64
	asOf   uint64 // snapshot the filling statement executed at
	epoch  uint64 // schema epoch at fill time
	tables []*tableData

	elem *list.Element
}

// resultCache is the epoch- and table-version-invalidated LRU.
type resultCache struct {
	db *DB

	mu       sync.Mutex
	capBytes int64
	used     int64
	order    *list.List // front = most recently used; values are *cacheEntry
	entries  map[string]*list.Element
	// byTable indexes entries by source table so the commit hook drops
	// O(affected) entries, not O(cache).
	byTable map[*tableData]map[*cacheEntry]struct{}
	// stmts counts live entries per statement text, for AccessPath's
	// " cached" tag.
	stmts map[string]int
}

func newResultCache(db *DB, capBytes int64) *resultCache {
	return &resultCache{
		db:       db,
		capBytes: capBytes,
		order:    list.New(),
		entries:  make(map[string]*list.Element),
		byTable:  make(map[*tableData]map[*cacheEntry]struct{}),
		stmts:    make(map[string]int),
	}
}

// cacheKey builds the entry identity for a statement text and its bound
// arguments.
func cacheKey(text string, args []sqltypes.Value) string {
	if len(args) == 0 {
		return text
	}
	return text + "\x00" + encodeKey(args...)
}

// lookup returns a fresh copy of the cached result for key, valid at
// (epoch, snap), or nil on miss. Entries that fail the epoch or
// table-version check are dropped (they can never be served again);
// entries merely newer than the caller's snapshot are kept for newer
// readers. Counts a hit or miss on the metrics.
func (rc *resultCache) lookup(key string, epoch, snap uint64) *Rows {
	rc.mu.Lock()
	el, ok := rc.entries[key]
	if !ok {
		rc.mu.Unlock()
		rc.db.met.rcMisses.Inc()
		return nil
	}
	ent := el.Value.(*cacheEntry)
	if ent.epoch != epoch {
		// DDL straggler (flush raced): permanently unservable.
		rc.removeLocked(ent)
		rc.mu.Unlock()
		rc.db.met.rcMisses.Inc()
		return nil
	}
	for _, td := range ent.tables {
		if td.lastWrite.Load() > ent.asOf {
			// Written since the fill: serving it to ANY snapshot taken
			// after that write would be stale, and snapshots older than
			// the write no longer start (snapshots only move forward).
			rc.removeLocked(ent)
			rc.mu.Unlock()
			rc.db.met.rcInvalidations.Inc()
			rc.db.met.rcMisses.Inc()
			return nil
		}
	}
	if snap < ent.asOf {
		// A reader older than the fill (possible only through exotic
		// snapshot pinning): not served, not evicted.
		rc.mu.Unlock()
		rc.db.met.rcMisses.Inc()
		return nil
	}
	rc.order.MoveToFront(el)
	// Copy out under the lock: the entry may be evicted the moment it
	// is released, and callers own (and may mutate) the returned Rows.
	out := ent.materialise()
	rc.mu.Unlock()
	rc.db.met.rcHits.Inc()
	return out
}

// materialise builds a caller-owned Rows from the entry's flat slab.
// Caller holds rc.mu (reads only).
func (ent *cacheEntry) materialise() *Rows {
	cols := make([]string, len(ent.cols))
	copy(cols, ent.cols)
	kinds := make([]sqltypes.Kind, len(ent.kinds))
	copy(kinds, ent.kinds)
	out := newRows(cols, kinds)
	flat := make([]sqltypes.Value, len(ent.flat))
	copy(flat, ent.flat)
	out.Data = make([][]sqltypes.Value, ent.nrows)
	for i := 0; i < ent.nrows; i++ {
		out.Data[i] = flat[i*ent.ncols : (i+1)*ent.ncols : (i+1)*ent.ncols]
	}
	return out
}

// entryBytes estimates the retained size of a result: the per-row
// footprint (slice header + value structs) plus variable payloads.
func entryBytes(rows *Rows) int64 {
	b := int64(0)
	for _, r := range rows.Data {
		b += rowFootprint(len(r))
		for _, v := range r {
			b += int64(v.Size())
		}
	}
	return b
}

// insert stores a completed result set, charging the memory budget and
// evicting LRU entries to fit. Oversized results (rows or bytes) are
// silently skipped — the statement already succeeded. The rows are
// deep-copied: the caller owns the returned Rows and may mutate Data.
func (rc *resultCache) insert(key, stmtText string, tables []*tableData, rows *Rows, asOf, epoch uint64) {
	if len(rows.Data) > resultCacheMaxRows {
		return
	}
	bytes := entryBytes(rows)
	if bytes > rc.capBytes/resultCacheEntryDivisor {
		return
	}
	// Charge the database memory budget BEFORE accepting: cached bytes
	// compete with live statement buffers for the same pool. Refused
	// charges skip caching; the statement result is unaffected.
	if rc.db.memBudget > 0 {
		if rc.db.memUsed.Add(bytes) > rc.db.memBudget {
			rc.db.memUsed.Add(-bytes)
			return
		}
	}
	ncols := len(rows.Columns)
	ent := &cacheEntry{
		key:    key,
		stmt:   stmtText,
		cols:   append([]string(nil), rows.Columns...),
		kinds:  append([]sqltypes.Kind(nil), rows.Kinds...),
		ncols:  ncols,
		nrows:  len(rows.Data),
		bytes:  bytes,
		asOf:   asOf,
		epoch:  epoch,
		tables: tables,
	}
	ent.flat = make([]sqltypes.Value, 0, ent.nrows*ncols)
	for _, r := range rows.Data {
		ent.flat = append(ent.flat, r...)
	}

	rc.mu.Lock()
	if old, ok := rc.entries[key]; ok {
		// Raced fill of the same key: keep the newer answer.
		rc.removeLocked(old.Value.(*cacheEntry))
	}
	for rc.used+bytes > rc.capBytes {
		back := rc.order.Back()
		if back == nil {
			break
		}
		rc.removeLocked(back.Value.(*cacheEntry))
		rc.db.met.rcEvicts.Inc()
	}
	ent.elem = rc.order.PushFront(ent)
	rc.entries[key] = ent.elem
	rc.used += ent.bytes
	rc.stmts[ent.stmt]++
	for _, td := range ent.tables {
		set := rc.byTable[td]
		if set == nil {
			set = make(map[*cacheEntry]struct{})
			rc.byTable[td] = set
		}
		set[ent] = struct{}{}
	}
	rc.mu.Unlock()
}

// removeLocked unlinks an entry and refunds its bytes (cache accounting
// and, when budgeted, the database memory pool). Caller holds rc.mu.
func (rc *resultCache) removeLocked(ent *cacheEntry) {
	if ent.elem == nil {
		return
	}
	rc.order.Remove(ent.elem)
	ent.elem = nil
	delete(rc.entries, ent.key)
	rc.used -= ent.bytes
	if rc.stmts[ent.stmt]--; rc.stmts[ent.stmt] <= 0 {
		delete(rc.stmts, ent.stmt)
	}
	for _, td := range ent.tables {
		if set := rc.byTable[td]; set != nil {
			delete(set, ent)
			if len(set) == 0 {
				delete(rc.byTable, td)
			}
		}
	}
	if rc.db.memBudget > 0 {
		rc.db.memUsed.Add(-ent.bytes)
	}
}

// invalidateTables drops every entry sourced from any of the given
// tables. Called from the commit hook after the commit stamp publishes;
// see the visibility contract above for why the timing is safe.
func (rc *resultCache) invalidateTables(tds []*tableData) {
	rc.mu.Lock()
	n := 0
	for _, td := range tds {
		set := rc.byTable[td]
		for ent := range set {
			rc.removeLocked(ent)
			n++
		}
	}
	rc.mu.Unlock()
	for i := 0; i < n; i++ {
		rc.db.met.rcInvalidations.Inc()
	}
}

// flush empties the cache, refunding every charge. Called on DDL
// (schema-epoch bumps) and when the cache is disabled or replaced.
func (rc *resultCache) flush() {
	rc.mu.Lock()
	for rc.order.Len() > 0 {
		rc.removeLocked(rc.order.Back().Value.(*cacheEntry))
	}
	rc.mu.Unlock()
}

// hasStmt reports whether any live entry was filled from the given
// statement text (AccessPath's " cached" tag).
func (rc *resultCache) hasStmt(text string) bool {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	return rc.stmts[text] > 0
}

// bytesUsed reports the cache's current retained bytes (gauge).
func (rc *resultCache) bytesUsed() int64 {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	return rc.used
}

// entryCount reports how many result sets are cached (status page).
func (rc *resultCache) entryCount() int {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	return rc.order.Len()
}

// String renders a one-line summary for debugging.
func (rc *resultCache) String() string {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	return fmt.Sprintf("resultCache{entries=%d bytes=%d/%d}", rc.order.Len(), rc.used, rc.capBytes)
}
