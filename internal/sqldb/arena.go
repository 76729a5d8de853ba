package sqldb

import "repro/internal/sqltypes"

// Result-row arena.
//
// Plain projections historically materialised one make([]Value, ncols)
// per output row — the dominant allocation cost of the browse-style
// queries the archive UI issues constantly (~36MB and ~100k allocs per
// 100k projected rows). rowArena removes it: a bump allocator that
// carves every projected row of one statement out of a few shared
// slabs. Value structs are copied into the arena by value; string/BLOB
// payloads are immutable Go strings shared with storage, so the arena
// never needs to own byte data to stay safe.
//
// Slabs grow geometrically: the first holds arenaFirstSlab Values and
// each later one doubles, up to arenaMaxSlab. A statement returning a
// handful of rows therefore pays for one small slab, while a 100k-row
// projection needs only a few dozen full-size ones.
//
// Result rows are ordinary GC-owned memory. Nothing is pooled or
// recycled: a Rows stays valid for as long as the caller holds it, and
// a slab is reclaimed once no row carved from it is reachable.
//
// Intermediate join rows use a second, scratch arena (evalCtx.scratch).
// The projection copies values out of them, never aliases them, so a
// retained result does not pin the statement's join intermediates.
//
// A nil *rowArena falls back to make per slice: the materialise-then-
// project reference route (DB.materialiseResults) runs with nil arenas,
// as do the DML and FROM-less SELECT contexts, which never allocate
// result rows from one.

const (
	// arenaFirstSlab is the first slab's size in Value slots (2 KiB).
	arenaFirstSlab = 64
	// arenaMaxSlab caps slab growth: 8192 × 32 bytes = 256 KiB.
	arenaMaxSlab = 8192
)

// rowArena is a bump allocator for result-row value slices.
// Not safe for concurrent use: each statement execution owns its own.
type rowArena struct {
	cur  []sqltypes.Value // remaining free slots of the newest slab
	last int              // size of the newest slab; 0 before the first
}

// alloc returns a zeroed n-slot slice backed by the arena (capacity
// exactly n, so appends can never bleed into a neighbouring row).
func (a *rowArena) alloc(n int) []sqltypes.Value {
	return a.allocCap(n, n)
}

// allocCap is alloc with extra capacity (len n, cap c ≥ n): the join
// assembly builds combined rows by appending to a base prefix, and the
// reserved capacity keeps that append inside the arena region. A nil
// arena, or a request larger than the largest slab, is served by make.
func (a *rowArena) allocCap(n, c int) []sqltypes.Value {
	if c < n {
		c = n
	}
	if a == nil || c > arenaMaxSlab {
		return make([]sqltypes.Value, n, c)
	}
	if c > len(a.cur) {
		size := min(max(2*a.last, arenaFirstSlab), arenaMaxSlab)
		for size < c {
			size *= 2
		}
		a.last = size
		a.cur = make([]sqltypes.Value, size)
	}
	s := a.cur[:n:c]
	a.cur = a.cur[c:]
	return s
}
