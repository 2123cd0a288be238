package joblog

// This file implements the columnar view of a Log: one dense []float64
// per numeric field, one []uint32 of interned symbol IDs per nominal
// field, a per-field missing bitmap, and one per-log string intern table.
// The view is built lazily on first use and invalidated exactly like the
// stats memo — keyed on the log's (generation, record count), so both
// growth and mutations routed through the Log API rebuild it.
//
// The columnar engine (pxql predicate compilation, the features pair
// matrix, dtree split scoring) reads these planes instead of boxed
// Value structs: nominal comparisons become uint32 equality, numeric
// comparisons read a flat float64 slice, and missing checks are one bit.
//
// Values whose kind disagrees with their schema field ("alien" cells —
// representable because Append validates only record width) are flagged
// in a per-field bitmap; columnar consumers fall back to the boxed record
// value for flagged fields, so the view is exact even for hand-built
// pathological logs while the fast path assumes nothing it can't prove.

import (
	"sync"

	"perfxplain/internal/bitset"
)

// Bitmap is a fixed-size bitset addressed by record index — an alias of
// the shared bitset.Set, so the word layout and bit addressing exist in
// exactly one place and the batched predicate kernels can treat missing
// bitmaps and selection bitmaps uniformly.
type Bitmap = bitset.Set

// NewBitmap returns a bitmap with capacity for n bits, all clear.
func NewBitmap(n int) Bitmap { return bitset.Make(n) }

// Intern is a per-log string intern table: nominal values become dense
// uint32 symbol IDs assigned in first-appearance order, so equality of
// nominal values is integer equality and the string payload is stored
// once. IDs stay below 1<<31, keeping room for packed composites (the
// features package packs two IDs into a uint64 diff symbol).
type Intern struct {
	strs []string
	ids  map[string]uint32
}

func newIntern() *Intern {
	return &Intern{ids: make(map[string]uint32)}
}

// intern returns the ID for s, assigning the next one on first sight.
func (in *Intern) intern(s string) uint32 {
	if id, ok := in.ids[s]; ok {
		return id
	}
	id := uint32(len(in.strs))
	if id >= 1<<31 {
		panic("joblog: intern table overflow")
	}
	in.strs = append(in.strs, s)
	in.ids[s] = id
	return id
}

// Lookup returns the ID of s if it was observed in the log. Constants
// that were never logged have no ID; a compiled equality against them can
// only ever match through the not-equal operator.
func (in *Intern) Lookup(s string) (uint32, bool) {
	id, ok := in.ids[s]
	return id, ok
}

// Str decodes a symbol ID back to its string.
func (in *Intern) Str(id uint32) string { return in.strs[id] }

// Len returns the number of interned strings.
func (in *Intern) Len() int { return len(in.strs) }

// Col is one field's column: exactly one of Num or Sym is non-nil,
// matching the schema kind, plus the missing bitmap.
type Col struct {
	// Kind is the schema kind of the field.
	Kind Kind
	// Num holds v.Num per record for numeric fields (nil for nominal).
	Num []float64
	// Sym holds the interned v.Str per record for nominal fields (nil for
	// numeric).
	Sym []uint32
	// Miss flags records whose value is missing.
	Miss Bitmap
	// HasAlien is true when any non-missing cell's value kind disagrees
	// with the schema kind; consumers needing exact Value semantics
	// (base-feature equality) must fall back to Columns.Value for this
	// field. The planes are still filled (Num from v.Num, Sym from
	// interned v.Str), which is exactly what the derive comparisons read.
	HasAlien bool
	alien    Bitmap
}

// Missing reports whether record i's value is missing.
func (c *Col) Missing(i int) bool { return c.Miss.Get(i) }

// Alien reports whether record i holds a value whose kind disagrees with
// the schema kind.
func (c *Col) Alien(i int) bool { return c.HasAlien && c.alien.Get(i) }

// Columns is the columnar view of a Log at a fixed generation and
// record count.
type Columns struct {
	log    *Log
	n      int
	gen    uint64
	intern *Intern
	cols   []Col

	// buildIndex, when set, replaces buildColIndex as the builder behind
	// SortedIndex — the seam the segment store uses to assemble a
	// snapshot's per-column index by merging per-segment sorted indexes
	// instead of re-sorting the whole log (see Snapshot). The built
	// index is still memoized on the view like any other.
	buildIndex func(f int) *ColIndex

	// buildEqRows, when set, replaces the index-seek path behind
	// EqualRowsBitmap — the segment store's seam for stitching a
	// snapshot's equality bitmap from per-segment memoized bitmaps plus
	// a tail scan (see eqrows.go). Called only with resolved keys.
	buildEqRows func(key eqRowsKey) Bitmap

	// segs holds a snapshot's segment views (see Log.Segments); nil for
	// views built from a flat log.
	segs []SegmentView

	memoMu sync.Mutex
	memos  map[any]any
}

// Len returns the number of records the view covers.
func (c *Columns) Len() int { return c.n }

// Schema returns the log's schema.
func (c *Columns) Schema() *Schema { return c.log.Schema }

// Col returns the f'th field's column.
func (c *Columns) Col(f int) *Col { return &c.cols[f] }

// Intern returns the view's string intern table.
func (c *Columns) Intern() *Intern { return c.intern }

// Value returns the boxed record value — the exact-semantics fallback
// for alien cells and a convenience for code bridging both layouts.
func (c *Columns) Value(row, f int) Value { return c.log.Records[row].Values[f] }

// ID returns the row'th record's identifier.
func (c *Columns) ID(row int) string { return c.log.Records[row].ID }

// Memo returns the value cached under key, calling build to produce it
// on first use. It is the consumer-side extension point of the columnar
// view's invalidation scheme: a view is immutable and rebuilt when the
// log's generation or record count changes (see Log.Columns), so derived
// aggregates memoized here — e.g. relief's per-attribute statistics —
// are invalidated exactly when the planes themselves are, and die with
// the view. build runs under the memo lock (concurrent callers see one
// build, already-built values are returned without re-entry) and must
// not call Memo itself.
func (c *Columns) Memo(key any, build func() any) any {
	c.memoMu.Lock()
	defer c.memoMu.Unlock()
	if v, ok := c.memos[key]; ok {
		return v
	}
	if c.memos == nil {
		c.memos = make(map[any]any)
	}
	v := build()
	c.memos[key] = v
	return v
}

// memoGet peeks the memo without building — for callers whose build
// work must run outside the memo lock (e.g. equalPlaneRows, whose
// builder re-enters Memo through SortedIndex).
func (c *Columns) memoGet(key any) (any, bool) {
	c.memoMu.Lock()
	defer c.memoMu.Unlock()
	v, ok := c.memos[key]
	return v, ok
}

// Columns returns the log's columnar view, building it on first use and
// rebuilding when the log changed — generation or record count (the same
// invalidation rule as the stats memo). The returned view is immutable
// and remains valid for its build point even if the log grows afterwards.
func (l *Log) Columns() *Columns {
	l.colsMu.Lock()
	defer l.colsMu.Unlock()
	if l.colsCache != nil && l.colsCache.n == len(l.Records) && l.colsCache.gen == l.gen {
		return l.colsCache
	}
	l.colsCache = buildColumns(l)
	return l.colsCache
}

func buildColumns(l *Log) *Columns {
	return buildColumnsWith(l, newIntern())
}

// installColumns caches a pre-assembled view as the log's columnar view
// for its current generation — the segment store's snapshot assembly
// hands over planes stitched from sealed segments instead of paying a
// whole-log rebuild. The view must cover exactly the log's records.
func (l *Log) installColumns(c *Columns) {
	l.colsMu.Lock()
	defer l.colsMu.Unlock()
	c.log = l
	c.gen = l.gen
	l.colsCache = c
}

// installStats caches pre-merged per-field scan results for the log's
// current generation (the snapshot-assembly counterpart of
// installColumns). Domains and ranges must equal what the lazy scans
// would produce.
func (l *Log) installStats(domains map[string][]string, ranges map[string]numericRange) {
	l.statsMu.Lock()
	defer l.statsMu.Unlock()
	l.statsCache = &logStats{n: len(l.Records), gen: l.gen, domains: domains, ranges: ranges}
}

// buildColumnsWith builds the view over an existing intern table — empty
// for the cached Columns path, pre-seeded for ColumnsSeeded (the shard
// workers' coordinator-aligned views).
func buildColumnsWith(l *Log, in *Intern) *Columns {
	n := len(l.Records)
	c := &Columns{log: l, n: n, gen: l.gen, intern: in, cols: make([]Col, l.Schema.Len())}
	for f := 0; f < l.Schema.Len(); f++ {
		col := &c.cols[f]
		col.Kind = l.Schema.Field(f).Kind
		col.Miss = NewBitmap(n)
		if col.Kind == Numeric {
			col.Num = make([]float64, n)
		} else {
			col.Sym = make([]uint32, n)
		}
	}
	for i, r := range l.Records {
		for f := range c.cols {
			col := &c.cols[f]
			v := r.Values[f]
			if v.Kind == Missing {
				col.Miss.SetBit(i)
				continue
			}
			if v.Kind != col.Kind {
				if col.alien == nil {
					col.alien = NewBitmap(n)
				}
				col.alien.SetBit(i)
				col.HasAlien = true
			}
			if col.Kind == Numeric {
				col.Num[i] = v.Num
			} else {
				col.Sym[i] = c.intern.intern(v.Str)
			}
		}
	}
	return c
}
