package joblog

// The segment store: sealed immutable segments plus a small mutable
// tail, so the log can grow while queries run against a consistent
// snapshot.
//
// Appends land in the tail; once the tail reaches the seal threshold it
// is sealed into a segment that never changes again. A sealed segment
// precomputes everything expensive and keeps it forever:
//
//   - its wire form and content hash (HashSlice over the records with a
//     nil intern table) — the shard layer ships segments as hashed
//     LogSlices, so a worker that cached a sealed segment's decoded form
//     never receives its bytes again, no matter how much the log grows;
//   - its columnar planes, built against the store's shared append-only
//     intern table so symbol IDs across segments are exactly the IDs a
//     whole-log fresh build would assign (segments seal in record order,
//     so first-appearance order is preserved);
//   - its per-field sorted indexes (memoized lazily on the segment's
//     view) and attribute statistics (domains, numeric ranges).
//
// Snapshot() assembles the current watermark into an ordinary *Log whose
// memoized views are stitched from the per-segment precomputations
// instead of rebuilt from scratch: planes are memcpy'd at segment
// offsets, bitmaps are blitted, domains and ranges merge, and the
// column sorted index k-way merges the per-segment permutations. The
// assembled log is byte-identical to a fresh Log holding the same
// records — pinned by TestStoreSnapshotEquivalence — so every consumer
// (the explainer, the planners, the baselines) works on snapshots
// unchanged.
//
// Concurrency: every Store method is safe for concurrent use. Snapshots
// are immutable once built (they own a private intern copy, so tail
// growth never races a reader) and are memoized per generation, so
// query-heavy callers pay assembly once per watermark.

import (
	"fmt"
	"math"
	"sort"
	"sync"
)

// DefaultSealThreshold is the segment size NewStore uses when the caller
// passes a non-positive threshold. Large enough that per-segment fixed
// costs (hash, wire form, index memos) amortize; small enough that the
// mutable tail — the only part whose slice re-ships on every append —
// stays cheap to ship.
const DefaultSealThreshold = 2048

// Store is a growable job log: sealed immutable segments plus a mutable
// tail. Records handed to Append are owned by the store and must not be
// mutated afterwards — segments are immutable by contract, and their
// content hashes are computed once at seal time.
type Store struct {
	mu     sync.Mutex
	schema *Schema
	sealN  int
	// in is the shared append-only intern table: segments seal in record
	// order and intern their nominal cells sequentially, so per-segment
	// symbol planes concatenate to exactly what a whole-log build
	// assigns. Snapshots copy it (extended with tail cells) so readers
	// never observe growth.
	in     *Intern
	sealed []*segment
	tail   []*Record
	// gen is the watermark: one tick per append (and per forced seal),
	// mirrored into every snapshot taken at that point.
	gen uint64

	snap    *Snapshot
	snapGen uint64

	// ixMemo memoizes, per field, the merged sorted permutation of the
	// sealed-segment prefix (see sealedPermFor). Sealing is append-only,
	// so a later watermark's prefix extends an earlier one: the k-way
	// merge that used to rerun for every snapshot now resumes from the
	// memo and only folds in newly-sealed segments. Guarded by ixMu, not
	// mu — the merge runs lazily on first SortedIndex use, long after the
	// snapshot was assembled and the store lock released.
	ixMu   sync.Mutex
	ixMemo map[int]*sealedPerm
}

// sealedPerm is the memoized merge of the first nSegs sealed segments'
// sorted permutations for one field: global rows ordered by (plane
// value, row), with the prefix's presence summary. perm is never
// mutated after publication — extensions allocate a new slice — so a
// ColIndex may alias it across snapshots.
type sealedPerm struct {
	nSegs    int
	perm     []int32
	nPresent int
	hasNaN   bool
}

// segment is one sealed, immutable run of records.
type segment struct {
	start int // global index of recs[0]
	recs  []*Record
	wire  WireLog
	hash  string
	// cols is the segment's columnar view, planes indexed by local row;
	// its intern pointer is the store's shared table. SortedIndex memos
	// accumulate on it and stay warm for the segment's lifetime.
	cols *Columns
	// domains[f] is the sorted distinct nominal values of field f (nil
	// for numeric fields); ranges[f] summarizes field f's numeric cells
	// (zero value for nominal fields).
	domains [][]string
	ranges  []segRange
}

// segRange summarizes one field's numeric cells within a part so parts
// merge to exactly what Log.NumericRange's sequential scan produces:
// that scan seeds min/max from the first numeric cell, so a leading NaN
// poisons the result while a mid-stream NaN is inert — the merge needs
// to know whether the part's first numeric cell was NaN, separately from
// its non-NaN extrema.
type segRange struct {
	hasNum       bool // any numeric cell at all
	firstNaN     bool // the part's first numeric cell was NaN
	nnOK         bool // any non-NaN numeric cell
	nnMin, nnMax float64
}

// NewStore returns an empty store over the schema. sealThreshold is the
// tail size at which a segment seals; non-positive selects
// DefaultSealThreshold.
func NewStore(schema *Schema, sealThreshold int) *Store {
	if sealThreshold <= 0 {
		sealThreshold = DefaultSealThreshold
	}
	return &Store{schema: schema, sealN: sealThreshold, in: newIntern()}
}

// Schema returns the store's schema.
func (s *Store) Schema() *Schema { return s.schema }

// Len returns the number of records (sealed plus tail).
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lenLocked()
}

func (s *Store) lenLocked() int {
	n := len(s.tail)
	if k := len(s.sealed); k > 0 {
		last := s.sealed[k-1]
		n += last.start + len(last.recs)
	}
	return n
}

// Gen returns the store's watermark: a monotonic counter ticked by every
// append. Snapshot results are reproducible per watermark.
func (s *Store) Gen() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.gen
}

// SealedSegments returns the number of sealed segments.
func (s *Store) SealedSegments() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.sealed)
}

// TailLen returns the number of records in the mutable tail.
func (s *Store) TailLen() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.tail)
}

// Append adds a record after validating its width against the schema,
// sealing a new segment when the tail reaches the threshold.
func (s *Store) Append(r *Record) error {
	if len(r.Values) != s.schema.Len() {
		return fmt.Errorf("joblog: record %q has %d values, schema has %d fields",
			r.ID, len(r.Values), s.schema.Len())
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.tail = append(s.tail, r)
	s.gen++
	if len(s.tail) >= s.sealN {
		s.sealLocked()
	}
	return nil
}

// MustAppend is Append for construction code where a width mismatch is a
// programming error.
func (s *Store) MustAppend(r *Record) {
	if err := s.Append(r); err != nil {
		panic(err)
	}
}

// Seal force-seals the current tail into a segment regardless of the
// threshold (a no-op on an empty tail) — collectors call it at the end
// of a batch so the whole ingest becomes cache-stable.
func (s *Store) Seal() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.tail) == 0 {
		return
	}
	s.sealLocked()
	s.gen++
}

func (s *Store) sealLocked() {
	start := s.lenLocked() - len(s.tail)
	recs := s.tail
	s.tail = nil
	segLog := &Log{Schema: s.schema, Records: recs}
	wire := WireSlice(s.schema, recs)
	seg := &segment{
		start: start,
		recs:  recs,
		wire:  wire,
		hash:  HashSlice(wire, nil),
		cols:  buildColumnsWith(segLog, s.in),
	}
	seg.domains, seg.ranges = scanPartStats(s.schema, recs)
	s.sealed = append(s.sealed, seg)
}

// SegmentView describes one shippable unit of a snapshot: a contiguous
// run of records, its global start index, and its content hash (the
// HashSlice of Records with a nil intern table). Sealed views keep their
// hash forever across appends; the tail view's hash changes with every
// append and is the only slice that re-ships.
type SegmentView struct {
	Start   int
	Hash    string
	Records WireLog
	Sealed  bool
}

// Len returns the number of records in the view.
func (v SegmentView) Len() int { return len(v.Records.Records) }

// Snapshot is an immutable view of the store at one watermark.
type Snapshot struct {
	log  *Log
	segs []SegmentView
	gen  uint64
}

// Log returns the snapshot's assembled log. Its columnar view, sorted
// indexes, and attribute statistics are pre-installed from the
// per-segment precomputations; it behaves exactly like a fresh Log over
// the same records.
func (sn *Snapshot) Log() *Log { return sn.log }

// Segments returns the snapshot's shippable views in record order:
// every sealed segment, then the tail (if non-empty). Callers must not
// mutate the result.
func (sn *Snapshot) Segments() []SegmentView { return sn.segs }

// Segments returns the shippable segment views of a log assembled by
// Store.Snapshot, in record order, or nil for a flat log. The views
// live on the snapshot's columnar view, so a snapshot log mutated
// afterwards (a new generation) reports none.
func (l *Log) Segments() []SegmentView { return l.Columns().segs }

// Gen returns the watermark the snapshot was taken at.
func (sn *Snapshot) Gen() uint64 { return sn.gen }

// Len returns the number of records in the snapshot.
func (sn *Snapshot) Len() int { return len(sn.log.Records) }

// Snapshot returns the store's current watermark as an immutable
// queryable view, memoized per generation: repeated calls between
// appends return the same snapshot.
func (s *Store) Snapshot() *Snapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.snap != nil && s.snapGen == s.gen {
		return s.snap
	}
	s.snap = s.buildSnapshotLocked()
	s.snapGen = s.gen
	return s.snap
}

func (s *Store) buildSnapshotLocked() *Snapshot {
	n := s.lenLocked()
	recs := make([]*Record, 0, n)
	for _, seg := range s.sealed {
		recs = append(recs, seg.recs...)
	}
	tailStart := len(recs)
	recs = append(recs, s.tail...)

	views := make([]SegmentView, 0, len(s.sealed)+1)
	for _, seg := range s.sealed {
		views = append(views, SegmentView{Start: seg.start, Hash: seg.hash, Records: seg.wire, Sealed: true})
	}
	if len(s.tail) > 0 {
		wire := WireSlice(s.schema, s.tail)
		views = append(views, SegmentView{Start: tailStart, Hash: HashSlice(wire, nil), Records: wire})
	}

	log := &Log{Schema: s.schema, Records: recs}
	cols := s.assembleColumnsLocked(log, tailStart)
	cols.segs = views
	log.installColumns(cols)
	domains, ranges := s.mergeStatsLocked()
	log.installStats(domains, ranges)
	return &Snapshot{log: log, segs: views, gen: s.gen}
}

// assembleColumnsLocked stitches the snapshot's columnar view: sealed
// planes are memcpy'd at their segment offsets, sealed bitmaps are
// blitted, and tail cells are filled directly. The view owns a private
// copy of the shared intern table extended with the tail's nominal
// cells in record order — exactly the IDs a fresh whole-log build
// assigns, and isolated from future intern growth.
func (s *Store) assembleColumnsLocked(l *Log, tailStart int) *Columns {
	n := len(l.Records)
	priv := internFromStrings(s.in.Strings())
	c := &Columns{log: l, n: n, intern: priv, cols: make([]Col, s.schema.Len())}
	for f := 0; f < s.schema.Len(); f++ {
		col := &c.cols[f]
		col.Kind = s.schema.Field(f).Kind
		col.Miss = NewBitmap(n)
		if col.Kind == Numeric {
			col.Num = make([]float64, n)
		} else {
			col.Sym = make([]uint32, n)
		}
	}
	for _, seg := range s.sealed {
		m := len(seg.recs)
		for f := range c.cols {
			dst, src := &c.cols[f], seg.cols.Col(f)
			if dst.Kind == Numeric {
				copy(dst.Num[seg.start:seg.start+m], src.Num)
			} else {
				copy(dst.Sym[seg.start:seg.start+m], src.Sym)
			}
			dst.Miss.BlitFrom(src.Miss, seg.start, m)
			if src.HasAlien {
				if dst.alien == nil {
					dst.alien = NewBitmap(n)
				}
				dst.alien.BlitFrom(src.alien, seg.start, m)
				dst.HasAlien = true
			}
		}
	}
	for i, r := range s.tail {
		row := tailStart + i
		for f := range c.cols {
			col := &c.cols[f]
			v := r.Values[f]
			if v.Kind == Missing {
				col.Miss.SetBit(row)
				continue
			}
			if v.Kind != col.Kind {
				if col.alien == nil {
					col.alien = NewBitmap(n)
				}
				col.alien.SetBit(row)
				col.HasAlien = true
			}
			if col.Kind == Numeric {
				col.Num[row] = v.Num
			} else {
				col.Sym[row] = priv.intern(v.Str)
			}
		}
	}
	// The sorted-index hook merges per-segment permutations instead of
	// re-sorting the whole plane. It captures an immutable copy of the
	// segment list — the hook may run long after the store lock is
	// released, and sealed segments never change.
	segs := append([]*segment(nil), s.sealed...)
	c.buildIndex = func(f int) *ColIndex { return s.mergedIndex(c, segs, tailStart, f) }
	// The equality-bitmap hook blits per-segment bitmaps — memoized on
	// the sealed segments, so they survive appends — and scans only the
	// tail. Symbol IDs are valid across views because the shared intern
	// is append-only and every view copies it: a constant first seen in a
	// later tail gets an ID beyond every sealed plane's range and simply
	// matches nothing there.
	c.buildEqRows = func(key eqRowsKey) Bitmap {
		out := NewBitmap(n)
		for _, seg := range segs {
			out.BlitFrom(seg.cols.equalPlaneRows(key), seg.start, len(seg.recs))
		}
		col := c.Col(key.f)
		if col.Kind == Numeric {
			x := math.Float64frombits(key.bits)
			for i := tailStart; i < n; i++ {
				if !col.Miss.Get(i) && col.Num[i] == x {
					out.SetBit(i)
				}
			}
		} else {
			id := uint32(key.bits)
			for i := tailStart; i < n; i++ {
				if !col.Miss.Get(i) && col.Sym[i] == id {
					out.SetBit(i)
				}
			}
		}
		return out
	}
	return c
}

// planeLess orders two global rows of a view by (plane value, row) —
// exactly buildColIndex's sort order.
func planeLess(col *Col, a, b int32) bool {
	if col.Kind == Numeric {
		if va, vb := col.Num[a], col.Num[b]; va != vb {
			return va < vb
		}
	} else {
		if va, vb := col.Sym[a], col.Sym[b]; va != vb {
			return va < vb
		}
	}
	return a < b
}

// mergePerms merges two (value, row)-sorted global-row permutations,
// adding bOff to b's entries. The result is freshly allocated (nil when
// both inputs are empty) so memoized inputs are never mutated.
func mergePerms(col *Col, a, b []int32, bOff int32) []int32 {
	if len(a) == 0 && len(b) == 0 {
		return nil
	}
	out := make([]int32, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if rb := b[j] + bOff; planeLess(col, rb, a[i]) {
			out = append(out, rb)
			j++
		} else {
			out = append(out, a[i])
			i++
		}
	}
	out = append(out, a[i:]...)
	for ; j < len(b); j++ {
		out = append(out, b[j]+bOff)
	}
	return out
}

// sealedPermFor returns the merged sorted permutation of the snapshot's
// sealed prefix, memoized on the store across watermarks: because
// sealing is append-only, a later snapshot's prefix extends an earlier
// one, so the merge resumes from the memo and folds in only the
// newly-sealed segments instead of re-running the k-way merge from
// scratch. Sealed rows are bit-identical in every assembled view, so a
// permutation built against one snapshot's planes is valid for all
// later ones. An old snapshot whose lazy hook fires after the memo has
// advanced past its own prefix rebuilds locally and leaves the memo
// alone. The merge itself runs outside ixMu so concurrent fields (or
// racing snapshots, which at worst duplicate work) never serialize on
// the per-segment index builds.
func (s *Store) sealedPermFor(c *Columns, segs []*segment, f int) sealedPerm {
	col := c.Col(f)
	s.ixMu.Lock()
	var cur sealedPerm
	if memo := s.ixMemo[f]; memo != nil && memo.nSegs <= len(segs) {
		cur = *memo
	}
	s.ixMu.Unlock()
	if cur.nSegs == len(segs) {
		return cur
	}
	for _, seg := range segs[cur.nSegs:] {
		// The segment's own sorted index is memoized on the sealed segment
		// and survives for the segment's lifetime.
		six := seg.cols.SortedIndex(f)
		cur.nPresent += six.NPresent
		cur.hasNaN = cur.hasNaN || six.HasNaN
		cur.perm = mergePerms(col, cur.perm, six.Perm, int32(seg.start))
		cur.nSegs++
	}
	s.ixMu.Lock()
	if old := s.ixMemo[f]; old == nil || old.nSegs < cur.nSegs {
		if s.ixMemo == nil {
			s.ixMemo = make(map[int]*sealedPerm)
		}
		stored := cur
		s.ixMemo[f] = &stored
	}
	s.ixMu.Unlock()
	return cur
}

// mergedIndex builds field f's ColIndex for an assembled view by
// two-way merging the store-memoized sealed-prefix permutation (see
// sealedPermFor) with a freshly-sorted tail part. The result is
// element-for-element what buildColIndex produces on the whole view,
// because both order by (plane value, global row).
func (s *Store) mergedIndex(c *Columns, segs []*segment, tailStart, f int) *ColIndex {
	col := c.Col(f)
	ix := &ColIndex{Min: math.NaN(), Max: math.NaN(), col: col}
	sp := s.sealedPermFor(c, segs, f)
	ix.NPresent = sp.nPresent
	ix.HasNaN = sp.hasNaN
	var tailPerm []int32
	for i := tailStart; i < c.Len(); i++ {
		if col.Miss.Get(i) {
			continue
		}
		ix.NPresent++
		if col.Kind == Numeric && math.IsNaN(col.Num[i]) {
			ix.HasNaN = true
			continue
		}
		tailPerm = append(tailPerm, int32(i))
	}
	sort.Slice(tailPerm, func(a, b int) bool { return planeLess(col, tailPerm[a], tailPerm[b]) })
	switch {
	case len(tailPerm) == 0:
		// Alias the memoized prefix (read-only by contract); nil when the
		// column has no indexable rows, exactly as buildColIndex's
		// append-never-called path leaves it.
		ix.Perm = sp.perm
	case len(sp.perm) == 0:
		ix.Perm = tailPerm
	default:
		ix.Perm = mergePerms(col, sp.perm, tailPerm, 0)
	}
	if col.Kind == Numeric && len(ix.Perm) > 0 {
		ix.Min = col.Num[ix.Perm[0]]
		ix.Max = col.Num[ix.Perm[len(ix.Perm)-1]]
	}
	return ix
}

// scanPartStats computes one part's attribute statistics from its boxed
// records: per-field sorted distinct nominal values and the segRange
// numeric summary. Boxed scans make alien cells (value kind disagreeing
// with the schema kind) behave exactly as Log.Domain/NumericRange's own
// boxed scans do.
func scanPartStats(schema *Schema, recs []*Record) ([][]string, []segRange) {
	domains := make([][]string, schema.Len())
	ranges := make([]segRange, schema.Len())
	for f := 0; f < schema.Len(); f++ {
		switch schema.Field(f).Kind {
		case Nominal:
			seen := make(map[string]bool)
			for _, r := range recs {
				if v := r.Values[f]; v.Kind == Nominal {
					seen[v.Str] = true
				}
			}
			out := make([]string, 0, len(seen))
			for s := range seen {
				out = append(out, s)
			}
			sort.Strings(out)
			domains[f] = out
		case Numeric:
			rg := &ranges[f]
			for _, r := range recs {
				v := r.Values[f]
				if v.Kind != Numeric {
					continue
				}
				if !rg.hasNum {
					rg.hasNum = true
					rg.firstNaN = math.IsNaN(v.Num)
				}
				if math.IsNaN(v.Num) {
					continue
				}
				if !rg.nnOK {
					rg.nnOK = true
					rg.nnMin, rg.nnMax = v.Num, v.Num
					continue
				}
				if v.Num < rg.nnMin {
					rg.nnMin = v.Num
				}
				if v.Num > rg.nnMax {
					rg.nnMax = v.Num
				}
			}
		}
	}
	return domains, ranges
}

// mergeStatsLocked merges per-segment statistics with a tail scan into
// the whole-snapshot maps installStats expects.
func (s *Store) mergeStatsLocked() (map[string][]string, map[string]numericRange) {
	tailDom, tailRng := scanPartStats(s.schema, s.tail)
	domains := make(map[string][]string)
	ranges := make(map[string]numericRange)
	for f := 0; f < s.schema.Len(); f++ {
		fld := s.schema.Field(f)
		switch fld.Kind {
		case Nominal:
			seen := make(map[string]bool)
			for _, seg := range s.sealed {
				for _, v := range seg.domains[f] {
					seen[v] = true
				}
			}
			for _, v := range tailDom[f] {
				seen[v] = true
			}
			out := make([]string, 0, len(seen))
			for v := range seen {
				out = append(out, v)
			}
			sort.Strings(out)
			domains[fld.Name] = out
		case Numeric:
			parts := make([]segRange, 0, len(s.sealed)+1)
			for _, seg := range s.sealed {
				parts = append(parts, seg.ranges[f])
			}
			parts = append(parts, tailRng[f])
			ranges[fld.Name] = foldRanges(parts)
		}
	}
	return domains, ranges
}

// foldRanges merges part summaries (in record order) to the exact
// result of Log.NumericRange's sequential scan: a NaN as the very first
// numeric cell poisons min and max; otherwise NaNs are inert and the
// result is the running min/max over non-NaN cells.
func foldRanges(parts []segRange) numericRange {
	for _, p := range parts {
		if !p.hasNum {
			continue
		}
		if p.firstNaN {
			return numericRange{min: math.NaN(), max: math.NaN(), ok: true}
		}
		break
	}
	out := numericRange{}
	for _, p := range parts {
		if !p.nnOK {
			continue
		}
		if !out.ok {
			out = numericRange{min: p.nnMin, max: p.nnMax, ok: true}
			continue
		}
		if p.nnMin < out.min {
			out.min = p.nnMin
		}
		if p.nnMax > out.max {
			out.max = p.nnMax
		}
	}
	return out
}
