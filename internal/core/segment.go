package core

// Shard-planning layout. Every runner-backed enumeration and evaluation
// plans over one SegmentLayout derived from the log: a joblog.Store
// snapshot contributes its segment views (sealed segments keep one
// content hash forever, so worker caches stay warm across appends and
// only the tail slice re-ships on a re-query), and a flat log is a
// single segment. Specs address records globally; a worker concatenates
// the segment slices into one whole-log view and runs the same walk as
// the coordinator, so the merged output is identical at every shard
// count, seal threshold and transport.
//
// The layout also holds the coordinator's whole-log view. Specs executed
// in this process (Run) read it by reference — no wire encoding, hashing
// or decoding. The wire slices are built only when a shipping runner
// first asks for them (Wire, SlicePrefetcher), then memoized with the
// layout, which is itself memoized per log generation.

import (
	"fmt"
	"sync"

	"perfxplain/internal/joblog"
)

// SegmentLayout is the shard-planner view of a log: its segments, in
// record order, covering the log's records exactly.
type SegmentLayout struct {
	whole *SliceData           // the coordinator's view, read by reference
	views []joblog.SegmentView // nil: the flat log is one segment

	once   sync.Once
	slices []LogSlice
}

type layoutKey struct{}

// LayoutOf returns the log's shard-planning layout, memoized on its
// columnar view — i.e. once per log generation.
func LayoutOf(log *joblog.Log) *SegmentLayout {
	cols := log.Columns()
	return cols.Memo(layoutKey{}, func() any {
		return &SegmentLayout{whole: &SliceData{Log: log, Cols: cols}, views: log.Segments()}
	}).(*SegmentLayout)
}

// Slices returns the layout's content-addressed wire slices,
// concatenating in order to the whole log. A snapshot's slices reuse the
// store's precomputed wire forms and hashes; a flat log's single slice
// is encoded and hashed on the first call.
func (ly *SegmentLayout) Slices() []LogSlice {
	ly.once.Do(func() {
		if len(ly.views) == 0 {
			w := joblog.WireSlice(ly.whole.Cols.Schema(), ly.whole.Log.Records[:ly.whole.Cols.Len()])
			ly.slices = []LogSlice{NewLogSlice(w, nil)}
			return
		}
		ly.slices = make([]LogSlice, len(ly.views))
		for i, v := range ly.views {
			ly.slices[i] = LogSlice{Hash: v.Hash, Log: v.Records}
		}
	})
	return ly.slices
}

// view returns the whole-log view a segmented spec runs against: the
// coordinator's own by reference when the spec was planned in this
// process, the decoded and combined slices otherwise.
func view(ly *SegmentLayout, slices []LogSlice) (*SliceData, error) {
	if ly != nil {
		return ly.whole, nil
	}
	datas := make([]*SliceData, len(slices))
	for i := range slices {
		d, err := slices[i].Data()
		if err != nil {
			return nil, err
		}
		datas[i] = d
	}
	return CombineSlices(datas)
}

// CombineSlices concatenates decoded slices, in order, into one view —
// the worker-side assembly of a segmented spec's whole-log form. The
// combined columnar view is built plainly (fresh intern); compiled
// predicate evaluation is intern-independent, so enumeration and
// evaluation walks over it are byte-identical to the coordinator's.
// With a single slice the decoded form is returned as-is.
func CombineSlices(datas []*SliceData) (*SliceData, error) {
	if len(datas) == 0 {
		return nil, fmt.Errorf("core: no slices to combine")
	}
	if len(datas) == 1 {
		return datas[0], nil
	}
	schema := datas[0].Log.Schema
	n := 0
	for _, d := range datas {
		n += d.Log.Len()
	}
	recs := make([]*joblog.Record, 0, n)
	for i, d := range datas {
		if i > 0 && !d.Log.Schema.Equal(schema) {
			return nil, fmt.Errorf("core: segment slice %d disagrees with the layout schema", i)
		}
		recs = append(recs, d.Log.Records...)
	}
	log := &joblog.Log{Schema: schema, Records: recs}
	return &SliceData{Log: log, Cols: log.Columns()}, nil
}

// prefetchLayout starts shipping the log's segment slices to every
// worker — called at the head of each runner-backed planning round, so
// sealed payloads a worker already holds are skipped and new ones
// overlap with planning. Only a shipping runner implements the
// prefetcher, so an in-process runner never builds the wire form.
// Advisory, like every prefetch.
func (e *Explainer) prefetchLayout() {
	if pf, ok := e.cfg.Runner.(SlicePrefetcher); ok {
		pf.PrefetchSlices(LayoutOf(e.log).Slices())
	}
}
