package shard

// The wire protocol between a shard coordinator and its workers: a
// stream of gob-encoded Task frames answered one-for-one by gob-encoded
// Result frames — over a subprocess's stdin/stdout, an in-process
// channel pair, or an authenticated TCP socket (see transport.go; the
// frames are transport-agnostic). Every frame carries the protocol
// version; a worker refuses mismatched frames with an error result
// instead of guessing. The payloads themselves (log slices, intern
// tables, predicate specs, splitmix counter ranges) are the core
// package's shard spec types, whose decode paths validate everything —
// a corrupt or malicious frame produces an error result, never a panic
// (FuzzShardCodec pins this).
//
// Every spec carries content-addressed log slices — the log's segment
// slices (Enum, Eval) or the training sample's slice (Mat, Score) —
// and any of them may arrive as references: the slice's hash without
// its payload, when the coordinator knows it already shipped the
// payload on this connection.
// A worker that no longer holds the slice (cache eviction) answers with
// CacheMiss, and the coordinator re-ships the full frame — so caching
// changes bytes on the wire, never results.
//
// gob rather than JSON is the frame encoding because the dominant frame
// payloads are float64/uint64 planes and index slices, which gob moves
// in binary; the spec types also carry JSON tags, so the same frames can
// be dumped human-readably for debugging.

import (
	"encoding/gob"
	"errors"
	"fmt"
	"io"

	"perfxplain/internal/core"
)

// Version is the shard protocol version. Bump it when a spec or frame
// field changes meaning; workers reject frames from other versions.
// Version 2: content-addressed slices (LogSlice refs + CacheMiss) and
// evaluation shards.
// Version 3: stratified enumeration shards (EnumSpec.Stratified,
// EnumGroup.Budget).
// Version 4: Wilson-adaptive enumeration rounds (EnumSpec.Round) and
// pipelined slice prefetch (Task.Prefetch).
// Version 5: segmented multi-slice specs (EnumSpec.Slices,
// EvalSpec.Slices) — a spec may carry the per-segment hashed slices of
// a watermark snapshot, each independently cacheable and strippable to
// a reference.
// Version 6: one planner — enumeration and evaluation specs always
// carry the log's segment slices (a flat log is one segment) and
// address records globally; the per-shard record cuts (EnumSpec.Log,
// EnumSpec.Global, EvalSpec.Slice, EvalSpec.Global) are gone.
const Version = 6

//pxql:wirehash a8a230bd3147c114 v=6

// Task is one request frame: exactly one spec pointer is set — or
// Prefetch alone, a payload-only frame that warms the worker's
// decoded-slice cache ahead of the tasks that will reference the slice.
// The worker acks a prefetch with an empty result (no spec result
// pointers); prefetching can therefore never change results, only when
// payload bytes cross the wire.
//
//pxql:wire decode=workerState.dispatch
type Task struct {
	Version  int
	Seq      int
	Enum     *core.EnumSpec
	Mat      *core.MatSpec
	Score    *core.ScoreSpec
	Eval     *core.EvalSpec
	Prefetch *core.LogSlice
}

// slices returns the task's content-addressed log slices, in order:
// the segment slices of an enum/eval spec, the sample slice of a
// mat/score spec.
func (t *Task) slices() []*core.LogSlice {
	var ss []core.LogSlice
	switch {
	case t.Enum != nil:
		ss = t.Enum.Slices
	case t.Eval != nil:
		ss = t.Eval.Slices
	case t.Mat != nil:
		return []*core.LogSlice{&t.Mat.Slice}
	case t.Score != nil:
		return []*core.LogSlice{&t.Score.Slice}
	}
	out := make([]*core.LogSlice, len(ss))
	for i := range ss {
		out[i] = &ss[i]
	}
	return out
}

// combined reports whether the task's slices are segments of one log —
// the worker concatenates their decoded forms into a single view —
// rather than one standalone sample slice.
func (t *Task) combined() bool { return t.Enum != nil || t.Eval != nil }

// strippedWith returns a copy of the task in which every slice whose
// hash is in known is replaced by its hash reference — the frame sent
// to a worker that already holds those payloads — plus the stripped
// hashes in slice order. Slices not in known (e.g. a fresh tail
// segment) keep their payloads: one frame can mix references and
// payloads.
func (t *Task) strippedWith(known map[string]int) (*Task, []string) {
	var refd []string
	strip := func(s core.LogSlice) core.LogSlice {
		if s.Hash != "" && !s.Ref {
			if _, ok := known[s.Hash]; ok {
				refd = append(refd, s.Hash)
				return s.AsRef()
			}
		}
		return s
	}
	stripAll := func(ss []core.LogSlice) []core.LogSlice {
		out := make([]core.LogSlice, len(ss))
		for i, s := range ss {
			out[i] = strip(s)
		}
		return out
	}
	c := *t
	switch {
	case t.Enum != nil:
		e := *t.Enum
		e.Slices = stripAll(e.Slices)
		c.Enum = &e
	case t.Eval != nil:
		e := *t.Eval
		e.Slices = stripAll(e.Slices)
		c.Eval = &e
	case t.Mat != nil:
		m := *t.Mat
		m.Slice = strip(m.Slice)
		c.Mat = &m
	case t.Score != nil:
		s := *t.Score
		s.Slice = strip(s.Slice)
		c.Score = &s
	}
	return &c, refd
}

// Result is one response frame, answering the Task with the same Seq.
// Err is the task's error, if any; CacheMiss reports that a reference
// slice was not in the worker's cache (the coordinator re-ships the
// payload); exactly one result pointer is set on success.
//
//pxql:wire decode=workerProc.exchange
type Result struct {
	Version   int
	Seq       int
	Err       string
	CacheMiss bool
	Enum      *core.EnumResult
	Mat       *core.MatResult
	Score     *core.ScoreResult
	Eval      *core.EvalResult
}

// flusher is implemented by buffered writers that need a per-frame
// flush (socket workers); pipes write through unbuffered.
type flusher interface{ Flush() error }

// Worker serves shard tasks from r until EOF, writing one result per
// task to w — the body of the `pxql -shard-worker` subprocess mode.
// Task execution errors (including corrupt specs) are reported in-band
// as Result.Err; only transport failures (a truncated or undecodable
// stream) end the loop with an error.
func Worker(r io.Reader, w io.Writer) error {
	return worker(r, w, newWorkerState())
}

func worker(r io.Reader, w io.Writer, ws *workerState) error {
	dec := gob.NewDecoder(r)
	enc := gob.NewEncoder(w)
	fl, _ := w.(flusher)
	for {
		var t Task
		if err := dec.Decode(&t); err != nil {
			if errors.Is(err, io.EOF) {
				return nil
			}
			return fmt.Errorf("shard: decode task: %w", err)
		}
		if err := enc.Encode(ws.dispatch(&t)); err != nil {
			return fmt.Errorf("shard: encode result: %w", err)
		}
		if fl != nil {
			if err := fl.Flush(); err != nil {
				return fmt.Errorf("shard: flush result: %w", err)
			}
		}
	}
}
