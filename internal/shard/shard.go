// Package shard is the execution runtime for the pair pipeline's shard
// specs (see internal/core/shard.go): it runs planned enumeration,
// materialization, candidate-scoring and evaluation shards either on
// this process's worker pool (InProc — the default) or on a Pool of
// workers reached through pluggable transports: subprocess stdin/stdout
// pipes (`pxql -shard-worker`), in-process channel workers, or
// authenticated TCP sockets to remote machines running `pxql
// -shard-worker -listen` (see transport.go and Serve).
//
// Both runtimes implement core.ShardRunner and return results in spec
// order, so the merged output is byte-identical to the serial path at
// every shard count, on every transport, and with the content-addressed
// slice cache (cache.go) in any state — the property the equivalence
// test suite pins.
package shard

import (
	"fmt"
	"sync"

	"perfxplain/internal/core"
	"perfxplain/internal/par"
)

// InProc executes shard specs on this process's worker pool. It is the
// default runtime: no serialization, no processes — par.Do over the
// specs, results in spec order. Enumeration and evaluation specs read
// the coordinator's log by reference, so no slice is ever encoded.
type InProc struct {
	// Workers bounds the concurrent specs (<= 0 means GOMAXPROCS).
	Workers int
}

// runAll executes n units on the pool, capturing the first error.
func (r InProc) runAll(n int, exec func(i int) error) error {
	errs := make([]error, n)
	par.Do(n, r.Workers, func(i int) { errs[i] = exec(i) })
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// RunEnum implements core.ShardRunner.
func (r InProc) RunEnum(specs []core.EnumSpec) ([]core.EnumResult, error) {
	out := make([]core.EnumResult, len(specs))
	err := r.runAll(len(specs), func(i int) error {
		res, err := specs[i].Run()
		if err != nil {
			return err
		}
		out[i] = *res
		return nil
	})
	return out, err
}

// RunMat implements core.ShardRunner.
func (r InProc) RunMat(specs []core.MatSpec) ([]core.MatResult, error) {
	out := make([]core.MatResult, len(specs))
	err := r.runAll(len(specs), func(i int) error {
		res, err := specs[i].Run()
		if err != nil {
			return err
		}
		out[i] = *res
		return nil
	})
	return out, err
}

// RunScore implements core.ShardRunner.
func (r InProc) RunScore(specs []core.ScoreSpec) ([]core.ScoreResult, error) {
	out := make([]core.ScoreResult, len(specs))
	err := r.runAll(len(specs), func(i int) error {
		res, err := specs[i].Run()
		if err != nil {
			return err
		}
		out[i] = *res
		return nil
	})
	return out, err
}

// RunEval implements core.ShardRunner.
func (r InProc) RunEval(specs []core.EvalSpec) ([]core.EvalResult, error) {
	out := make([]core.EvalResult, len(specs))
	err := r.runAll(len(specs), func(i int) error {
		res, err := specs[i].Run()
		if err != nil {
			return err
		}
		out[i] = *res
		return nil
	})
	return out, err
}

// dispatch hands one decoded task to its executor — shared by every
// worker loop (subprocess, socket connection, in-proc goroutine). Specs
// carrying a content-addressed slice resolve it through the worker's
// cache: payload frames decode-and-cache, reference frames hit the
// cache or report CacheMiss for the coordinator to re-ship.
func (ws *workerState) dispatch(t *Task) *Result {
	res := &Result{Version: Version, Seq: t.Seq}
	defer func() {
		// A panic must never kill a worker serving other shards: corrupt
		// frames that slip past spec validation surface as task errors.
		if r := recover(); r != nil {
			res.Enum, res.Mat, res.Score, res.Eval = nil, nil, nil, nil
			res.CacheMiss = false
			res.Err = fmt.Sprintf("shard: task panicked: %v", r)
		}
	}()
	if t.Version != Version {
		res.Err = fmt.Sprintf("shard: protocol version %d, want %d", t.Version, Version)
		return res
	}
	if t.Prefetch != nil {
		// A prefetch frame only warms the cache: decode the payload into
		// the LRU and ack with an empty result. A reference frame here is
		// a coordinator bug; report it as a miss so the sender never
		// records the hash as shipped.
		if t.Prefetch.Ref {
			res.CacheMiss = true
			return res
		}
		if _, _, err := ws.resolve(t.Prefetch); err != nil {
			res.Err = err.Error()
		}
		return res
	}
	ss := t.slices()
	if len(ss) == 0 {
		res.Err = "shard: task carries no spec or no log slice"
		return res
	}
	datas := make([]*core.SliceData, len(ss))
	for i, s := range ss {
		d, miss, err := ws.resolve(s)
		if miss {
			// Any evicted segment fails the whole frame: the coordinator
			// clears its shipped marks for every reference in it and
			// re-ships in full.
			res.CacheMiss = true
			return res
		}
		if err != nil {
			res.Err = err.Error()
			return res
		}
		datas[i] = d
	}
	data := datas[0]
	if t.combined() {
		d, err := ws.combine(ss, datas)
		if err != nil {
			res.Err = err.Error()
			return res
		}
		data = d
	}
	switch {
	case t.Enum != nil:
		r, err := t.Enum.RunWith(data)
		if err != nil {
			res.Err = err.Error()
		} else {
			res.Enum = r
		}
	case t.Mat != nil:
		r, err := t.Mat.RunWith(data)
		if err != nil {
			res.Err = err.Error()
		} else {
			res.Mat = r
		}
	case t.Score != nil:
		r, err := t.Score.RunWith(data)
		if err != nil {
			res.Err = err.Error()
		} else {
			res.Score = r
		}
	case t.Eval != nil:
		r, err := t.Eval.RunWith(data)
		if err != nil {
			res.Err = err.Error()
		} else {
			res.Eval = r
		}
	}
	return res
}

// firstErr collects the first error across concurrent workers.
type firstErr struct {
	mu  sync.Mutex
	err error
}

func (f *firstErr) set(err error) {
	if err == nil {
		return
	}
	f.mu.Lock()
	if f.err == nil {
		f.err = err
	}
	f.mu.Unlock()
}

func (f *firstErr) get() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.err
}
