package core

import (
	"context"
	"fmt"

	"perfxplain/internal/bitset"
	"perfxplain/internal/features"
	"perfxplain/internal/joblog"
	"perfxplain/internal/par"
	"perfxplain/internal/pxql"
	"perfxplain/internal/stats"
)

// Metrics are the paper's three explanation-quality measures
// (Definitions 4-6), evaluated over a log — typically a held-out test log
// as in Section 6.1.
type Metrics struct {
	// Relevance is P(exp | des' ∧ des).
	Relevance float64
	// Precision is P(obs | bec ∧ des' ∧ des).
	Precision float64
	// Generality is P(bec | des' ∧ des).
	Generality float64

	// ContextPairs counts pairs satisfying des' ∧ des (the denominator of
	// relevance and generality).
	ContextPairs int
	// BecausePairs counts pairs additionally satisfying bec (the
	// denominator of precision).
	BecausePairs int
}

// EvaluateExplanationP measures an explanation against a log with an
// explicit worker count (<= 0 means GOMAXPROCS) — the non-ctx wrapper
// of EvaluateExplanationCtx on the direct walk.
func EvaluateExplanationP(log *joblog.Log, level features.Level,
	q *pxql.Query, x *Explanation, maxPairs int, seed int64, parallelism int) (Metrics, error) {
	return EvaluateExplanationCtx(context.Background(), log, level, q, x, maxPairs, seed, parallelism, 0, nil)
}

// EvaluateExplanationCtx measures an explanation against a log. The
// query supplies des, obs and exp; the explanation supplies des' and
// bec. The probability space is the set of ordered pairs satisfying
// des ∧ des' (blocked and capped exactly like training enumeration).
//
// A nil runner selects the direct walk on parallelism workers (<= 0
// means GOMAXPROCS): each tile of pairs is evaluated batched — the
// despite context fills a selection bitmap, exp and bec push down over
// copies of it, obs pushes down over the bec selection, and all four
// counts are popcounts. Otherwise the walk is planned into shards
// (<= 0 means one per worker) over the log's segment layout and
// executed by runner. Either way the counts are integers summed in a
// fixed order, so the metrics are exact and identical at every
// parallelism, shard count, transport and cache state.
//
// Cancellation is checked per chunk of the direct walk, and before
// planning and before the fan-out of a sharded one; a cancelled
// evaluation returns ctx.Err() instead of partial counts.
func EvaluateExplanationCtx(ctx context.Context, log *joblog.Log, level features.Level,
	q *pxql.Query, x *Explanation, maxPairs int, seed int64,
	parallelism, shards int, runner ShardRunner) (Metrics, error) {

	if err := validateEvaluation(log, level, q, x); err != nil {
		return Metrics{}, err
	}
	if runner == nil {
		return evaluateDirect(ctx, log, level, q, x, maxPairs, seed, parallelism)
	}
	if err := ctx.Err(); err != nil {
		return Metrics{}, err
	}
	if shards <= 0 {
		shards = par.Resolve(parallelism)
	}
	specs := PlanEvalShards(log, level, q, x, maxPairs, shards, stats.DeriveSeed(seed, "evaluate"))
	// Prefetch the log's slices to every worker before fanning out: while
	// the first specs compute, the payloads ship in the background — and
	// repeated evaluations over the same log (a harness scoring several
	// widths) hit the worker caches whatever the dynamic task-to-worker
	// assignment does.
	if pf, ok := runner.(SlicePrefetcher); ok {
		pf.PrefetchSlices(LayoutOf(log).Slices())
	}
	if err := ctx.Err(); err != nil {
		return Metrics{}, err
	}
	results, err := runner.RunEval(specs)
	if err != nil {
		return Metrics{}, fmt.Errorf("core: shard evaluation: %w", err)
	}
	if len(results) != len(specs) {
		return Metrics{}, fmt.Errorf("core: shard evaluation returned %d results for %d specs", len(results), len(specs))
	}
	var context, nExp, bec, obsGivenBec int
	for si := range results {
		r := &results[si]
		if r.Context < 0 || r.Exp < 0 || r.Bec < 0 || r.ObsGivenBec < 0 ||
			r.Exp > r.Context || r.Bec > r.Context || r.ObsGivenBec > r.Bec {
			return Metrics{}, fmt.Errorf("core: shard %d returned inconsistent evaluation counts %+v", si, *r)
		}
		context += r.Context
		nExp += r.Exp
		bec += r.Bec
		obsGivenBec += r.ObsGivenBec
	}
	return metricsFromCounts(context, nExp, bec, obsGivenBec)
}

// evaluateDirect is the in-process evaluation walk.
func evaluateDirect(ctx context.Context, log *joblog.Log, level features.Level,
	q *pxql.Query, x *Explanation, maxPairs int, seed int64, parallelism int) (Metrics, error) {

	d := features.NewDeriver(log.Schema, level)
	despite := q.Despite.And(x.Despite)
	pairSeed := stats.DeriveSeed(seed, "evaluate")
	sp := buildPairSpace(log, despite, maxPairs, parallelism)
	cols := log.Columns()
	cDes := despite.Compile(d, cols)
	cObs := q.Observed.Compile(d, cols)
	cExp := q.Expected.Compile(d, cols)
	cBec := x.Because.Compile(d, cols)

	type counts struct {
		context, exp, bec, obsGivenBec int
	}
	parts := make([]counts, len(sp.shards))
	par.Do(len(sp.shards), parallelism, func(s int) {
		if ctx.Err() != nil {
			return
		}
		var c counts
		des := bitset.Make(pairBlock)
		scratch := bitset.Make(pairBlock)
		sp.forEachBlock(s, pairSeed, func(ai, bi []int) {
			nw := bitset.Words(len(ai))
			dS, t := des[:nw], scratch[:nw]
			cDes.EvalBlock(ai, bi, dS)
			c.context += dS.Count()
			t.CopyFrom(dS)
			cExp.AndBlock(ai, bi, t)
			c.exp += t.Count()
			t.CopyFrom(dS)
			cBec.AndBlock(ai, bi, t)
			c.bec += t.Count()
			cObs.AndBlock(ai, bi, t)
			c.obsGivenBec += t.Count()
		})
		parts[s] = c
	})
	if err := ctx.Err(); err != nil {
		return Metrics{}, err
	}

	var m Metrics
	var nExp, nObsGivenBec int
	for _, c := range parts {
		m.ContextPairs += c.context
		nExp += c.exp
		m.BecausePairs += c.bec
		nObsGivenBec += c.obsGivenBec
	}
	return metricsFromCounts(m.ContextPairs, nExp, m.BecausePairs, nObsGivenBec)
}

// validateEvaluation checks the evaluation inputs once, shared by the
// in-process and sharded walks so both reject exactly the same queries.
func validateEvaluation(log *joblog.Log, level features.Level, q *pxql.Query, x *Explanation) error {
	if log == nil || log.Len() == 0 {
		return fmt.Errorf("core: empty evaluation log")
	}
	d := features.NewDeriver(log.Schema, level)
	for _, p := range []pxql.Predicate{q.Despite, q.Observed, q.Expected, x.Despite, x.Because} {
		if err := p.Validate(d.Schema()); err != nil {
			return err
		}
	}
	return nil
}

// metricsFromCounts turns the four merged counts into the paper's
// measures — the single definition of the ratios, shared by every
// execution mode.
func metricsFromCounts(context, exp, bec, obsGivenBec int) (Metrics, error) {
	m := Metrics{ContextPairs: context, BecausePairs: bec}
	if m.ContextPairs == 0 {
		return m, fmt.Errorf("core: no pairs satisfy the despite context in the evaluation log")
	}
	m.Relevance = float64(exp) / float64(m.ContextPairs)
	m.Generality = float64(m.BecausePairs) / float64(m.ContextPairs)
	if m.BecausePairs > 0 {
		m.Precision = float64(obsGivenBec) / float64(m.BecausePairs)
	}
	return m, nil
}
