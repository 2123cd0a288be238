package core

// Metamorphic and property tests for the shard planner: whatever the
// shard count, the plan must partition the serial pair walk exactly —
// every related pair in exactly one shard, shard union equal to the
// serial pair set in serial order — and planning must be a pure function
// of the records, invariant under memo (columnar view) rebuilds and
// unaffected by later log appends. No planned spec is ever empty.

import (
	"bytes"
	"context"
	"encoding/gob"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"perfxplain/internal/features"
	"perfxplain/internal/joblog"
	"perfxplain/internal/pxql"
	"perfxplain/internal/stats"
)

// groupedLog builds a log with a nominal blocking feature whose group
// sizes are deliberately lopsided, so proportional cuts straddle group
// boundaries.
func groupedLog(n int, rng *rand.Rand) *joblog.Log {
	schema := joblog.NewSchema([]joblog.Field{
		{Name: "script", Kind: joblog.Nominal},
		{Name: "x", Kind: joblog.Numeric},
		{Name: "duration", Kind: joblog.Numeric},
	})
	log := joblog.NewLog(schema)
	for i := 0; i < n; i++ {
		script := "big"
		if i%4 == 1 {
			script = "small-" + fmt.Sprint(i%3)
		}
		x := 10 + rng.Float64()*1000
		values := []joblog.Value{joblog.Str(script), joblog.Num(x), joblog.Num(x)}
		if i%13 == 5 {
			values[0] = joblog.None() // unblockable under script_issame = T
		}
		log.MustAppend(&joblog.Record{ID: fmt.Sprintf("j%03d", i), Values: values})
	}
	return log
}

func blockedQuery() *pxql.Query {
	return &pxql.Query{
		Despite:  pxql.Predicate{{Feature: "script_issame", Op: pxql.OpEq, Value: features.ValT}},
		Observed: pxql.Predicate{{Feature: "duration_compare", Op: pxql.OpEq, Value: joblog.Str("GT")}},
		Expected: pxql.Predicate{{Feature: "duration_compare", Op: pxql.OpEq, Value: joblog.Str("SIM")}},
	}
}

// roundTrip gob-encodes and decodes a value — the wire path of a spec
// without a worker in between.
func roundTrip[T any](t *testing.T, v *T) *T {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	out := new(T)
	if err := gob.NewDecoder(&buf).Decode(out); err != nil {
		t.Fatal(err)
	}
	return out
}

// runPlan executes every spec of a plan in order and returns the merged
// refs and labels.
func runPlan(t *testing.T, specs []EnumSpec) (refs []pairRef, labels []bool) {
	t.Helper()
	for si := range specs {
		res, err := specs[si].Run()
		if err != nil {
			t.Fatalf("spec %d: %v", si, err)
		}
		for k := range res.RefA {
			refs = append(refs, pairRef{res.RefA[k], res.RefB[k]})
		}
		labels = append(labels, res.Labels...)
	}
	return refs, labels
}

func TestPlanEnumShardsPartitionsSerialWalk(t *testing.T) {
	log := groupedLog(90, rand.New(rand.NewSource(3)))
	q := blockedQuery()
	d := features.NewDeriver(log.Schema, features.Level3)

	for _, tc := range []struct {
		maxPairs int
		seed     int64
	}{
		{0, 1},      // full pair space
		{500, 1},    // Bernoulli-capped: keep decisions must agree across shards
		{500, 42},   // a different splitmix stream
		{100000, 7}, // cap above the space: keepP == 1
	} {
		pairSeed := stats.DeriveSeed(tc.seed, "plan-test")
		serial := enumerateRelated(log, d, q, q.Despite, tc.maxPairs, pairSeed, 1)
		for _, nShards := range []int{1, 2, 3, 7, 16, 64} {
			name := fmt.Sprintf("maxPairs=%d seed=%d shards=%d", tc.maxPairs, tc.seed, nShards)
			specs := PlanEnumShards(log, features.Level3, q, q.Despite, tc.maxPairs, nShards, pairSeed)
			checkNoEmptySpecs(t, name, len(specs), nShards, func(i int) []EnumGroup { return specs[i].Groups })
			refs, labels := runPlan(t, specs)

			// Union equals the serial pair set, in serial order, with
			// identical labels — which also implies every serial pair
			// appears at least once.
			if !reflect.DeepEqual(refs, serial.refs) || !reflect.DeepEqual(labels, serial.labels) {
				t.Errorf("%s: merged shard output differs from the serial walk (%d pairs vs %d)",
					name, len(refs), len(serial.refs))
				continue
			}
			// Exactly once: no pair is owned by two shards.
			seen := make(map[pairRef]int, len(refs))
			for _, r := range refs {
				seen[r]++
			}
			for r, c := range seen {
				if c != 1 {
					t.Errorf("%s: pair %v enumerated %d times", name, r, c)
				}
			}
		}
	}
}

// checkNoEmptySpecs pins the planners' shard-count cap: between one and
// nShards specs, none of them without groups.
func checkNoEmptySpecs(t *testing.T, name string, n, nShards int, groups func(i int) []EnumGroup) {
	t.Helper()
	if n == 0 || n > nShards {
		t.Fatalf("%s: planned %d specs for %d shards", name, n, nShards)
	}
	for i := 0; i < n; i++ {
		if len(groups(i)) == 0 {
			t.Fatalf("%s: spec %d of %d is empty", name, i, n)
		}
	}
}

// TestPlanEnumShardsInvariance pins that planning is a pure function of
// the record list: rebuilding the memoized columnar view does not change
// the plan, and a plan keeps producing the same pairs after the source
// log grows (specs pin the planned generation's view, in process and on
// the wire alike).
func TestPlanEnumShardsInvariance(t *testing.T) {
	log := groupedLog(60, rand.New(rand.NewSource(5)))
	q := blockedQuery()
	seed := stats.DeriveSeed(9, "invariance")

	p1 := PlanEnumShards(log, features.Level3, q, q.Despite, 300, 5, seed)
	refs1, labels1 := runPlan(t, p1)

	// Force the columnar view (and its intern table) into existence —
	// count-invalidation state must not leak into plans.
	log.Columns()
	p2 := PlanEnumShards(log, features.Level3, q, q.Despite, 300, 5, seed)
	if !reflect.DeepEqual(p1, p2) {
		t.Error("plan changed after building the columnar view")
	}

	// Grow the log: the snapshot plan still runs to the same output
	// (self-contained specs), and a fresh plan over the grown log still
	// partitions its serial walk.
	extra := groupedLog(25, rand.New(rand.NewSource(11)))
	for i, r := range extra.Records {
		log.MustAppend(&joblog.Record{ID: fmt.Sprintf("late%03d", i), Values: r.Values})
	}
	log.Columns() // rebuild the memo at the new count
	refsAgain, labelsAgain := runPlan(t, p1)
	if !reflect.DeepEqual(refsAgain, refs1) || !reflect.DeepEqual(labelsAgain, labels1) {
		t.Error("plan output changed after the source log grew")
	}
	shipped := make([]EnumSpec, len(p1))
	for i := range p1 {
		shipped[i] = *roundTrip(t, p1[i].Wire())
	}
	refsWire, labelsWire := runPlan(t, shipped)
	if !reflect.DeepEqual(refsWire, refs1) || !reflect.DeepEqual(labelsWire, labels1) {
		t.Error("shipped plan output changed after the source log grew")
	}

	d := features.NewDeriver(log.Schema, features.Level3)
	serial := enumerateRelated(log, d, q, q.Despite, 300, seed, 1)
	p3 := PlanEnumShards(log, features.Level3, q, q.Despite, 300, 5, seed)
	refs3, labels3 := runPlan(t, p3)
	if !reflect.DeepEqual(refs3, serial.refs) || !reflect.DeepEqual(labels3, serial.labels) {
		t.Error("plan over the grown log no longer partitions its serial walk")
	}
}

// TestPlanEvalShardsMatchesSerial pins the sharded evaluation walk:
// merged shard counts must reproduce EvaluateExplanationP's metrics
// exactly — same context/because pair counts, same ratios — at every
// shard count, with and without the pair cap, for empty and non-trivial
// explanations.
func TestPlanEvalShardsMatchesSerial(t *testing.T) {
	log := groupedLog(90, rand.New(rand.NewSource(4)))
	q := blockedQuery()
	explanations := []*Explanation{
		{},
		{Because: pxql.Predicate{{Feature: "x_compare", Op: pxql.OpEq, Value: joblog.Str("GT")}}},
		{
			Despite: pxql.Predicate{{Feature: "x_issame", Op: pxql.OpEq, Value: features.ValF}},
			Because: pxql.Predicate{{Feature: "x_diff", Op: pxql.OpNe, Value: joblog.Str("")}},
		},
	}
	for xi, x := range explanations {
		for _, maxPairs := range []int{0, 500} {
			serial, serialErr := EvaluateExplanationP(log, features.Level3, q, x, maxPairs, 3, 1)
			for _, nShards := range []int{1, 2, 3, 7, 16, 64} {
				name := fmt.Sprintf("x=%d maxPairs=%d shards=%d", xi, maxPairs, nShards)
				specs := PlanEvalShards(log, features.Level3, q, x, maxPairs, nShards, stats.DeriveSeed(3, "evaluate"))
				if serialErr == nil {
					checkNoEmptySpecs(t, name, len(specs), nShards, func(i int) []EnumGroup { return specs[i].Groups })
				}
				var context, exp, bec, obsGivenBec int
				for si := range specs {
					res, err := specs[si].Run()
					if err != nil {
						t.Fatalf("%s: spec %d: %v", name, si, err)
					}
					context += res.Context
					exp += res.Exp
					bec += res.Bec
					obsGivenBec += res.ObsGivenBec
				}
				merged, mergedErr := metricsFromCounts(context, exp, bec, obsGivenBec)
				if (serialErr == nil) != (mergedErr == nil) {
					t.Fatalf("%s: error mismatch: serial=%v merged=%v", name, serialErr, mergedErr)
				}
				if serialErr == nil && merged != serial {
					t.Errorf("%s: merged metrics %+v differ from serial %+v", name, merged, serial)
				}
			}
		}
	}
}

// TestPlanEvalShardsSharedRunner pins the public entry point: the
// sharded evaluation through a runner equals the serial metrics, and a
// nil runner selects the in-process walk.
func TestPlanEvalShardsSharedRunner(t *testing.T) {
	log := groupedLog(60, rand.New(rand.NewSource(6)))
	q := blockedQuery()
	x := &Explanation{Because: pxql.Predicate{{Feature: "x_compare", Op: pxql.OpEq, Value: joblog.Str("GT")}}}
	serial, err := EvaluateExplanationP(log, features.Level3, q, x, 400, 9, 1)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	viaNil, err := EvaluateExplanationCtx(ctx, log, features.Level3, q, x, 400, 9, 0, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if viaNil != serial {
		t.Errorf("nil-runner fallback %+v differs from serial %+v", viaNil, serial)
	}
	viaRunner, err := EvaluateExplanationCtx(ctx, log, features.Level3, q, x, 400, 9, 0, 4, serialEvalRunner{})
	if err != nil {
		t.Fatal(err)
	}
	if viaRunner != serial {
		t.Errorf("runner-backed metrics %+v differ from serial %+v", viaRunner, serial)
	}
}

// serialEvalRunner executes specs inline — the minimal ShardRunner for
// planner tests inside the core package (internal/shard cannot be
// imported from here).
type serialEvalRunner struct{}

func (serialEvalRunner) RunEnum(specs []EnumSpec) ([]EnumResult, error) {
	out := make([]EnumResult, len(specs))
	for i := range specs {
		r, err := specs[i].Run()
		if err != nil {
			return nil, err
		}
		out[i] = *r
	}
	return out, nil
}

func (serialEvalRunner) RunMat(specs []MatSpec) ([]MatResult, error) {
	out := make([]MatResult, len(specs))
	for i := range specs {
		r, err := specs[i].Run()
		if err != nil {
			return nil, err
		}
		out[i] = *r
	}
	return out, nil
}

func (serialEvalRunner) RunScore(specs []ScoreSpec) ([]ScoreResult, error) {
	out := make([]ScoreResult, len(specs))
	for i := range specs {
		r, err := specs[i].Run()
		if err != nil {
			return nil, err
		}
		out[i] = *r
	}
	return out, nil
}

func (serialEvalRunner) RunEval(specs []EvalSpec) ([]EvalResult, error) {
	out := make([]EvalResult, len(specs))
	for i := range specs {
		r, err := specs[i].Run()
		if err != nil {
			return nil, err
		}
		out[i] = *r
	}
	return out, nil
}

// TestLogSliceHashStability pins the content-address: equal content
// hashes equal, any mutation — record value, intern entry, field name —
// changes the hash, and the planners actually share one hash across the
// specs of a round and across plans (the property the cache's savings
// depend on): a flat log ships as one slice hashed like its wire form.
func TestLogSliceHashStability(t *testing.T) {
	log := groupedLog(30, rand.New(rand.NewSource(12)))
	intern := log.Columns().Intern().Strings()
	s1 := NewLogSlice(log.Wire(), intern)
	s2 := NewLogSlice(log.Wire(), intern)
	if s1.Hash == "" || s1.Hash != s2.Hash {
		t.Fatalf("equal content produced hashes %q vs %q", s1.Hash, s2.Hash)
	}
	grown := append(append([]string(nil), intern...), "extra")
	if NewLogSlice(log.Wire(), grown).Hash == s1.Hash {
		t.Error("intern change did not change the hash")
	}
	wire := log.Wire()
	wire.Records[0].Values[1].Num++
	if NewLogSlice(wire, intern).Hash == s1.Hash {
		t.Error("record change did not change the hash")
	}

	q := blockedQuery()
	x := &Explanation{}
	want := joblog.HashSlice(log.Wire(), nil)
	specs := PlanEvalShards(log, features.Level3, q, x, 0, 4, 7)
	again := PlanEnumShards(log, features.Level3, q, q.Despite, 0, 3, 7)
	for si := range specs {
		if ss := specs[si].Wire().Slices; len(ss) != 1 || ss[0].Hash != want {
			t.Errorf("eval spec %d ships %d slices, want one hashed %.12s", si, len(ss), want)
		}
	}
	for si := range again {
		if ss := again[si].Wire().Slices; len(ss) != 1 || ss[0].Hash != want {
			t.Errorf("enum spec %d ships %d slices, want one hashed %.12s", si, len(ss), want)
		}
	}
}

// TestPlanEnumShardsEmptyAndStraddling pins the two planner edge cases
// the equivalence suite relies on: more shards than outer units plans
// one spec per unit and no empty spec (the merged output still equals
// the serial walk), and a group larger than the per-shard unit budget
// appears in several specs with disjoint, covering outer ranges.
func TestPlanEnumShardsEmptyAndStraddling(t *testing.T) {
	log := groupedLog(40, rand.New(rand.NewSource(8)))
	q := blockedQuery()
	specs := PlanEnumShards(log, features.Level3, q, q.Despite, 0, 64, 17)
	groups, _ := blockedGroups(log, q.Despite, 0)
	units := 0
	for _, g := range groups {
		units += len(g)
	}
	if units >= 64 {
		t.Fatalf("fixture has %d outer units; need fewer than 64", units)
	}
	if len(specs) != units {
		t.Errorf("planned %d specs for %d outer units", len(specs), units)
	}
	checkNoEmptySpecs(t, "64 shards", len(specs), 64, func(i int) []EnumGroup { return specs[i].Groups })
	serial := enumerateRelated(log, features.NewDeriver(log.Schema, features.Level3), q, q.Despite, 0, 17, 1)
	if refs, labels := runPlan(t, specs); !reflect.DeepEqual(refs, serial.refs) || !reflect.DeepEqual(labels, serial.labels) {
		t.Errorf("64-way plan output differs from the serial walk (%d pairs vs %d)", len(refs), len(serial.refs))
	}

	ranges := make(map[string][][2]int) // group fingerprint -> outer ranges
	sizes := make(map[string]int)
	for _, s := range specs {
		for _, g := range s.Groups {
			key := fmt.Sprint(g.Members[0])
			ranges[key] = append(ranges[key], [2]int{g.Lo, g.Hi})
			sizes[key] = len(g.Members)
		}
	}
	straddled := false
	for key, rs := range ranges {
		if len(rs) > 1 {
			straddled = true
			// Disjoint, contiguous, covering [0, len(group)).
			next := 0
			for _, r := range rs {
				if r[0] != next || r[1] <= r[0] {
					t.Errorf("group %s: outer ranges %v are not a contiguous partition", key, rs)
					break
				}
				next = r[1]
			}
			if next != sizes[key] {
				t.Errorf("group %s: outer ranges %v do not cover %d members", key, rs, sizes[key])
			}
		}
	}
	if !straddled {
		t.Error("expected the big group to straddle shard boundaries at 64 shards")
	}
}
