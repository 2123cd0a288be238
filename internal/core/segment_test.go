package core

// Equivalence suite for segment-layout planning: plans over a store
// snapshot's layout — per-segment hashed slices plus global group
// indices — must merge to exactly the direct serial walk at every shard
// count, seal threshold, and sampling mode, including seal boundaries
// that straddle blocking groups, both when the specs read the
// coordinator's log by reference and when they go over the wire.

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"perfxplain/internal/features"
	"perfxplain/internal/joblog"
	"perfxplain/internal/pxql"
	"perfxplain/internal/stats"
)

// storeOver replays log's records through a segment store sealing every
// sealEvery records and returns the snapshot log.
func storeOver(t *testing.T, log *joblog.Log, sealEvery int) *joblog.Log {
	t.Helper()
	st := joblog.NewStore(log.Schema, sealEvery)
	for _, r := range log.Records {
		st.MustAppend(r)
	}
	snap := st.Snapshot()
	if len(snap.Log().Segments()) != len(snap.Segments()) {
		t.Fatalf("snapshot log reports %d segments, snapshot has %d", len(snap.Log().Segments()), len(snap.Segments()))
	}
	return snap.Log()
}

var segSealEveries = []int{5, 17, 40, 200} // several segments + tail ... single tail view

// checkSegmentSlices pins that a shipped spec carries the snapshot's
// segment slices, hash for hash.
func checkSegmentSlices(t *testing.T, name string, log *joblog.Log, slices []LogSlice) {
	t.Helper()
	views := log.Segments()
	if len(slices) != len(views) {
		t.Fatalf("%s: spec ships %d slices, want %d segments", name, len(slices), len(views))
	}
	for i := range views {
		if slices[i].Hash != views[i].Hash {
			t.Fatalf("%s: slice %d hash differs from its segment's", name, i)
		}
	}
}

// wirePlan returns the plan as a worker sees it: shipped and decoded.
func wirePlan(t *testing.T, specs []EnumSpec) []EnumSpec {
	t.Helper()
	out := make([]EnumSpec, len(specs))
	for i := range specs {
		out[i] = *roundTrip(t, specs[i].Wire())
	}
	return out
}

func TestPlanEnumShardsSegmentedMatchesSerial(t *testing.T) {
	log := groupedLog(90, rand.New(rand.NewSource(21)))
	q := blockedQuery()
	d := features.NewDeriver(log.Schema, features.Level3)
	for _, maxPairs := range []int{0, 500} {
		pairSeed := stats.DeriveSeed(5, "seg-test")
		serial := enumerateRelated(log, d, q, q.Despite, maxPairs, pairSeed, 1)
		for _, sealEvery := range segSealEveries {
			snapLog := storeOver(t, log, sealEvery)
			for _, nShards := range []int{1, 2, 7} {
				name := fmt.Sprintf("maxPairs=%d seal=%d shards=%d", maxPairs, sealEvery, nShards)
				specs := PlanEnumShards(snapLog, features.Level3, q, q.Despite, maxPairs, nShards, pairSeed)
				checkNoEmptySpecs(t, name, len(specs), nShards, func(i int) []EnumGroup { return specs[i].Groups })
				for si := range specs {
					checkSegmentSlices(t, name, snapLog, specs[si].Wire().Slices)
				}
				for mode, plan := range map[string][]EnumSpec{"by-reference": specs, "wire": wirePlan(t, specs)} {
					refs, labels := runPlan(t, plan)
					if !reflect.DeepEqual(refs, serial.refs) || !reflect.DeepEqual(labels, serial.labels) {
						t.Errorf("%s %s: segmented plan output differs from the serial walk (%d pairs vs %d)",
							name, mode, len(refs), len(serial.refs))
					}
				}
			}
		}
	}
}

func TestPlanEnumShardsStratifiedSegmentedMatchesSerial(t *testing.T) {
	log := groupedLog(90, rand.New(rand.NewSource(22)))
	q := blockedQuery()
	d := features.NewDeriver(log.Schema, features.Level3)
	pairSeed := stats.DeriveSeed(6, "seg-strat")
	serial := enumerateRelatedOpt(log, d, q, q.Despite, pairSeed, 1, enumOpts{stratified: true, budget: 300})
	for _, sealEvery := range segSealEveries {
		snapLog := storeOver(t, log, sealEvery)
		for _, nShards := range []int{1, 2, 7} {
			name := fmt.Sprintf("seal=%d shards=%d", sealEvery, nShards)
			specs := PlanEnumShardsStratified(snapLog, features.Level3, q, q.Despite, 300, nShards, pairSeed)
			for mode, plan := range map[string][]EnumSpec{"by-reference": specs, "wire": wirePlan(t, specs)} {
				refs, labels := runPlan(t, plan)
				if !reflect.DeepEqual(refs, serial.refs) || !reflect.DeepEqual(labels, serial.labels) {
					t.Errorf("%s %s: stratified segmented plan differs from the serial walk (%d pairs vs %d)",
						name, mode, len(refs), len(serial.refs))
				}
			}
		}
	}
}

func TestPlanEvalShardsSegmentedMatchesSerial(t *testing.T) {
	log := groupedLog(90, rand.New(rand.NewSource(23)))
	q := blockedQuery()
	x := &Explanation{Because: pxql.Predicate{{Feature: "x_compare", Op: pxql.OpEq, Value: joblog.Str("GT")}}}
	serial, err := EvaluateExplanationP(log, features.Level3, q, x, 500, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, sealEvery := range segSealEveries {
		snapLog := storeOver(t, log, sealEvery)
		for _, nShards := range []int{1, 2, 7} {
			name := fmt.Sprintf("seal=%d shards=%d", sealEvery, nShards)
			specs := PlanEvalShards(snapLog, features.Level3, q, x, 500, nShards, stats.DeriveSeed(3, "evaluate"))
			for wire := range 2 {
				var ctxPairs, exp, bec, obs int
				for si := range specs {
					spec := &specs[si]
					if wire == 1 {
						checkSegmentSlices(t, name, snapLog, spec.Wire().Slices)
						spec = roundTrip(t, spec.Wire())
					}
					res, err := spec.Run()
					if err != nil {
						t.Fatalf("%s: spec %d: %v", name, si, err)
					}
					ctxPairs += res.Context
					exp += res.Exp
					bec += res.Bec
					obs += res.ObsGivenBec
				}
				merged, err := metricsFromCounts(ctxPairs, exp, bec, obs)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if merged != serial {
					t.Errorf("%s wire=%d: merged metrics %+v differ from serial %+v", name, wire, merged, serial)
				}
			}

			// The public entry point over the snapshot must agree too.
			got, err := EvaluateExplanationCtx(context.Background(), snapLog, features.Level3, q, x, 500, 3, 0, nShards, serialEvalRunner{})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if got != serial {
				t.Errorf("%s: sharded metrics %+v differ from serial %+v", name, got, serial)
			}
		}
	}
}

// TestExplainerWithLayoutByteIdentical pins the end-to-end contract:
// an explainer over a store snapshot — whose runner-backed planners use
// the snapshot's segment layout — produces exactly the explanation of
// the direct path over the flat log, at several shard counts and seal
// thresholds.
func TestExplainerWithLayoutByteIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	log := twoFactorLog(90, rng)

	explain := func(l *joblog.Log, cfg Config) string {
		t.Helper()
		ex, err := NewExplainer(l, cfg)
		if err != nil {
			t.Fatal(err)
		}
		q := gtQuery(l, ex.Deriver())
		if q == nil {
			t.Fatal("no pair of interest")
		}
		x, err := ex.ExplainWithDespite(q)
		if err != nil {
			t.Fatal(err)
		}
		return x.String()
	}

	for _, mode := range []string{"", "stratified"} {
		base := explain(log, Config{Width: 3, DespiteWidth: 2, Seed: 13, MaxPairs: 2000, SampleMode: mode})
		for _, sealEvery := range []int{17, 40} {
			snapLog := storeOver(t, log, sealEvery)
			for _, nShards := range []int{1, 2, 7} {
				got := explain(snapLog, Config{Width: 3, DespiteWidth: 2, Seed: 13, MaxPairs: 2000,
					SampleMode: mode, Shards: nShards, Runner: serialEvalRunner{}})
				if got != base {
					t.Errorf("mode=%q seal=%d shards=%d: segmented explanation differs:\n%s\nvs direct:\n%s",
						mode, sealEvery, nShards, got, base)
				}
			}
		}
	}
}

// TestLayoutFromLog pins how a layout derives from its log: a flat log
// is one segment hashed like its wire form, a snapshot log ships its
// segment views hash for hash, the layout is memoized per log
// generation, and a mutated log gets a fresh layout.
func TestLayoutFromLog(t *testing.T) {
	schema := joblog.NewSchema([]joblog.Field{{Name: "x", Kind: joblog.Numeric}})
	rec := func(id string, x float64) *joblog.Record {
		return &joblog.Record{ID: id, Values: []joblog.Value{joblog.Num(x)}}
	}
	flat := joblog.NewLog(schema)
	st := joblog.NewStore(schema, 2)
	for i := 0; i < 5; i++ {
		flat.MustAppend(rec(fmt.Sprintf("r%d", i), float64(i)))
		st.MustAppend(rec(fmt.Sprintf("r%d", i), float64(i)))
	}

	ly := LayoutOf(flat)
	if LayoutOf(flat) != ly {
		t.Error("layout not memoized for an unchanged log")
	}
	if ss := ly.Slices(); len(ss) != 1 || ss[0].Hash != joblog.HashSlice(flat.Wire(), nil) {
		t.Fatalf("flat layout ships %d slices; want one hashed like the log's wire form", len(ss))
	}
	flat.MustAppend(rec("r5", 5))
	grown := LayoutOf(flat)
	if grown == ly || grown.Slices()[0].Hash == ly.Slices()[0].Hash {
		t.Error("layout not refreshed after the log grew")
	}

	snap := st.Snapshot()
	views := snap.Segments()
	if len(views) != 3 {
		t.Fatalf("fixture snapshot has %d segments, want 3", len(views))
	}
	ss := LayoutOf(snap.Log()).Slices()
	checkSegmentSlices(t, "snapshot", snap.Log(), ss)
	data, err := view(nil, ss)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(data.Log.Wire(), snap.Log().Wire()) {
		t.Error("decoded segment slices do not concatenate to the snapshot log")
	}
	if got := flat.Segments(); got != nil {
		t.Errorf("flat log reports %d segments", len(got))
	}
}
