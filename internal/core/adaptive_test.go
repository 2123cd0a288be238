package core

// Tests for Wilson-adaptive stratified budgets (adaptive.go): the
// allocator's floor/ceiling invariants, the draw stream's prefix
// monotonicity the two-pass scheme relies on, and the full pipeline's
// shard-count invariance with a pilot fraction configured.

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"perfxplain/internal/features"
	"perfxplain/internal/stats"
)

// TestGroupDrawsPrefixMonotonic pins the property the two-pass scheme
// rests on: a group's draw set at budget b1 is a subset of its draw set
// at any b2 >= b1 (same seed and group), so the final round's pairs
// contain the pilot round's and no pilot work is contradicted.
func TestGroupDrawsPrefixMonotonic(t *testing.T) {
	for _, tc := range []struct{ n, b1, b2 int }{
		{10, 5, 20}, {10, 16, 90}, {50, 16, 400}, {7, 1, 42}, {20, 100, 380},
	} {
		small := groupDraws(99, 777, tc.n, tc.b1)
		big := groupDraws(99, 777, tc.n, tc.b2)
		in := make(map[uint64]bool, len(big))
		for _, v := range big {
			in[v] = true
		}
		for _, v := range small {
			if !in[v] {
				t.Errorf("n=%d: draw %d in budget-%d set but not in budget-%d set", tc.n, v, tc.b1, tc.b2)
			}
		}
	}
}

// TestAdaptiveBudgetInvariants pins the allocator's contract: every
// final budget is at least the pilot allocation and the stratum floor
// (unless the whole group is taken), never exceeds the stratum's pair
// space, the total lands in the budget's band, and the allocation is a
// pure function of its inputs.
func TestAdaptiveBudgetInvariants(t *testing.T) {
	// 30 harmonically skewed groups; the query's cpus > 8.5 conjunct
	// leaves groups 9, 19 and 29 alive (~100/50/33 rows), so the total
	// pair space dwarfs the budget and nothing is absorbed whole.
	log := zoneSkewedLog(4000, 30, rand.New(rand.NewSource(61)))
	d := features.NewDeriver(log.Schema, features.Level3)
	q := zoneQuery()
	groups, _ := blockedGroupsOpt(log, q.Despite, 0, true, false)
	if len(groups) < 2 {
		t.Fatalf("fixture produced %d groups; need skew", len(groups))
	}
	const budget = 600
	pilotBs := stratifyBudgets(groups, pilotBudget(budget, 0.25))
	seed := stats.DeriveSeed(5, "adaptive-test")
	pilot := enumerateRelatedOpt(log, d, q, q.Despite, seed, 1, enumOpts{stratified: true, budgets: pilotBs})

	finalBs := adaptiveBudgets(groups, pilotBs, pilot, budget)
	if len(finalBs) != len(groups) {
		t.Fatalf("budgets/groups length mismatch: %d vs %d", len(finalBs), len(groups))
	}
	total := 0
	for gi, g := range groups {
		m := len(g) * (len(g) - 1)
		b := finalBs[gi]
		if b < pilotBs[gi] {
			t.Errorf("group %d: final budget %d below pilot %d — the pilot draws would dangle", gi, b, pilotBs[gi])
		}
		if b > m {
			t.Errorf("group %d: budget %d exceeds pair space %d", gi, b, m)
		}
		if b < m && b < stratumFloor {
			t.Errorf("group %d: partial budget %d below the stratum floor %d", gi, b, stratumFloor)
		}
		total += b
	}
	if total < budget/2 || total > budget+stratumFloor*len(groups) {
		t.Errorf("total allocation %d is out of band for budget %d over %d groups", total, budget, len(groups))
	}
	if again := adaptiveBudgets(groups, pilotBs, pilot, budget); !reflect.DeepEqual(finalBs, again) {
		t.Error("adaptiveBudgets is not deterministic in its inputs")
	}

	// The allocator must actually react to uncertainty: zeroing every
	// pilot count (width 1 everywhere) falls back to pair-space
	// proportions, which the real pilot counts should perturb for at
	// least one stratum on this fixture.
	flat := adaptiveBudgets(groups, pilotBs, &pairSet{}, budget)
	if reflect.DeepEqual(finalBs, flat) {
		t.Log("warning: pilot counts did not move any allocation on this fixture")
	}
}

// TestAdaptiveStatisticalEquivalence is the adaptive mode's acceptance
// test: with a pilot fraction configured the explainer still recovers
// the planted cause, stays within the budget's order of magnitude, and
// the whole two-pass pipeline is byte-identical across shard counts
// 1, 2 and 7.
func TestAdaptiveStatisticalEquivalence(t *testing.T) {
	log := zoneSkewedLog(350, 20, rand.New(rand.NewSource(31)))
	q := zoneQuery()
	d := features.NewDeriver(log.Schema, features.Level3)
	bindZonePair(t, log, d, q)

	adaptive := func(shards int) *Explanation {
		cfg := Config{Width: 1, Seed: 11, SampleMode: SampleStratified, SampleBudget: 2500, SamplePilot: 0.25}
		if shards > 0 {
			cfg.Shards = shards
			cfg.Runner = serialEvalRunner{}
		}
		ex, err := NewExplainer(log, cfg)
		if err != nil {
			t.Fatal(err)
		}
		x, err := ex.Explain(q)
		if err != nil {
			t.Fatal(err)
		}
		return x
	}
	base := adaptive(0)

	if len(base.Because) != 1 {
		t.Fatalf("because = %v", base.Because)
	}
	if raw, _ := features.ParseName(base.Because[0].Feature); raw != "x" {
		t.Errorf("planted cause not recovered: %v", base.Because)
	}
	if base.RelatedPairs == 0 {
		t.Fatal("adaptive enumeration found no related pairs")
	}
	st := base.Atoms[0]
	const eps = 1e-9
	if !(st.PrecisionLo <= st.Precision+eps && st.Precision <= st.PrecisionHi+eps) {
		t.Errorf("precision bound [%v, %v] does not bracket %v", st.PrecisionLo, st.PrecisionHi, st.Precision)
	}

	want := fmt.Sprintf("%v %+v %v %v", base.Because, base.Atoms, base.TrainRelevance, base.RelatedPairs)
	for _, shards := range []int{1, 2, 7} {
		x := adaptive(shards)
		got := fmt.Sprintf("%v %+v %v %v", x.Because, x.Atoms, x.TrainRelevance, x.RelatedPairs)
		if got != want {
			t.Errorf("shards=%d: adaptive explanation differs:\n%s\nvs in-process:\n%s", shards, got, want)
		}
	}
}

// TestAdaptiveConfigValidation pins the pilot fraction's guard rails:
// it must lie in [0, 1) and requires stratified mode.
func TestAdaptiveConfigValidation(t *testing.T) {
	log := zoneSkewedLog(50, 5, rand.New(rand.NewSource(67)))
	for _, tc := range []struct {
		name string
		cfg  Config
		ok   bool
	}{
		{"off", Config{}, true},
		{"valid", Config{SampleMode: SampleStratified, SamplePilot: 0.2}, true},
		{"negative", Config{SampleMode: SampleStratified, SamplePilot: -0.1}, false},
		{"one", Config{SampleMode: SampleStratified, SamplePilot: 1}, false},
		{"no-stratified", Config{SamplePilot: 0.2}, false},
		{"bernoulli", Config{SampleMode: SampleBernoulli, SamplePilot: 0.2}, false},
	} {
		_, err := NewExplainer(log, tc.cfg)
		if tc.ok && err != nil {
			t.Errorf("%s: unexpected error %v", tc.name, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("%s: config accepted; want an error", tc.name)
		}
	}
}

// TestEnumSpecRoundValidation pins the wire guard on the round marker.
func TestEnumSpecRoundValidation(t *testing.T) {
	log := zoneSkewedLog(60, 5, rand.New(rand.NewSource(71)))
	q := zoneQuery()
	// Block on the script alone: the full zone despite prunes every
	// group of this small log, and an empty pair space plans no spec.
	specs := PlanEnumShardsStratified(log, features.Level3, q, q.Despite[:1], 100, 1, 9)
	if len(specs) != 1 {
		t.Fatalf("planned %d specs", len(specs))
	}
	if specs[0].Round != RoundFinal {
		t.Fatalf("one-shot plan marked round %d", specs[0].Round)
	}
	bad := specs[0]
	bad.Round = 7
	if _, err := bad.Run(); err == nil {
		t.Error("round 7 accepted; want a validation error")
	}
	pilotNoStrat := specs[0]
	pilotNoStrat.Stratified = false
	pilotNoStrat.Round = RoundPilot
	if _, err := pilotNoStrat.Run(); err == nil {
		t.Error("pilot round without stratified mode accepted; want a validation error")
	}
	pilot := specs[0]
	pilot.Round = RoundPilot
	if _, err := pilot.Run(); err != nil {
		t.Errorf("valid pilot spec rejected: %v", err)
	}
}

// TestAdaptiveBudgetsShiftTowardUncertainty feeds the allocator a
// synthetic pilot where one stratum is perfectly certain (all pairs one
// label) and another maximally uncertain (an even split), and asserts
// the uncertain stratum receives strictly more of the remainder.
func TestAdaptiveBudgetsShiftTowardUncertainty(t *testing.T) {
	// Two equal-size groups of 40 rows: pair space 1560 each.
	var g0, g1 []int
	for i := 0; i < 40; i++ {
		g0 = append(g0, i)
		g1 = append(g1, 40+i)
	}
	groups := [][]int{g0, g1}
	pilotBs := []int{100, 100}
	pilot := &pairSet{}
	for k := 0; k < 100; k++ {
		// Stratum 0: all observed (certain). Stratum 1: alternating (uncertain).
		pilot.refs = append(pilot.refs, pairRef{a: g0[k%40], b: g0[(k+1)%40]})
		pilot.labels = append(pilot.labels, true)
		pilot.refs = append(pilot.refs, pairRef{a: g1[k%40], b: g1[(k+1)%40]})
		pilot.labels = append(pilot.labels, k%2 == 0)
	}
	bs := adaptiveBudgets(groups, pilotBs, pilot, 800)
	if bs[1] <= bs[0] {
		t.Errorf("uncertain stratum got %d <= certain stratum's %d; budget did not follow the Wilson width", bs[1], bs[0])
	}
	if again := adaptiveBudgets(groups, pilotBs, pilot, 800); !reflect.DeepEqual(bs, again) {
		t.Error("allocator not deterministic")
	}
}
