package core

import (
	"context"
	"fmt"
	"math/rand"
	"sort"

	"perfxplain/internal/bitset"
	"perfxplain/internal/dtree"
	"perfxplain/internal/features"
	"perfxplain/internal/joblog"
	"perfxplain/internal/par"
	"perfxplain/internal/pxql"
	"perfxplain/internal/stats"
)

// Config tunes the explainer. The zero value is not usable; use
// DefaultConfig as a base.
type Config struct {
	// Width is the number of atomic predicates in a generated because
	// clause. Default 3 (the paper's usual setting).
	Width int
	// DespiteWidth is the width of generated despite extensions. Default 3
	// (Section 6.4 restricts generated clauses to width 3).
	DespiteWidth int
	// SampleSize is the target size of the balanced training sample.
	// Default 2000 (Section 4.3).
	SampleSize int
	// PrecisionWeight blends precision vs generality scores; the paper
	// uses 0.8.
	PrecisionWeight float64
	// Level selects the feature hierarchy level (Section 6.8). Default
	// Level3 (the full Table 1 set).
	Level features.Level
	// Target is the raw feature whose derived features are the query
	// subject and therefore excluded from generated clauses. Default
	// "duration".
	Target string
	// MaxPairs caps enumerated related pairs; larger pair spaces are
	// Bernoulli-subsampled. Default 200000.
	MaxPairs int
	// SampleMode selects how an over-budget pair space is thinned.
	// "bernoulli" (or empty, the default) keeps each candidate pair
	// independently with probability budget/total — the seed-stable
	// behaviour every golden output pins. "stratified" draws a fixed
	// per-blocking-group quota instead (proportional allocation with a
	// small-group floor, see stratifyBudgets), so rare strata survive
	// skew that would starve them under Bernoulli thinning, and the
	// explanation carries Wilson confidence bounds on its training
	// diagnostics. Both modes are deterministic in the seed and
	// byte-identical at every parallelism and shard count.
	SampleMode string
	// SampleBudget is the stratified mode's total pair budget; <= 0
	// defaults to MaxPairs. Ignored in Bernoulli mode.
	SampleBudget int
	// SamplePilot enables Wilson-adaptive two-pass stratified sampling:
	// the fraction (0 < SamplePilot < 1) of SampleBudget spent on a pilot
	// round allocated per the proportional rule, after which the
	// remainder is allocated proportional to each stratum's (Wilson
	// interval width × pair space) — budget flows to the strata whose
	// estimates are still uncertain instead of merely large (see
	// adaptiveBudgets). 0, the default, keeps the one-shot proportional
	// allocation. Requires SampleMode "stratified". The sampled set
	// remains deterministic in the seed and byte-identical at every
	// parallelism and shard count.
	SamplePilot float64
	// TopK caps how many candidate predicates each growth round scores
	// fully: candidates are ranked by information gain and only the top K
	// enter the percentile-rank blend. 0 keeps every candidate. Defaults
	// to 32 in stratified mode and 0 (off) otherwise — the percentile
	// normalisation makes pruning visible in exact outputs, so it is
	// opt-in there.
	TopK int
	// Seed drives sampling.
	Seed int64
	// RawScores disables the percentile-rank normalisation of precision
	// and generality (ablation; Section 4.2 explains why normalisation is
	// needed).
	RawScores bool
	// UnbalancedSample replaces the class-balanced sampler with a uniform
	// one (ablation for Section 4.3).
	UnbalancedSample bool
	// DiverseSample additionally caps how often a single execution may
	// appear in the training sample, implementing the paper's Section 4.3
	// future-work idea of biasing toward a varied set of executions.
	DiverseSample bool
	// Parallelism bounds the worker goroutines used for pair enumeration,
	// materialization and predicate scoring. Values <= 0 mean
	// runtime.GOMAXPROCS(0). Output is byte-identical at every setting.
	Parallelism int
	// Shards is the number of self-contained shard specs the planner cuts
	// the pair pipeline into when Runner is set; <= 0 means one per
	// Parallelism worker. Output is byte-identical at every shard count.
	Shards int
	// Runner executes planned shard specs — in-process or on worker
	// subprocesses (see internal/shard). nil selects the direct
	// single-process path. Specs plan over the log's segment layout
	// (see LayoutOf): a store snapshot ships its per-segment slices, so
	// sealed segments stay warm in worker caches across appends.
	Runner ShardRunner
}

// DefaultConfig returns the paper's settings.
func DefaultConfig() Config {
	return Config{
		Width:           3,
		DespiteWidth:    3,
		SampleSize:      2000,
		PrecisionWeight: 0.8,
		Level:           features.Level3,
		Target:          "duration",
		MaxPairs:        200000,
	}
}

func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.Width <= 0 {
		c.Width = d.Width
	}
	if c.DespiteWidth <= 0 {
		c.DespiteWidth = d.DespiteWidth
	}
	if c.SampleSize <= 0 {
		c.SampleSize = d.SampleSize
	}
	if c.PrecisionWeight == 0 {
		c.PrecisionWeight = d.PrecisionWeight
	}
	if c.Level == 0 {
		c.Level = d.Level
	}
	if c.Target == "" {
		c.Target = d.Target
	}
	if c.MaxPairs == 0 {
		c.MaxPairs = d.MaxPairs
	}
	if c.SampleMode == SampleStratified {
		if c.SampleBudget <= 0 {
			c.SampleBudget = c.MaxPairs
		}
		if c.TopK == 0 {
			c.TopK = 32
		}
	}
	if c.TopK < 0 {
		c.TopK = 0
	}
	if c.Runner != nil && c.Shards <= 0 {
		c.Shards = par.Resolve(c.Parallelism)
	}
	return c
}

// SampleMode values.
const (
	// SampleBernoulli is the default independent-keep thinning.
	SampleBernoulli = "bernoulli"
	// SampleStratified is per-blocking-group budgeted sampling with
	// Wilson confidence bounds on the training diagnostics.
	SampleStratified = "stratified"
)

// Explainer answers PXQL queries against one execution log.
type Explainer struct {
	log *joblog.Log
	d   *features.Deriver
	cfg Config
}

// NewExplainer builds an explainer over the log.
func NewExplainer(log *joblog.Log, cfg Config) (*Explainer, error) {
	if cfg.SampleMode != "" && cfg.SampleMode != SampleBernoulli && cfg.SampleMode != SampleStratified {
		return nil, fmt.Errorf("core: unknown sample mode %q (want %q or %q)",
			cfg.SampleMode, SampleBernoulli, SampleStratified)
	}
	if cfg.SamplePilot < 0 || cfg.SamplePilot >= 1 {
		return nil, fmt.Errorf("core: sample pilot fraction %v outside [0, 1)", cfg.SamplePilot)
	}
	if cfg.SamplePilot > 0 && cfg.SampleMode != SampleStratified {
		return nil, fmt.Errorf("core: sample pilot fraction requires sample mode %q", SampleStratified)
	}
	cfg = cfg.withDefaults()
	if log == nil || log.Len() == 0 {
		return nil, fmt.Errorf("core: empty log")
	}
	if _, ok := log.Schema.Index(cfg.Target); !ok {
		return nil, fmt.Errorf("core: log has no target feature %q", cfg.Target)
	}
	// The deriver always exposes the full Table 1 feature set: queries may
	// mention any derived feature regardless of the configured level. The
	// level only restricts which features generated clauses may use
	// (Section 6.8), enforced in candidates().
	return &Explainer{log: log, d: features.NewDeriver(log.Schema, features.Level3), cfg: cfg}, nil
}

// Deriver exposes the derived pair schema (for query validation and
// metric evaluation).
func (e *Explainer) Deriver() *features.Deriver { return e.d }

// Log returns the underlying execution log.
func (e *Explainer) Log() *joblog.Log { return e.log }

// Explanation is the answer to a PXQL query.
type Explanation struct {
	// Despite is the generated despite extension des' (empty when despite
	// generation was not requested). The user's own despite clause is in
	// the query, not here.
	Despite pxql.Predicate
	// Because is the generated because clause.
	Because pxql.Predicate

	// Training diagnostics, measured on the (sampled) training pairs.
	TrainPrecision  float64 // P(obs | bec ∧ des' ∧ des) on the sample
	TrainGenerality float64 // P(bec | des' ∧ des) on the sample
	TrainRelevance  float64 // P(exp | des' ∧ des) on the related pairs
	SampleSize      int
	RelatedPairs    int

	// TrainRelevanceLo/Hi bound TrainRelevance with a 95% Wilson score
	// interval when the pair space was sampled approximately (stratified
	// mode); both stay zero in exact/Bernoulli mode.
	TrainRelevanceLo float64
	TrainRelevanceHi float64

	// Atoms records per-predicate marginal quality: entry i holds the
	// cumulative precision and generality of the because clause's first
	// i+1 atoms on the training sample. Greedy construction puts the most
	// important predicate first (Section 3.3's ordering requirement); this
	// makes the claim inspectable.
	Atoms []AtomStats
}

// AtomStats is the cumulative quality of a because-clause prefix.
type AtomStats struct {
	Atom       pxql.Atom
	Precision  float64 // P(obs | first i+1 atoms) on the sample
	Generality float64 // P(first i+1 atoms) on the sample

	// 95% Wilson score intervals around Precision and Generality,
	// populated only in stratified sampling mode (zero otherwise).
	PrecisionLo  float64
	PrecisionHi  float64
	GeneralityLo float64
	GeneralityHi float64
}

// wilsonZ is the critical value of the 95% confidence intervals attached
// to stratified-mode diagnostics.
const wilsonZ = 1.96

// String renders the explanation in the paper's DESPITE/BECAUSE form.
func (x *Explanation) String() string {
	return fmt.Sprintf("DESPITE %s\nBECAUSE %s", x.Despite, x.Because)
}

// bind resolves the query's pair of interest and checks Definition 1:
// des and obs must hold on the pair, exp must not.
func (e *Explainer) bind(q *pxql.Query) (a, b *joblog.Record, err error) {
	if q.ID1 == "" || q.ID2 == "" {
		return nil, nil, fmt.Errorf("core: query does not name a pair of interest")
	}
	a = e.log.Find(q.ID1)
	if a == nil {
		return nil, nil, fmt.Errorf("core: no record %q in log", q.ID1)
	}
	b = e.log.Find(q.ID2)
	if b == nil {
		return nil, nil, fmt.Errorf("core: no record %q in log", q.ID2)
	}
	if err := q.Validate(e.d.Schema()); err != nil {
		return nil, nil, err
	}
	if !q.Despite.EvalPair(e.d, a, b) {
		return nil, nil, fmt.Errorf("core: despite clause does not hold for (%s, %s)", q.ID1, q.ID2)
	}
	if !q.Observed.EvalPair(e.d, a, b) {
		return nil, nil, fmt.Errorf("core: observed clause does not hold for (%s, %s)", q.ID1, q.ID2)
	}
	if q.Expected.EvalPair(e.d, a, b) {
		return nil, nil, fmt.Errorf("core: expected clause holds for (%s, %s); nothing to explain", q.ID1, q.ID2)
	}
	return a, b, nil
}

// Explain generates the because clause for the query, using the user's
// despite clause as-is (the paper's default mode).
func (e *Explainer) Explain(q *pxql.Query) (*Explanation, error) {
	return e.explain(context.Background(), q, false)
}

// ExplainCtx is Explain with a cancellation context: the pipeline
// checks ctx between its stages and at every growth round, returning
// ctx.Err() once it is done. Cancellation never perturbs a completed
// result — an explanation returned without error is byte-identical to
// an uncancelled run. The context carries cancellation only; it is
// never consulted for values or deadlines directly, so the
// deterministic-output contract is untouched.
func (e *Explainer) ExplainCtx(ctx context.Context, q *pxql.Query) (*Explanation, error) {
	return e.explain(ctx, q, false)
}

// ExplainWithDespite first generates a despite extension des' (Section
// 6.4), then generates the because clause in the context des ∧ des'.
func (e *Explainer) ExplainWithDespite(q *pxql.Query) (*Explanation, error) {
	return e.explain(context.Background(), q, true)
}

// ExplainWithDespiteCtx is ExplainWithDespite with a cancellation
// context (see ExplainCtx for the checkpoint contract).
func (e *Explainer) ExplainWithDespiteCtx(ctx context.Context, q *pxql.Query) (*Explanation, error) {
	return e.explain(ctx, q, true)
}

func (e *Explainer) explain(ctx context.Context, q *pxql.Query, genDespite bool) (*Explanation, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	a, b, err := e.bind(q)
	if err != nil {
		return nil, err
	}
	x := &Explanation{}
	despite := q.Despite
	if genDespite {
		des, err := e.generateDespite(ctx, q, a, b)
		if err != nil {
			return nil, err
		}
		x.Despite = des
		despite = q.Despite.And(des)
	}

	related, err := e.enumeratePairs(ctx, q, despite, stats.DeriveSeed(e.cfg.Seed, "because-pairs"))
	if err != nil {
		return nil, err
	}
	x.RelatedPairs = len(related.refs)
	if len(related.refs) == 0 {
		return nil, fmt.Errorf("core: no related pairs in the log for this query")
	}
	nObs, _ := related.counts()
	x.TrainRelevance = 1 - float64(nObs)/float64(len(related.refs))
	strat := e.cfg.SampleMode == SampleStratified
	if strat {
		x.TrainRelevanceLo, x.TrainRelevanceHi = stats.Wilson(len(related.refs)-nObs, len(related.refs), wilsonZ)
	}

	// Sampling stays serial: it is O(pairs) cheap, and drawing from one
	// sequential stream over the deterministically ordered pair set keeps
	// it reproducible.
	sample := e.sample(related, stats.DeriveRand(e.cfg.Seed, "because-sample"))
	x.SampleSize = len(sample.refs)
	plan := e.planSample(sample)
	m, err := e.materializePairs(ctx, sample, plan)
	if err != nil {
		return nil, err
	}
	pairVec := e.d.Vector(a, b)

	bc := newBitmapCache(m, e.cfg.Parallelism)
	bec, err := e.grow(ctx, bc, plan, sample.labels, pairVec, e.cfg.Width)
	if err != nil {
		return nil, err
	}
	x.Because = bec

	// Training diagnostics over the sample, per clause prefix: each atom
	// fills its own bitmap (the growth cache may hold only
	// working-set-live words; the prefix compose starts from every
	// sampled pair, so it cannot reuse those), ANDs into the running
	// prefix selection, and the counts are popcounts against the label
	// bitmap. The fill passes the running prefix as the live mask: a
	// word with no surviving prefix pair may keep stale bits in sel, but
	// AndWith leaves dead prefix words dead whatever sel holds there, so
	// the restriction skips plane work without changing a single count.
	in := e.log.Columns().Intern()
	posBits := bitset.FromBools(sample.labels)
	prefix := bitset.Make(m.N)
	prefix.Ones(m.N)
	sel := bitset.Make(m.N)
	for w := 1; w <= len(bec); w++ {
		a := bec[w-1]
		idx, _ := e.d.Schema().Index(a.Feature)
		ma := newMatrixAtom(e.d, in, idx, a)
		ma.fillRange(m, 0, m.N, sel, prefix)
		prefix.AndWith(sel)
		sat := prefix.Count()
		satObs := bitset.AndCount(prefix, posBits)
		st := AtomStats{Atom: a}
		if sat > 0 {
			st.Precision = float64(satObs) / float64(sat)
		}
		if m.N > 0 {
			st.Generality = float64(sat) / float64(m.N)
		}
		if strat {
			st.PrecisionLo, st.PrecisionHi = stats.Wilson(satObs, sat, wilsonZ)
			st.GeneralityLo, st.GeneralityHi = stats.Wilson(sat, m.N, wilsonZ)
		}
		x.Atoms = append(x.Atoms, st)
	}
	if n := len(x.Atoms); n > 0 {
		x.TrainPrecision = x.Atoms[n-1].Precision
		x.TrainGenerality = x.Atoms[n-1].Generality
	} else if m.N > 0 {
		// Empty clause: precision is the sample's observed fraction.
		obs := 0
		for _, l := range sample.labels {
			if l {
				obs++
			}
		}
		x.TrainPrecision = float64(obs) / float64(m.N)
		x.TrainGenerality = 1
	}
	return x, nil
}

// GenerateDespite produces only the despite extension for a query
// (PerfXplain's response to an under-specified query, Section 6.4).
func (e *Explainer) GenerateDespite(q *pxql.Query) (pxql.Predicate, error) {
	return e.GenerateDespiteCtx(context.Background(), q)
}

// GenerateDespiteCtx is GenerateDespite with a cancellation context
// (see ExplainCtx for the checkpoint contract).
func (e *Explainer) GenerateDespiteCtx(ctx context.Context, q *pxql.Query) (pxql.Predicate, error) {
	a, b, err := e.bind(q)
	if err != nil {
		return nil, err
	}
	return e.generateDespite(ctx, q, a, b)
}

func (e *Explainer) generateDespite(ctx context.Context, q *pxql.Query, a, b *joblog.Record) (pxql.Predicate, error) {
	related, err := e.enumeratePairs(ctx, q, q.Despite, stats.DeriveSeed(e.cfg.Seed, "despite-pairs"))
	if err != nil {
		return nil, err
	}
	if len(related.refs) == 0 {
		return nil, fmt.Errorf("core: no related pairs in the log for this query")
	}
	sample := e.sample(related, stats.DeriveRand(e.cfg.Seed, "despite-sample"))
	plan := e.planSample(sample)
	m, err := e.materializePairs(ctx, sample, plan)
	if err != nil {
		return nil, err
	}
	pairVec := e.d.Vector(a, b)

	// Positive class for despite generation is "performed as expected":
	// the clause should maximise relevance P(exp | des' ∧ des).
	flipped := make([]bool, len(sample.labels))
	for i, l := range sample.labels {
		flipped[i] = !l
	}
	return e.grow(ctx, newBitmapCache(m, e.cfg.Parallelism), plan, flipped, pairVec, e.cfg.DespiteWidth)
}

func (e *Explainer) sample(ps *pairSet, rng *rand.Rand) *pairSet {
	switch {
	case e.cfg.UnbalancedSample:
		return uniformSample(ps, e.cfg.SampleSize, rng)
	case e.cfg.DiverseSample:
		return diverseSample(ps, e.cfg.SampleSize, e.log, rng)
	default:
		return balancedSample(ps, e.cfg.SampleSize, rng)
	}
}

// grow is Algorithm 1's greedy loop, shared by because generation
// (positive labels = performed-as-observed) and despite generation
// (labels flipped so positive = performed-as-expected, turning the
// precision measure into relevance — the only change the paper makes to
// the algorithm for des' generation).
//
// Candidate scoring runs on selection bitmaps: each round's candidate
// atoms are evaluated once over the whole matrix into cached bitmaps
// (tile-parallel, see bitmapCache), then every candidate's precision and
// generality are two fused AND-popcounts against the working-set and
// label bitmaps, and the winner restricts the working set with one
// word-AND. The counts — and therefore the clause — are identical to
// the per-pair loops this replaces.
func (e *Explainer) grow(ctx context.Context, bc *bitmapCache, plan *plannedSample, labels []bool,
	pairVec []joblog.Value, width int) (pxql.Predicate, error) {

	m := bc.m
	var clause pxql.Predicate
	cur := make([]int, m.N)
	for i := range cur {
		cur[i] = i
	}
	posBits := bitset.FromBools(labels)
	curBits := bitset.Make(m.N)
	curBits.Ones(m.N)

	for round := 0; round < width; round++ {
		// The round loop is the cancellation checkpoint of the growth
		// phase: each round is one bounded unit of scoring work, so a
		// cancelled query stops within a round's latency of the signal.
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if len(cur) == 0 {
			break
		}
		// Stop when the remaining pairs are pure: no signal left.
		pos := bitset.AndCount(curBits, posBits)
		if pos == 0 || pos == len(cur) {
			break
		}

		cands, err := e.candidatesFor(m, plan, labels, cur, pairVec, clause)
		if err != nil {
			return nil, err
		}
		if len(cands) == 0 {
			break
		}

		// Top-K candidate pruning (opt-in, default-on in stratified
		// mode): keep only the K highest-gain candidates before the
		// bitmap fills, so dominated features never pay for a bitmap.
		// The survivors are restored to ascending feature order — the
		// order every downstream tie-break assumes.
		if k := e.cfg.TopK; k > 0 && len(cands) > k {
			sort.Slice(cands, func(a, b int) bool {
				if cands[a].gain != cands[b].gain {
					return cands[a].gain > cands[b].gain
				}
				return cands[a].featIdx < cands[b].featIdx
			})
			cands = cands[:k]
			sort.Slice(cands, func(a, b int) bool { return cands[a].featIdx < cands[b].featIdx })
		}

		// Cross-feature selection: percentile-normalised blend of
		// precision (P(positive | p)) and generality (P(p)). Each
		// candidate's counts compose from its bitmap by word-AND +
		// popcount; the heavy part — filling the distinct atoms' bitmaps —
		// ran tile-parallel in getAll, restricted to the working set's
		// live words. ubs[ci] bounds the candidate's possible satisfied
		// count from above (the bitmap's popcount at fill time; the
		// working set only shrinks), so a zero bound skips both fused
		// popcounts and a zero sat skips the three-way one — provably
		// the same counts either way.
		sels, ubs := bc.getAll(cands, curBits)
		precs := make([]float64, len(cands))
		gens := make([]float64, len(cands))
		for ci := range cands {
			sat := 0
			if ubs[ci] > 0 {
				sat = bitset.AndCount(sels[ci], curBits)
			}
			if sat > 0 {
				satPos := bitset.AndCount3(sels[ci], curBits, posBits)
				precs[ci] = float64(satPos) / float64(sat)
			}
			gens[ci] = float64(sat) / float64(len(cur))
		}
		precScores, genScores := precs, gens
		if !e.cfg.RawScores {
			precScores = stats.PercentileRanks(precs)
			genScores = stats.PercentileRanks(gens)
		}
		w := e.cfg.PrecisionWeight
		best, bestScore := -1, -1.0
		for ci := range cands {
			score := w*precScores[ci] + (1-w)*genScores[ci]
			if score > bestScore {
				best, bestScore = ci, score
			}
		}
		chosen := cands[best]
		clause = append(clause, chosen.atom)

		// Restrict the working set to pairs satisfying the clause so far.
		curBits.AndWith(sels[best])
		cur = cur[:0]
		curBits.ForEach(func(i int) { cur = append(cur, i) })
	}
	return clause, nil
}

// candidatesFor dispatches one candidate-scoring round to the shard
// runner when one is configured, and to the in-process per-feature loop
// otherwise. Both paths yield the same candidates in the same order.
func (e *Explainer) candidatesFor(m *features.PairMatrix, plan *plannedSample, labels []bool,
	cur []int, pairVec []joblog.Value, clause pxql.Predicate) ([]candidate, error) {

	if e.cfg.Runner != nil {
		return e.candidatesSharded(plan, labels, cur, pairVec, clause)
	}
	return e.candidates(m, labels, cur, pairVec, clause), nil
}

type candidate struct {
	featIdx int
	atom    pxql.Atom
	ma      matrixAtom
	gain    float64
}

// candidates builds the best applicable predicate per feature by
// information gain (Algorithm 1 line 5) — the algorithm's inner loop,
// scored concurrently across features straight off the pair-matrix
// planes: numeric features gather a flat float column, nominal features
// count interned symbols and only decode the few distinct values for the
// deterministic string-ordered tie-break. Results land in a per-feature
// slot and are compacted in schema order afterwards, so the candidate
// list is independent of scheduling. Features derived from the query
// target are excluded, as are features whose pair-of-interest value is
// missing (no applicable predicate exists) and atoms already in the
// clause.
func (e *Explainer) candidates(m *features.PairMatrix, labels []bool,
	cur []int, pairVec []joblog.Value, clause pxql.Predicate) []candidate {

	schema := e.d.Schema()
	in := e.log.Columns().Intern()
	subLabels := make([]bool, len(cur))
	for k, i := range cur {
		subLabels[k] = labels[i]
	}

	found := make([]*candidate, schema.Len())
	par.Do(schema.Len(), e.cfg.Parallelism, func(f int) {
		atom, gain, ok := scoreFeature(e.d, in, m, cur, subLabels, pairVec, clause, e.cfg.Target, e.cfg.Level, f)
		if !ok {
			return
		}
		found[f] = &candidate{featIdx: f, atom: atom, ma: newMatrixAtom(e.d, in, f, atom), gain: gain}
	})

	var out []candidate
	for _, c := range found {
		if c != nil {
			out = append(out, *c)
		}
	}
	return out
}

// scoreFeature computes the best applicable predicate over one derived
// feature f for one scoring round — the per-feature body of Algorithm 1
// line 5, shared verbatim by the in-process candidates loop and the
// shard-scoring executor (ScoreSpec.Run) so the two can never drift. cur
// addresses the working-set rows of m; subLabels is parallel to cur. ok
// is false when the feature is excluded (target-derived, above the
// clause feature level, inapplicable to the pair of interest, already in
// the clause) or admits no split.
func scoreFeature(d *features.Deriver, in *joblog.Intern, m *features.PairMatrix,
	cur []int, subLabels []bool, pairVec []joblog.Value, clause pxql.Predicate,
	target string, candLevel features.Level, f int) (pxql.Atom, float64, bool) {

	schema := d.Schema()
	rawIdx, kind := d.RawOf(f)
	if d.RawSchema().Field(rawIdx).Name == target {
		return pxql.Atom{}, 0, false
	}
	// Honour the configured feature level (Section 6.8): level 1 may
	// use only isSame features; level 2 adds compare and diff; level 3
	// adds base features.
	if candLevel == features.Level1 && kind != features.IsSame {
		return pxql.Atom{}, 0, false
	}
	if candLevel == features.Level2 && kind == features.Base {
		return pxql.Atom{}, 0, false
	}
	v0 := pairVec[f]
	if v0.IsMissing() {
		return pxql.Atom{}, 0, false // no predicate over f can hold on the pair of interest
	}
	var atom pxql.Atom
	var gain float64
	if numOff := d.NumOffset(f); numOff >= 0 {
		col := make([]float64, len(cur))
		for k, i := range cur {
			col[k] = m.NumAt(i, numOff)
		}
		thr, g, ok := dtree.BestThresholdF(col, subLabels)
		if !ok {
			return pxql.Atom{}, 0, false
		}
		op := pxql.OpLe
		if v0.Num > thr {
			op = pxql.OpGt
		}
		atom = pxql.Atom{Feature: schema.Field(f).Name, Op: op, Value: joblog.Num(thr)}
		gain = g
	} else {
		val, g, ok := bestNominalSyms(d, in, f, m, cur, subLabels)
		if !ok {
			return pxql.Atom{}, 0, false
		}
		// The split on value v* has the same gain whichever side the
		// predicate asserts; applicability picks the direction.
		op := pxql.OpEq
		if v0.Str != val {
			op = pxql.OpNe
		}
		atom = pxql.Atom{Feature: schema.Field(f).Name, Op: op, Value: joblog.Str(val)}
		gain = g
	}
	if containsAtom(clause, atom) {
		return pxql.Atom{}, 0, false
	}
	return atom, gain, true
}

// bestNominalSyms is BestNominalValue over a symbol-plane matrix column:
// class counts accumulate per interned symbol, then the few distinct
// symbols are decoded and merged by rendered string (distinct diff
// symbols may render identically when a value contains the arrow) so the
// scoring and its string-ordered tie-break match the row engine exactly.
func bestNominalSyms(d *features.Deriver, in *joblog.Intern, featIdx int,
	m *features.PairMatrix, cur []int, subLabels []bool) (string, float64, bool) {

	symOff := d.SymOffset(featIdx)
	type cnt struct{ pos, neg int }
	bySym := make(map[uint64]*cnt)
	for k, i := range cur {
		s := m.SymAt(i, symOff)
		if s == features.MissingSym {
			continue
		}
		c := bySym[s]
		if c == nil {
			c = &cnt{}
			bySym[s] = c
		}
		if subLabels[k] {
			c.pos++
		} else {
			c.neg++
		}
	}
	byVal := make(map[string]*cnt, len(bySym))
	//pxql:orderinvariant — integer count merge commutes; byVal is sorted below
	for s, c := range bySym {
		v := d.SymString(in, featIdx, s)
		if mc := byVal[v]; mc != nil {
			mc.pos += c.pos
			mc.neg += c.neg
		} else {
			byVal[v] = &cnt{pos: c.pos, neg: c.neg}
		}
	}
	vals := make([]string, 0, len(byVal))
	for v := range byVal {
		vals = append(vals, v)
	}
	sort.Strings(vals)
	counts := make([]dtree.NominalCount, len(vals))
	for i, v := range vals {
		counts[i] = dtree.NominalCount{Value: v, Pos: byVal[v].pos, Neg: byVal[v].neg}
	}
	return dtree.BestNominalFromCounts(counts, len(cur))
}

func containsAtom(p pxql.Predicate, a pxql.Atom) bool {
	for _, x := range p {
		if x.Feature == a.Feature && x.Op == a.Op && x.Value.Equal(a.Value) {
			return true
		}
	}
	return false
}
