// Package perfxplain is a from-scratch reproduction of PerfXplain
// (Khoussainova, Balazinska, Suciu — "PerfXplain: Debugging MapReduce Job
// Performance", PVLDB 5(7), 2012): a system that explains the relative
// performance of pairs of MapReduce jobs or tasks from a log of past
// executions.
//
// A user asks a PXQL query — "despite these conditions, I observed this
// behaviour but expected that one; why?" — over a pair of executions, and
// PerfXplain answers with a (despite, because) explanation learned from
// the log:
//
//	jobs, tasks, _ := perfxplain.Collect(perfxplain.SweepOptions{Small: true, Seed: 1})
//	ex, _ := perfxplain.NewExplainer(jobs, perfxplain.Options{})
//	x, _ := ex.ExplainQuery(`
//	    FOR J1, J2 WHERE J1.JobID = 'job-0004' AND J2.JobID = 'job-0020'
//	    DESPITE numinstances_issame = T AND pigscript_issame = T
//	    OBSERVED duration_compare = GT
//	    EXPECTED duration_compare = SIM`)
//	fmt.Println(x)
//
// The package also bundles the full substrate the paper's evaluation
// needed — a working MapReduce engine with a virtual-time EC2-style
// cluster simulator, a Ganglia-style monitor, the two Pig benchmark
// workloads over a synthetic Excite query log, Hadoop-style job-history
// parsing — plus the paper's two baseline explanation generators
// (RuleOfThumb and SimButDiff) and quality metrics (relevance, precision,
// generality).
package perfxplain

import (
	"context"
	"fmt"
	"io"
	"net"
	"os"
	"strings"

	"perfxplain/internal/baselines"
	"perfxplain/internal/collect"
	"perfxplain/internal/core"
	"perfxplain/internal/features"
	"perfxplain/internal/hadooplog"
	"perfxplain/internal/joblog"
	"perfxplain/internal/pxql"
	"perfxplain/internal/shard"
)

// Log is an execution log: one record per job or task with its raw
// features (configuration, data characteristics, counters, Ganglia
// averages) and duration.
type Log struct {
	l *joblog.Log
}

// Len returns the number of logged executions.
func (l *Log) Len() int { return l.l.Len() }

// IDs returns the record identifiers in log order.
func (l *Log) IDs() []string {
	out := make([]string, 0, l.l.Len())
	for _, r := range l.l.Records {
		out = append(out, r.ID)
	}
	return out
}

// FeatureNames returns the raw feature names of the log's schema.
func (l *Log) FeatureNames() []string {
	fields := l.l.Schema.Fields()
	out := make([]string, len(fields))
	for i, f := range fields {
		out[i] = f.Name
	}
	return out
}

// FieldInfo describes one schema field: its name and kind ("numeric" or
// "nominal").
type FieldInfo struct {
	Name string
	Kind string
}

// Fields returns the log's schema as (name, kind) pairs in field order —
// the introspection behind the explanation server's /api/schema endpoint
// and the REPL's .schema command.
func (l *Log) Fields() []FieldInfo {
	fields := l.l.Schema.Fields()
	out := make([]FieldInfo, len(fields))
	for i, f := range fields {
		out[i] = FieldInfo{Name: f.Name, Kind: f.Kind.String()}
	}
	return out
}

// Domain returns the sorted distinct non-missing values observed for a
// nominal field (nil for numeric or unknown fields). The scan is
// memoized on the log; callers must not mutate the result.
func (l *Log) Domain(field string) []string { return l.l.Domain(field) }

// NumericRange returns the observed min and max of a numeric field,
// ignoring missing values. ok is false when the field is absent,
// nominal, or entirely missing.
func (l *Log) NumericRange(field string) (min, max float64, ok bool) {
	return l.l.NumericRange(field)
}

// Feature returns the string form of a record's raw feature value; the
// empty string means missing. ok is false when the record or feature does
// not exist.
func (l *Log) Feature(id, feature string) (value string, ok bool) {
	r := l.l.Find(id)
	if r == nil {
		return "", false
	}
	if _, exists := l.l.Schema.Index(feature); !exists {
		return "", false
	}
	return l.l.Value(r, feature).String(), true
}

// Filter returns a new log holding the records for which keep returns
// true; keep receives the record's ID.
func (l *Log) Filter(keep func(id string) bool) *Log {
	return &Log{l: l.l.Filter(func(r *joblog.Record) bool { return keep(r.ID) })}
}

// WriteCSV writes the log in the self-describing CSV format.
func (l *Log) WriteCSV(w io.Writer) error { return l.l.WriteCSV(w) }

// WriteJSON writes the log as JSON.
func (l *Log) WriteJSON(w io.Writer) error { return l.l.WriteJSON(w) }

// ReadLogCSV reads a log written by WriteCSV.
func ReadLogCSV(r io.Reader) (*Log, error) {
	l, err := joblog.ReadCSV(r)
	if err != nil {
		return nil, err
	}
	return &Log{l: l}, nil
}

// ReadLogJSON reads a log written by WriteJSON.
func ReadLogJSON(r io.Reader) (*Log, error) {
	l, err := joblog.ReadJSON(r)
	if err != nil {
		return nil, err
	}
	return &Log{l: l}, nil
}

// SweepOptions configures Collect.
type SweepOptions struct {
	// Small runs a 32-job grid instead of the paper's full 540-job
	// Table 2 sweep — handy for tests and examples.
	Small bool
	// Seed makes the collected log reproducible.
	Seed int64
	// Parallelism bounds the worker goroutines simulating sweep cells
	// (<= 0 means all cores). The collected log is byte-identical at
	// every setting.
	Parallelism int
	// SealEvery is the segment-seal threshold used by CollectStream
	// (non-positive selects the library default). Collect ignores it.
	SealEvery int
}

// Collect executes the paper's parameter sweep on the simulated cluster
// and returns the job and task execution logs.
func Collect(opt SweepOptions) (jobs, tasks *Log, err error) {
	sweep := collect.DefaultSweep(opt.Seed)
	if opt.Small {
		sweep = collect.SmallSweep(opt.Seed)
	}
	sweep.Parallelism = opt.Parallelism
	res, err := sweep.Collect()
	if err != nil {
		return nil, nil, err
	}
	return &Log{l: res.Jobs}, &Log{l: res.Tasks}, nil
}

// CollectStream is Collect in tailing mode: grid cells stream into
// segment stores as they complete in grid order, so queries can run
// against a watermark snapshot while the rest of the sweep is still
// simulating. The stores' snapshots are byte-identical to Collect's
// logs for the same options.
func CollectStream(opt SweepOptions) (jobs, tasks *Store, err error) {
	sweep := collect.DefaultSweep(opt.Seed)
	if opt.Small {
		sweep = collect.SmallSweep(opt.Seed)
	}
	sweep.Parallelism = opt.Parallelism
	res, err := sweep.CollectStream(opt.SealEvery)
	if err != nil {
		return nil, nil, err
	}
	return &Store{res.Jobs}, &Store{res.Tasks}, nil
}

// Store is a growable execution log: sealed immutable segments plus a
// small mutable tail. Appends never invalidate what is already sealed —
// a sealed segment keeps its content hash, columnar planes, sorted
// indexes and statistics forever, so explainers over successive
// snapshots re-ship only the tail to shard workers while the sealed
// segments stay cached worker-side. Every method is safe for concurrent
// use; queries run against Snapshot(), a consistent watermark that
// later appends never mutate.
type Store struct {
	s *joblog.Store
}

// NewStore returns an empty store with the same schema as like.
// sealEvery is the tail size at which a segment seals (non-positive
// selects the library default).
func NewStore(like *Log, sealEvery int) *Store {
	return &Store{joblog.NewStore(like.l.Schema, sealEvery)}
}

// Ingest appends every record of l to the store, in log order.
func (s *Store) Ingest(l *Log) error {
	for _, r := range l.l.Records {
		if err := s.s.Append(r); err != nil {
			return err
		}
	}
	return nil
}

// Seal forces the current tail into a sealed segment (a no-op on an
// empty tail). Appends normally seal automatically at the threshold;
// explicit sealing marks a natural boundary — the end of a batch —
// so the next snapshot ships no mutable tail at all.
func (s *Store) Seal() { s.s.Seal() }

// Len returns the number of records (sealed plus tail).
func (s *Store) Len() int { return s.s.Len() }

// SealedSegments returns the number of sealed segments.
func (s *Store) SealedSegments() int { return s.s.SealedSegments() }

// Snapshot returns the store's current contents as a Log: a consistent
// watermark that later appends never change. The snapshot carries its
// segment views, so shard workers of explainers and evaluations built
// over it receive one hashed slice per segment — explanations are
// byte-identical to the same records in a flat log.
func (s *Store) Snapshot() *Log {
	snap := s.s.Snapshot()
	return &Log{l: snap.Log()}
}

// Watermark returns the store's generation counter: a monotonic value
// ticked by every append (and every forced seal). Two snapshots taken
// at the same watermark hold exactly the same records, so the watermark
// is a sound cache key for anything derived from a snapshot.
func (s *Store) Watermark() uint64 { return s.s.Gen() }

// SnapshotAt returns the current snapshot together with the watermark
// it was taken at, as one atomic observation — unlike a separate
// Watermark() + Snapshot() pair, no append can slip between the two.
// Snapshots are memoized per watermark, so repeated calls between
// appends return the same Log (with its warmed columnar planes, sorted
// indexes and bitmap memos).
func (s *Store) SnapshotAt() (*Log, uint64) {
	snap := s.s.Snapshot()
	return &Log{l: snap.Log()}, snap.Gen()
}

// LogsFromHistory parses Hadoop-style job-history streams (as written by
// the pxqlcollect tool) into job and task logs. History files carry
// counters, placement and timing but no Ganglia metrics; those features
// are missing in the result, which PerfXplain handles natively.
func LogsFromHistory(readers ...io.Reader) (jobs, tasks *Log, err error) {
	jobSchema := collect.JobSchema()
	taskSchema := collect.TaskSchema()
	jl := joblog.NewLog(jobSchema)
	tl := joblog.NewLog(taskSchema)
	for i, r := range readers {
		res, err := hadooplog.ReadJob(r)
		if err != nil {
			return nil, nil, fmt.Errorf("perfxplain: history stream %d: %w", i, err)
		}
		if err := jl.Append(collect.JobRecord(jobSchema, res, res.Start)); err != nil {
			return nil, nil, err
		}
		for _, tr := range collect.TaskRecords(taskSchema, res, 0) {
			if err := tl.Append(tr); err != nil {
				return nil, nil, err
			}
		}
	}
	return &Log{l: jl}, &Log{l: tl}, nil
}

// Query is a parsed PXQL query.
type Query struct {
	q *pxql.Query
}

// ParseQuery parses PXQL source (see the package example for the
// grammar). The FOR/WHERE clause binds the pair of interest.
func ParseQuery(src string) (*Query, error) {
	q, err := pxql.Parse(src)
	if err != nil {
		return nil, err
	}
	return &Query{q}, nil
}

// Bind sets the query's pair of interest by record ID.
func (q *Query) Bind(id1, id2 string) {
	q.q.ID1, q.q.ID2 = id1, id2
}

// Pair returns the bound pair of interest.
func (q *Query) Pair() (id1, id2 string) { return q.q.ID1, q.q.ID2 }

// String renders the query in PXQL syntax.
func (q *Query) String() string { return q.q.String() }

// Options tunes explanation generation; zero values take the paper's
// defaults (width 3, sample 2000, precision weight 0.8, full feature set).
type Options struct {
	// Width is the number of predicates in the because clause.
	Width int
	// DespiteWidth is the width of generated despite extensions.
	DespiteWidth int
	// SampleSize is the balanced training-sample target.
	SampleSize int
	// FeatureLevel restricts explanation features: 1 = isSame only,
	// 2 = + compare/diff, 3 = full (default).
	FeatureLevel int
	// MaxPairs caps pair enumeration (0 = library default).
	MaxPairs int
	// SampleMode selects how an over-budget pair space is thinned:
	// "bernoulli" (or empty, the default) keeps each candidate pair
	// independently — the historical, golden-pinned behaviour —
	// while "stratified" draws a fixed quota per blocking group, so
	// rare groups survive skew, and attaches 95% Wilson confidence
	// bounds to the explanation's training diagnostics (see
	// AtomDetail and TrainRelevanceBounds). Both modes are
	// deterministic per seed and byte-identical at every parallelism
	// and shard count.
	SampleMode string
	// SampleBudget is the stratified total pair budget (0 = MaxPairs).
	SampleBudget int
	// SamplePilot, in (0, 1), turns the stratified mode two-pass: that
	// fraction of SampleBudget is spent on a pilot round under the
	// proportional allocation, and the remainder is re-allocated toward
	// the strata whose pilot estimates carry the widest Wilson
	// intervals — uncertain strata get the draws, settled ones stop
	// early. 0 (the default) keeps the one-shot proportional rule.
	// Requires SampleMode "stratified"; determinism guarantees are
	// unchanged (byte-identical at every parallelism and shard count).
	SamplePilot float64
	// Seed drives sampling; runs are deterministic per seed.
	Seed int64
	// Target selects the performance metric being explained (default
	// "duration"). The paper's approach applies directly to any numeric
	// metric in the log.
	Target string
	// DiverseSample biases the training sample toward a varied set of
	// executions (the paper's Section 4.3 future-work idea).
	DiverseSample bool
	// Parallelism bounds the worker goroutines used throughout the
	// explanation pipeline — pair enumeration, materialization, predicate
	// scoring and evaluation. Values <= 0 mean runtime.GOMAXPROCS(0), i.e.
	// all available cores. Explanations are byte-identical at every
	// setting: same seed, same answer, whatever the hardware.
	Parallelism int
	// Shards enables sharded execution of the pair pipeline: the
	// quadratic stages (enumeration, materialization, candidate scoring)
	// are planned into this many self-contained shard specs and executed
	// by a shard runtime — in-process by default, on worker subprocesses
	// when ShardWorkers is set. 0 disables sharding (the direct path).
	// Explanations are byte-identical at every shard count and in every
	// execution mode.
	Shards int
	// ShardWorkers, when > 0 alongside Shards, executes shards on that
	// many worker subprocesses speaking the shard protocol over pipes.
	// Call Explainer.Close to terminate them when done. With ShardAddrs
	// set it is the number of socket connections instead (default: one
	// per address).
	ShardWorkers int
	// ShardWorkerCommand is the argv spawned per worker (default: this
	// executable with the -shard-worker flag appended, which is what the
	// pxql and pxqlexperiments binaries implement).
	ShardWorkerCommand []string
	// ShardAddrs, when set alongside Shards, executes shards on remote
	// socket workers — machines running `pxql -shard-worker -listen`
	// (or ListenAndServeShardWorkers). Requires ShardToken.
	ShardAddrs []string
	// ShardToken is the shared secret of the socket handshake; it must
	// match the remote listeners' token.
	ShardToken string
	// SharedPool executes shards on a caller-owned worker pool (see
	// NewWorkerPool) instead of constructing one per explainer: harnesses
	// that build many explainers reuse one fleet — and its worker-side
	// slice caches — across all of them. Overrides ShardWorkers and
	// ShardAddrs; Explainer.Close leaves a shared pool running.
	SharedPool *WorkerPool
}

// WorkerPool is a shared fleet of shard workers — subprocesses or
// remote socket workers — that many explainers and evaluations can use
// concurrently. Hoisting pool ownership out of per-explainer
// construction keeps workers (and the log slices cached on them) alive
// across repeated explanations; close it once, when all users are done.
type WorkerPool struct {
	p *shard.Pool
}

// PoolOptions configures NewWorkerPool.
type PoolOptions struct {
	// Workers is the number of worker connections (default: 1, or one
	// per address when Addrs is set).
	Workers int
	// Command is the subprocess argv (default: this executable with
	// -shard-worker appended). Ignored when Addrs is set.
	Command []string
	// Env is appended to each subprocess worker's environment.
	Env []string
	// Addrs selects remote socket workers listening on these addresses.
	Addrs []string
	// Token is the shared handshake secret; required with Addrs.
	Token string
}

// NewWorkerPool builds a shard worker pool. The fleet is dialed lazily
// on first use; Close terminates it.
func NewWorkerPool(opt PoolOptions) (*WorkerPool, error) {
	p := &shard.Pool{Workers: opt.Workers}
	if len(opt.Addrs) > 0 {
		if opt.Token == "" {
			return nil, fmt.Errorf("perfxplain: remote shard workers require PoolOptions.Token")
		}
		p.Dialer = &shard.SocketDialer{Addrs: opt.Addrs, Token: opt.Token}
		if p.Workers <= 0 {
			p.Workers = len(opt.Addrs)
		}
		return &WorkerPool{p}, nil
	}
	cmd := opt.Command
	if len(cmd) == 0 {
		exe, err := os.Executable()
		if err != nil {
			return nil, fmt.Errorf("perfxplain: resolve shard worker command: %w", err)
		}
		cmd = []string{exe, "-shard-worker"}
	}
	p.Command = cmd
	p.Env = opt.Env
	return &WorkerPool{p}, nil
}

// Close terminates the pool's workers. It is idempotent and safe to
// call concurrently with in-flight work, which fails with transport
// errors rather than hanging.
func (wp *WorkerPool) Close() { wp.p.Close() }

// Stats returns the pool's runtime counters.
func (wp *WorkerPool) Stats() ShardStats { return newShardStats(wp.p.Stats()) }

// ShardStats are the shard runtime's counters: protocol frames, frame
// bytes on metered transports, the content-addressed slice cache's
// behaviour (hits = payloads not re-shipped; misses = full ships), and
// the prefetch pipeline's (sent = payloads shipped ahead of need;
// hits = task frames that found their slice already prefetched).
type ShardStats struct {
	FramesSent, FramesReceived int64
	BytesSent, BytesReceived   int64
	SliceHits, SliceMisses     int64
	SliceBytesSaved            int64
	PrefetchSent, PrefetchHits int64
}

func newShardStats(s shard.StatsSnapshot) ShardStats {
	return ShardStats{
		FramesSent:      s.FramesSent,
		FramesReceived:  s.FramesReceived,
		BytesSent:       s.BytesSent,
		BytesReceived:   s.BytesReceived,
		SliceHits:       s.SliceHits,
		SliceMisses:     s.SliceMisses,
		SliceBytesSaved: s.SliceBytesSaved,
		PrefetchSent:    s.PrefetchSent,
		PrefetchHits:    s.PrefetchHits,
	}
}

// String renders the counters in the CLIs' -verbose format (one
// formatter, shared with the shard runtime, so the two never drift).
func (s ShardStats) String() string {
	return shard.StatsSnapshot{
		FramesSent:      s.FramesSent,
		FramesReceived:  s.FramesReceived,
		BytesSent:       s.BytesSent,
		BytesReceived:   s.BytesReceived,
		SliceHits:       s.SliceHits,
		SliceMisses:     s.SliceMisses,
		SliceBytesSaved: s.SliceBytesSaved,
		PrefetchSent:    s.PrefetchSent,
		PrefetchHits:    s.PrefetchHits,
	}.String()
}

// coreConfig resolves the options into a core config plus the worker
// pool the explainer owns (nil when shards run in-process or on a
// caller-owned shared pool).
func (o Options) coreConfig() (core.Config, *shard.Pool, error) {
	cfg := core.Config{
		Width:         o.Width,
		DespiteWidth:  o.DespiteWidth,
		SampleSize:    o.SampleSize,
		MaxPairs:      o.MaxPairs,
		SampleMode:    o.SampleMode,
		SampleBudget:  o.SampleBudget,
		SamplePilot:   o.SamplePilot,
		Seed:          o.Seed,
		Target:        o.Target,
		DiverseSample: o.DiverseSample,
		Parallelism:   o.Parallelism,
		Shards:        o.Shards,
	}
	if o.FeatureLevel != 0 {
		cfg.Level = features.Level(o.FeatureLevel)
	}
	if (o.ShardWorkers > 0 || len(o.ShardAddrs) > 0 || o.SharedPool != nil) && o.Shards <= 0 {
		return core.Config{}, nil, fmt.Errorf("perfxplain: shard workers require Options.Shards")
	}
	if o.Shards <= 0 {
		return cfg, nil, nil
	}
	switch {
	case o.SharedPool != nil:
		cfg.Runner = o.SharedPool.p
		return cfg, nil, nil
	case len(o.ShardAddrs) > 0:
		if o.ShardToken == "" {
			return core.Config{}, nil, fmt.Errorf("perfxplain: Options.ShardAddrs requires Options.ShardToken")
		}
		workers := o.ShardWorkers
		if workers <= 0 {
			workers = len(o.ShardAddrs)
		}
		pool := &shard.Pool{
			Dialer:  &shard.SocketDialer{Addrs: o.ShardAddrs, Token: o.ShardToken},
			Workers: workers,
		}
		cfg.Runner = pool
		return cfg, pool, nil
	case o.ShardWorkers > 0:
		cmd := o.ShardWorkerCommand
		if len(cmd) == 0 {
			exe, err := os.Executable()
			if err != nil {
				return core.Config{}, nil, fmt.Errorf("perfxplain: resolve shard worker command: %w", err)
			}
			cmd = []string{exe, "-shard-worker"}
		}
		pool := &shard.Pool{Command: cmd, Workers: o.ShardWorkers}
		cfg.Runner = pool
		return cfg, pool, nil
	default:
		cfg.Runner = shard.InProc{Workers: o.Parallelism}
		return cfg, nil, nil
	}
}

// Explainer answers PXQL queries over one log.
type Explainer struct {
	ex   *core.Explainer
	log  *Log
	cfg  core.Config
	pool *shard.Pool // owned; nil for in-process shards and shared pools
}

// NewExplainer builds an explainer over a job or task log. Shards plan
// over the log's segment layout: a log obtained from Store.Snapshot
// ships one hashed slice per segment, so re-explaining after appends
// re-ships only the new slices; a flat log ships as one slice.
func NewExplainer(log *Log, opt Options) (*Explainer, error) {
	cfg, pool, err := opt.coreConfig()
	if err != nil {
		return nil, err
	}
	ex, err := core.NewExplainer(log.l, cfg)
	if err != nil {
		return nil, err
	}
	return &Explainer{ex: ex, log: log, cfg: cfg, pool: pool}, nil
}

// Close releases the explainer's resources: it terminates the worker
// pool the explainer owns (Options.ShardWorkers or Options.ShardAddrs).
// A pool shared via Options.SharedPool is left running — its owner
// closes it. Close is idempotent, safe to call concurrently with
// in-flight work, and always safe to defer.
func (e *Explainer) Close() {
	if e.pool != nil {
		e.pool.Close()
	}
}

// ShardStats returns the runtime counters of the explainer's worker
// pool; ok is false when shards run in-process (they read the log by
// reference and ship nothing) or on a shared pool (query the
// WorkerPool directly for those).
func (e *Explainer) ShardStats() (s ShardStats, ok bool) {
	if e.pool == nil {
		return ShardStats{}, false
	}
	return newShardStats(e.pool.Stats()), true
}

// Explanation is a generated (despite, because) answer plus its quality
// measured on the training log.
type Explanation struct {
	x *core.Explanation
	q *pxql.Query
}

// Despite returns the generated despite extension in PXQL syntax ("true"
// when none was generated).
func (x *Explanation) Despite() string { return x.x.Despite.String() }

// Because returns the because clause in PXQL syntax.
func (x *Explanation) Because() string { return x.x.Because.String() }

// TrainPrecision is P(observed | because ∧ despite) on the training
// sample.
func (x *Explanation) TrainPrecision() float64 { return x.x.TrainPrecision }

// TrainGenerality is P(because | despite) on the training sample.
func (x *Explanation) TrainGenerality() float64 { return x.x.TrainGenerality }

// TrainRelevance is P(expected | despite) on the related training pairs.
func (x *Explanation) TrainRelevance() float64 { return x.x.TrainRelevance }

// TrainRelevanceBounds is the 95% Wilson score interval around
// TrainRelevance. ok is false when the explanation was generated in
// exact/Bernoulli mode (no interval applies: the estimate is not a
// stratified sample statistic).
func (x *Explanation) TrainRelevanceBounds() (lo, hi float64, ok bool) {
	if x.x.TrainRelevanceLo == 0 && x.x.TrainRelevanceHi == 0 {
		return 0, 0, false
	}
	return x.x.TrainRelevanceLo, x.x.TrainRelevanceHi, true
}

// String renders the explanation in the paper's DESPITE/BECAUSE form.
func (x *Explanation) String() string { return x.x.String() }

// AtomDetail is the cumulative training quality of one because-clause
// prefix, in clause order: the most important predicates come first.
type AtomDetail struct {
	// Atom is the predicate in PXQL syntax.
	Atom string
	// Precision is P(observed | atoms so far) on the training sample.
	Precision float64
	// Generality is P(atoms so far) on the training sample.
	Generality float64
	// PrecisionLo/Hi and GeneralityLo/Hi are 95% Wilson score intervals
	// around the two estimates, populated only when the explanation was
	// generated with Options.SampleMode = "stratified" (zero otherwise).
	PrecisionLo, PrecisionHi   float64
	GeneralityLo, GeneralityHi float64
}

// AtomDetails reports how each successive because-clause predicate
// tightened the explanation.
func (x *Explanation) AtomDetails() []AtomDetail {
	out := make([]AtomDetail, 0, len(x.x.Atoms))
	for _, st := range x.x.Atoms {
		out = append(out, AtomDetail{
			Atom:         st.Atom.String(),
			Precision:    st.Precision,
			Generality:   st.Generality,
			PrecisionLo:  st.PrecisionLo,
			PrecisionHi:  st.PrecisionHi,
			GeneralityLo: st.GeneralityLo,
			GeneralityHi: st.GeneralityHi,
		})
	}
	return out
}

// RenderReport renders the canonical query-plus-explanation report the
// pxql command prints — query, explanation, training quality, and the
// relevance confidence interval when one applies. The server returns
// exactly this string, so a cached answer is byte-identical to a one-shot
// CLI run over the same records.
func RenderReport(q *Query, x *Explanation) string {
	var b strings.Builder
	b.WriteString("query:\n")
	b.WriteString(indentReport(q.String()))
	b.WriteString("\nexplanation:\n")
	b.WriteString(indentReport(x.String()))
	fmt.Fprintf(&b, "\ntraining: precision %.3f, generality %.3f, relevance %.3f\n",
		x.TrainPrecision(), x.TrainGenerality(), x.TrainRelevance())
	if lo, hi, ok := x.TrainRelevanceBounds(); ok {
		fmt.Fprintf(&b, "          relevance 95%% CI [%.3f, %.3f]\n", lo, hi)
	}
	return b.String()
}

func indentReport(s string) string {
	return "  " + strings.ReplaceAll(s, "\n", "\n  ")
}

// Explain generates a because clause for the query (the user's despite
// clause is used as-is).
func (e *Explainer) Explain(q *Query) (*Explanation, error) {
	x, err := e.ex.Explain(q.q)
	if err != nil {
		return nil, err
	}
	return &Explanation{x: x, q: q.q}, nil
}

// ExplainContext is Explain with cancellation: the pipeline checks ctx
// between stages and at every growth round, returning ctx.Err() once it
// is done. The context carries cancellation only — a completed
// explanation is byte-identical to an uncancelled run with the same
// options, whatever deadline the context had.
func (e *Explainer) ExplainContext(ctx context.Context, q *Query) (*Explanation, error) {
	x, err := e.ex.ExplainCtx(ctx, q.q)
	if err != nil {
		return nil, err
	}
	return &Explanation{x: x, q: q.q}, nil
}

// ExplainQuery parses PXQL source and explains it in one step.
func (e *Explainer) ExplainQuery(src string) (*Explanation, error) {
	q, err := ParseQuery(src)
	if err != nil {
		return nil, err
	}
	return e.Explain(q)
}

// ExplainQueryContext parses PXQL source and explains it in one step,
// with ExplainContext's cancellation semantics.
func (e *Explainer) ExplainQueryContext(ctx context.Context, src string) (*Explanation, error) {
	q, err := ParseQuery(src)
	if err != nil {
		return nil, err
	}
	return e.ExplainContext(ctx, q)
}

// ExplainWithDespite first generates a despite extension (for
// under-specified queries), then the because clause in its context.
func (e *Explainer) ExplainWithDespite(q *Query) (*Explanation, error) {
	x, err := e.ex.ExplainWithDespite(q.q)
	if err != nil {
		return nil, err
	}
	return &Explanation{x: x, q: q.q}, nil
}

// ExplainWithDespiteContext is ExplainWithDespite with ExplainContext's
// cancellation semantics, covering the despite-generation stage too.
func (e *Explainer) ExplainWithDespiteContext(ctx context.Context, q *Query) (*Explanation, error) {
	x, err := e.ex.ExplainWithDespiteCtx(ctx, q.q)
	if err != nil {
		return nil, err
	}
	return &Explanation{x: x, q: q.q}, nil
}

// GenerateDespite produces only the despite extension for a query.
func (e *Explainer) GenerateDespite(q *Query) (string, error) {
	des, err := e.ex.GenerateDespite(q.q)
	if err != nil {
		return "", err
	}
	return des.String(), nil
}

// DespiteToThreshold generates the shortest despite extension whose
// training relevance reaches the threshold (paper Section 4.2's
// relevance-threshold modification). met reports whether the threshold
// was reached; the returned clause is PerfXplain's best effort either
// way.
func (e *Explainer) DespiteToThreshold(q *Query, threshold float64) (despite string, relevance float64, met bool, err error) {
	des, rel, ok, err := e.ex.DespiteToThreshold(q.q, threshold)
	if err != nil {
		return "", 0, false, err
	}
	return des.String(), rel, ok, nil
}

// NewTargetQuery builds an unbound query about an arbitrary numeric
// metric: "I observed <target> to be <obsCode> (LT/SIM/GT) but expected
// <expCode>". Combine with Bind or FindPairOfInterest, and set
// Options.Target to the same metric when building the Explainer.
func NewTargetQuery(target, obsCode, expCode string) (*Query, error) {
	q, err := core.TargetQuery(target, obsCode, expCode)
	if err != nil {
		return nil, err
	}
	return &Query{q}, nil
}

// ShardTokenEnv is the environment variable the pxql binaries read the
// shared shard-worker token from when no flag supplies it.
const ShardTokenEnv = "PXQL_SHARD_TOKEN"

// ShardWorker serves shard tasks from r until EOF, writing results to w
// — the loop behind the pxql binaries' -shard-worker mode. Programs
// embedding this package can expose the same mode (reading stdin,
// writing stdout) and name themselves in Options.ShardWorkerCommand to
// run explanation shards on their own subprocesses.
func ShardWorker(r io.Reader, w io.Writer) error {
	return shard.Worker(r, w)
}

// ListenAndServeShardWorkers turns this process into a remote shard
// worker: it listens on a TCP address and serves the shard protocol on
// every connection a coordinator opens — the loop behind `pxql
// -shard-worker -listen`. Connections are authenticated with an
// HMAC challenge over the shared token (which must be non-empty and
// match the coordinator's Options.ShardToken); each connection gets its
// own worker loop and content-addressed slice cache. The call blocks
// until the listener fails.
func ListenAndServeShardWorkers(addr, token string) error {
	//pxql:realtime — the HMAC handshake timestamps challenges; server mode is off the deterministic path
	return shard.ListenAndServe(addr, token)
}

// ServeShardWorkers serves the shard protocol on an existing listener;
// see ListenAndServeShardWorkers.
func ServeShardWorkers(l net.Listener, token string) error {
	//pxql:realtime — see ListenAndServeShardWorkers
	return shard.Serve(l, token)
}

// Metrics are the paper's explanation-quality measures evaluated on a
// log (Definitions 4-6).
type Metrics struct {
	Relevance  float64
	Precision  float64
	Generality float64
}

// Evaluate measures an explanation for a query against a log, typically
// a held-out one. With Options.Shards set the quadratic evaluation walk
// runs as shard specs: on Options.SharedPool when given, on a pool
// dialed (and torn down) for this call when ShardAddrs or ShardWorkers
// are set, and in-process otherwise. Repeated evaluations should prefer
// a SharedPool or Explainer.Evaluate, which keep workers — and their
// slice caches — alive between calls. The metrics are identical in
// every mode.
func Evaluate(log *Log, q *Query, x *Explanation, opt Options) (Metrics, error) {
	return EvaluateContext(context.Background(), log, q, x, opt)
}

// EvaluateContext is Evaluate with cancellation: the quadratic walk
// checks ctx between shards (and per evaluation chunk in-process),
// returning ctx.Err() once it is done. Completed metrics are identical
// to an uncancelled run.
func EvaluateContext(ctx context.Context, log *Log, q *Query, x *Explanation, opt Options) (Metrics, error) {
	var runner core.ShardRunner
	switch {
	case opt.Shards <= 0:
	case opt.SharedPool != nil:
		runner = opt.SharedPool.p
	case len(opt.ShardAddrs) > 0 || opt.ShardWorkers > 0:
		// Shard worker config must never be silently ignored — but a
		// one-shot Evaluate dialing and tearing down a fleet per call
		// would hide the cost callers configured workers to avoid.
		pool, err := NewWorkerPool(PoolOptions{
			Workers: opt.ShardWorkers,
			Command: opt.ShardWorkerCommand,
			Addrs:   opt.ShardAddrs,
			Token:   opt.ShardToken,
		})
		if err != nil {
			return Metrics{}, err
		}
		defer pool.Close()
		runner = pool.p
	default:
		runner = shard.InProc{Workers: opt.Parallelism}
	}
	return evaluate(ctx, log, q, x, opt.MaxPairs, opt.Seed, opt.Parallelism, opt.Shards, runner)
}

// Evaluate measures an explanation against a log through this
// explainer's shard configuration: with a worker pool (owned or shared)
// the quadratic walk fans out to the workers, whose cached log slices
// make repeated evaluations — several widths of one explanation, say —
// cheap to ship. Metrics are identical to the package-level Evaluate.
func (e *Explainer) Evaluate(log *Log, q *Query, x *Explanation) (Metrics, error) {
	return e.EvaluateContext(context.Background(), log, q, x)
}

// EvaluateContext is Evaluate with EvaluateContext's (package-level)
// cancellation semantics, through this explainer's shard configuration.
func (e *Explainer) EvaluateContext(ctx context.Context, log *Log, q *Query, x *Explanation) (Metrics, error) {
	return evaluate(ctx, log, q, x, e.cfg.MaxPairs, e.cfg.Seed, e.cfg.Parallelism, e.cfg.Shards, e.cfg.Runner)
}

// evaluate runs the core evaluation (a nil runner selects the direct
// walk) and projects its metrics.
func evaluate(ctx context.Context, log *Log, q *Query, x *Explanation,
	maxPairs int, seed int64, parallelism, shards int, runner core.ShardRunner) (Metrics, error) {
	if maxPairs == 0 {
		maxPairs = core.DefaultConfig().MaxPairs
	}
	m, err := core.EvaluateExplanationCtx(ctx, log.l, features.Level3, q.q, x.x, maxPairs, seed, parallelism, shards, runner)
	if err != nil {
		return Metrics{}, err
	}
	return Metrics{Relevance: m.Relevance, Precision: m.Precision, Generality: m.Generality}, nil
}

// RuleOfThumbExplain runs the RuleOfThumb baseline (paper Section 5.1):
// the top-width globally important features the pair disagrees on.
func RuleOfThumbExplain(log *Log, q *Query, width int, seed int64) (*Explanation, error) {
	if width <= 0 {
		width = 3
	}
	rot, err := baselines.NewRuleOfThumb(log.l, "duration", seed)
	if err != nil {
		return nil, err
	}
	x, err := rot.Explain(q.q, width)
	if err != nil {
		return nil, err
	}
	return &Explanation{x: x, q: q.q}, nil
}

// SimButDiffExplain runs the SimButDiff baseline (paper Section 5.2):
// what-if analysis over isSame features of pairs similar to the pair of
// interest, on all available cores.
func SimButDiffExplain(log *Log, q *Query, width int, seed int64) (*Explanation, error) {
	return SimButDiffExplainP(log, q, width, seed, 0)
}

// SimButDiffExplainP is SimButDiffExplain with an explicit worker bound
// for pair enumeration (<= 0 means GOMAXPROCS); the explanation is
// identical at every setting. RuleOfThumb has no such variant: its
// RReliefF neighbour searches already run on all cores (bit-identically
// — see relief.Config.Parallelism), and the weight accumulation itself
// is sequential.
func SimButDiffExplainP(log *Log, q *Query, width int, seed int64, parallelism int) (*Explanation, error) {
	if width <= 0 {
		width = 3
	}
	sbd, err := baselines.NewSimButDiff(log.l, baselines.SimButDiffConfig{Seed: seed, Parallelism: parallelism})
	if err != nil {
		return nil, err
	}
	x, err := sbd.Explain(q.q, width)
	if err != nil {
		return nil, err
	}
	return &Explanation{x: x, q: q.q}, nil
}

// FindPairOfInterest returns a pair of record IDs in the log that
// satisfies the query's despite and observed clauses — a convenience for
// demos and tests that need a concrete pair to ask about. Among the
// matching pairs it returns the most salient one: the largest gap on the
// raw feature the observed clause compares (a user asks about the case
// that caught their eye, not a borderline one). ok is false when no such
// pair exists. The search runs on all available cores; use
// FindPairOfInterestP to bound it.
func FindPairOfInterest(log *Log, q *Query, seed int64) (id1, id2 string, ok bool) {
	return FindPairOfInterestP(log, q, seed, 0)
}

// FindPairOfInterestP is FindPairOfInterest with an explicit worker
// bound (<= 0 means GOMAXPROCS); the selected pair is identical at
// every setting.
func FindPairOfInterestP(log *Log, q *Query, seed int64, parallelism int) (id1, id2 string, ok bool) {
	pairs := core.RelatedPairsP(log.l, features.Level3, q.q, 50000, seed, parallelism)
	raw := ""
	if len(q.q.Observed) > 0 {
		raw, _ = features.ParseName(q.q.Observed[0].Feature)
	}
	bestGap := -1.0
	for _, p := range pairs {
		if !p.Observed {
			continue
		}
		gap := 0.0
		if raw != "" {
			v1 := log.l.Value(p.A, raw)
			v2 := log.l.Value(p.B, raw)
			if v1.Kind == joblog.Numeric && v2.Kind == joblog.Numeric && v1.Num > 0 && v2.Num > 0 {
				gap = v1.Num / v2.Num
				if gap < 1 {
					gap = 1 / gap
				}
			}
		}
		if gap > bestGap {
			bestGap = gap
			id1, id2, ok = p.A.ID, p.B.ID, true
		}
	}
	return id1, id2, ok
}
