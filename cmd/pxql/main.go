// Command pxql answers a PXQL performance query against an execution log:
//
//	pxql -log logs/jobs.csv -query "
//	    FOR J1, J2 WHERE J1.JobID = 'job-0012' AND J2.JobID = 'job-0340'
//	    DESPITE numinstances_issame = T AND pigscript_issame = T
//	    OBSERVED duration_compare = GT
//	    EXPECTED duration_compare = SIM"
//
// The query may also come from a file (-file) or stdin (no -query/-file).
// If the query omits the FOR clause, -pair id1,id2 binds the pair of
// interest, or -find picks one automatically. -technique selects the
// explanation generator (perfxplain, ruleofthumb, simbutdiff), and
// -gen-despite asks PerfXplain to generate a despite extension first.
//
// The pair pipeline can run distributed: -shards plans self-contained
// shard specs, executed in-process by default, on subprocess workers
// with -shard-workers, or on remote machines with -shard-remote — each
// remote runs `pxql -shard-worker -listen :9071` with a matching
// -shard-token (or PXQL_SHARD_TOKEN). -seal N queries the log through a
// segment store (sealed every N records), shipping per-segment hashed
// slices to the workers instead of one slice for the whole log. Output is byte-identical in every mode;
// -verbose reports frames, bytes shipped and slice-cache counters.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"perfxplain"
)

func main() {
	logPath := flag.String("log", "", "execution log CSV (required)")
	querySrc := flag.String("query", "", "PXQL query text")
	queryFile := flag.String("file", "", "file containing the PXQL query")
	pair := flag.String("pair", "", "pair of interest as 'id1,id2' (overrides the FOR clause)")
	find := flag.Bool("find", false, "pick a pair of interest satisfying the query automatically")
	width := flag.Int("width", 3, "explanation width")
	level := flag.Int("level", 3, "feature level 1-3")
	seed := flag.Int64("seed", 1, "sampling seed")
	sampleMode := flag.String("sample-mode", "", "pair-space thinning: bernoulli (default) or stratified (per-blocking-group quotas with Wilson confidence bounds)")
	sampleBudget := flag.Int("sample-budget", 0, "stratified total pair budget (0 = the library's MaxPairs default)")
	samplePilot := flag.Float64("sample-pilot", 0, "pilot fraction in (0, 1) for Wilson-adaptive stratified budgets (0 = one-shot proportional allocation; requires -sample-mode stratified)")
	parallelism := flag.Int("parallelism", 0, "worker goroutines for the explanation pipeline (0 = all cores); the answer is identical at every setting")
	seal := flag.Int("seal", 0, "ingest the log into a segment store sealing every N records and query its snapshot (0 = off); the answer is identical, but shard workers receive one slice per segment instead of one for the whole log")
	shards := flag.Int("shards", 0, "shard the pair pipeline into N self-contained specs (0 = off); the answer is identical at every setting")
	shardWorkers := flag.Int("shard-workers", 0, "execute shards on K worker subprocesses instead of in-process (requires -shards)")
	shardWorker := flag.Bool("shard-worker", false, "serve shard tasks on stdin/stdout and exit (internal: spawned by -shard-workers), or on a TCP listener with -listen")
	listen := flag.String("listen", "", "with -shard-worker: listen on this TCP address (e.g. :9071) and serve remote coordinators (requires a token)")
	shardRemote := flag.String("shard-remote", "", "execute shards on remote socket workers at these comma-separated host:port addresses (requires -shards and a token)")
	shardToken := flag.String("shard-token", "", "shared auth token for remote shard workers (or set "+perfxplain.ShardTokenEnv+")")
	verbose := flag.Bool("verbose", false, "print shard-runtime counters (frames, bytes shipped, slice-cache hits/misses) to stderr")
	technique := flag.String("technique", "perfxplain", "perfxplain | ruleofthumb | simbutdiff")
	genDespite := flag.Bool("gen-despite", false, "generate a despite extension before explaining (perfxplain only)")
	evalPath := flag.String("eval", "", "optional second log CSV to evaluate the explanation against")
	flag.Parse()

	token := *shardToken
	if token == "" {
		token = os.Getenv(perfxplain.ShardTokenEnv)
	}

	if *shardWorker {
		var err error
		if *listen != "" {
			fmt.Fprintf(os.Stderr, "pxql: serving shard workers on %s\n", *listen)
			err = perfxplain.ListenAndServeShardWorkers(*listen, token)
		} else {
			err = perfxplain.ShardWorker(os.Stdin, os.Stdout)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "pxql: shard worker:", err)
			os.Exit(1)
		}
		return
	}

	if err := run(cliOpts{
		logPath:      *logPath,
		querySrc:     *querySrc,
		queryFile:    *queryFile,
		pair:         *pair,
		find:         *find,
		width:        *width,
		level:        *level,
		seed:         *seed,
		sampleMode:   *sampleMode,
		sampleBudget: *sampleBudget,
		samplePilot:  *samplePilot,
		parallelism:  *parallelism,
		seal:         *seal,
		shards:       *shards,
		shardWorkers: *shardWorkers,
		shardRemote:  *shardRemote,
		shardToken:   token,
		verbose:      *verbose,
		technique:    *technique,
		genDespite:   *genDespite,
		evalPath:     *evalPath,
	}); err != nil {
		fmt.Fprintln(os.Stderr, "pxql:", err)
		os.Exit(1)
	}
}

// cliOpts carries the resolved coordinator flags; a struct rather than
// positional parameters so adjacent same-typed flags cannot be swapped
// silently at a call site.
type cliOpts struct {
	logPath, querySrc, queryFile, pair string
	find                               bool
	width, level                       int
	seed                               int64
	sampleMode                         string
	sampleBudget                       int
	samplePilot                        float64
	parallelism, shards, shardWorkers  int
	seal                               int
	shardRemote, shardToken            string
	verbose                            bool
	technique                          string
	genDespite                         bool
	evalPath                           string
}

func run(o cliOpts) error {
	logPath, querySrc, queryFile, pair := o.logPath, o.querySrc, o.queryFile, o.pair
	find, width, level, seed := o.find, o.width, o.level, o.seed
	parallelism, shards, shardWorkers := o.parallelism, o.shards, o.shardWorkers
	shardRemote, shardToken, verbose := o.shardRemote, o.shardToken, o.verbose
	technique, genDespite, evalPath := o.technique, o.genDespite, o.evalPath

	if logPath == "" {
		return fmt.Errorf("-log is required")
	}
	if shardWorkers > 0 && shards <= 0 {
		return fmt.Errorf("-shard-workers requires -shards")
	}
	var shardAddrs []string
	if shardRemote != "" {
		if shards <= 0 {
			return fmt.Errorf("-shard-remote requires -shards")
		}
		if shardToken == "" {
			return fmt.Errorf("-shard-remote requires -shard-token (or %s)", perfxplain.ShardTokenEnv)
		}
		for _, a := range strings.Split(shardRemote, ",") {
			if a = strings.TrimSpace(a); a != "" {
				shardAddrs = append(shardAddrs, a)
			}
		}
	}
	log, err := readLog(logPath)
	if err != nil {
		return err
	}
	// -seal routes the flat CSV log through a segment store and queries
	// its watermark snapshot — the shard planners then ship one hashed
	// slice per segment instead of one for the whole log. The
	// explanation is byte-identical to the flat path.
	segmented := func(l *perfxplain.Log) (*perfxplain.Log, error) {
		st := perfxplain.NewStore(l, o.seal)
		if err := st.Ingest(l); err != nil {
			return nil, err
		}
		return st.Snapshot(), nil
	}
	if o.seal > 0 {
		if log, err = segmented(log); err != nil {
			return err
		}
	}

	src, err := querySource(querySrc, queryFile)
	if err != nil {
		return err
	}
	q, err := perfxplain.ParseQuery(src)
	if err != nil {
		return err
	}
	if pair != "" {
		id1, id2, ok := strings.Cut(pair, ",")
		if !ok {
			return fmt.Errorf("-pair must be 'id1,id2'")
		}
		q.Bind(strings.TrimSpace(id1), strings.TrimSpace(id2))
	}
	if id1, _ := q.Pair(); id1 == "" {
		if !find {
			return fmt.Errorf("no pair of interest: add a FOR clause, -pair, or -find")
		}
		id1, id2, ok := perfxplain.FindPairOfInterestP(log, q, seed, parallelism)
		if !ok {
			return fmt.Errorf("no pair in the log satisfies the query")
		}
		q.Bind(id1, id2)
		fmt.Printf("pair of interest: %s, %s\n", id1, id2)
	}

	opt := perfxplain.Options{Width: width, DespiteWidth: width, FeatureLevel: level,
		Seed: seed, SampleMode: o.sampleMode, SampleBudget: o.sampleBudget, SamplePilot: o.samplePilot,
		Parallelism: parallelism, Shards: shards, ShardWorkers: shardWorkers,
		ShardAddrs: shardAddrs, ShardToken: shardToken}
	var x *perfxplain.Explanation
	// evaluate routes held-out evaluation through the PerfXplain
	// explainer when one exists, so the quadratic walk shares its shard
	// runner — and the workers' cached log slices.
	evaluate := func(evalLog *perfxplain.Log) (perfxplain.Metrics, error) {
		return perfxplain.Evaluate(evalLog, q, x, perfxplain.Options{Seed: seed, Parallelism: parallelism})
	}
	shardStats := func() (perfxplain.ShardStats, bool) { return perfxplain.ShardStats{}, false }
	switch strings.ToLower(technique) {
	case "perfxplain":
		ex, err := perfxplain.NewExplainer(log, opt)
		if err != nil {
			return err
		}
		defer ex.Close()
		if genDespite {
			x, err = ex.ExplainWithDespite(q)
		} else {
			x, err = ex.Explain(q)
		}
		if err != nil {
			return err
		}
		evaluate = func(evalLog *perfxplain.Log) (perfxplain.Metrics, error) {
			return ex.Evaluate(evalLog, q, x)
		}
		shardStats = ex.ShardStats
	case "ruleofthumb":
		x, err = perfxplain.RuleOfThumbExplain(log, q, width, seed)
		if err != nil {
			return err
		}
	case "simbutdiff":
		x, err = perfxplain.SimButDiffExplainP(log, q, width, seed, parallelism)
		if err != nil {
			return err
		}
	default:
		return fmt.Errorf("unknown technique %q", technique)
	}

	fmt.Print(perfxplain.RenderReport(q, x))

	if evalPath != "" {
		evalLog, err := readLog(evalPath)
		if err != nil {
			return err
		}
		if o.seal > 0 {
			if evalLog, err = segmented(evalLog); err != nil {
				return err
			}
		}
		m, err := evaluate(evalLog)
		if err != nil {
			return err
		}
		fmt.Printf("held-out:  precision %.3f, generality %.3f, relevance %.3f\n",
			m.Precision, m.Generality, m.Relevance)
	}
	if verbose {
		if s, ok := shardStats(); ok {
			fmt.Fprintln(os.Stderr, "shard runtime:", s)
		}
	}
	return nil
}

func readLog(path string) (*perfxplain.Log, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return perfxplain.ReadLogCSV(f)
}

func querySource(querySrc, queryFile string) (string, error) {
	switch {
	case querySrc != "" && queryFile != "":
		return "", fmt.Errorf("use only one of -query and -file")
	case querySrc != "":
		return querySrc, nil
	case queryFile != "":
		b, err := os.ReadFile(queryFile)
		if err != nil {
			return "", err
		}
		return string(b), nil
	default:
		b, err := io.ReadAll(os.Stdin)
		if err != nil {
			return "", err
		}
		return string(b), nil
	}
}
