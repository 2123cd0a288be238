// Command pxqld is the warm PXQL explanation server: it holds an
// execution log resident in memory — columnar planes, sorted indexes and
// per-segment caches stay hot between queries — owns one long-lived
// shard worker pool, and answers explanation requests over HTTP/JSON
// with a singleflight explanation cache and admission control in front
// of the engine.
//
//	pxqld -listen :9070 -log logs/jobs.csv -shards 4 -shard-workers 4
//
// Endpoints (all JSON):
//
//	POST /api/explain    explain a PXQL query (body: {"query": "...", ...})
//	POST /api/evaluate   explain, then measure the paper's metrics on the log
//	POST /api/ingest     append a self-describing CSV log (?seal=1 to seal after)
//	POST /api/seal       force-seal the mutable tail
//	GET  /api/schema     the resident schema
//	GET  /api/domains    ?field=x — observed values or numeric range
//	GET  /api/stats      records, watermark, cache and admission counters
//	GET  /api/healthz    liveness
//
// Repeated queries hit the explanation cache (keyed by watermark,
// canonical query and semantic options — never stale across appends);
// concurrent identical queries collapse onto one computation. Responses
// are byte-identical to a one-shot `pxql` run over the same records.
// The interactive client is cmd/pxqlc.
package main

import (
	"flag"
	"fmt"
	"net/http"
	"os"
	"strings"
	"time"

	"perfxplain"
	"perfxplain/internal/serve"
)

func main() {
	listen := flag.String("listen", ":9070", "HTTP listen address")
	logPath := flag.String("log", "", "execution log CSV to preload (optional; /api/ingest can load later)")
	sealEvery := flag.Int("seal-every", 0, "segment-seal threshold for the resident store (0 = library default)")
	width := flag.Int("width", 3, "default explanation width (requests may override)")
	level := flag.Int("level", 3, "default feature level 1-3 (requests may override)")
	seed := flag.Int64("seed", 1, "default sampling seed (requests may override)")
	parallelism := flag.Int("parallelism", 0, "worker goroutines per explanation (0 = all cores)")
	shards := flag.Int("shards", 0, "shard the pair pipeline into N specs (0 = off)")
	shardWorkers := flag.Int("shard-workers", 0, "run shards on K long-lived worker subprocesses (requires -shards)")
	shardWorker := flag.Bool("shard-worker", false, "serve shard tasks on stdin/stdout and exit (internal: spawned by -shard-workers)")
	shardRemote := flag.String("shard-remote", "", "run shards on remote socket workers at these comma-separated host:port addresses (requires -shards and a token)")
	shardToken := flag.String("shard-token", "", "shared auth token for remote shard workers (or set "+perfxplain.ShardTokenEnv+")")
	maxConcurrent := flag.Int("max-concurrent", 2, "explanations/evaluations admitted at once")
	maxQueue := flag.Int("max-queue", 0, "requests allowed to wait for a slot before 429 (0 = 8*max-concurrent)")
	timeout := flag.Duration("timeout", 60*time.Second, "default per-query deadline (504 on expiry)")
	maxTimeout := flag.Duration("max-timeout", 5*time.Minute, "cap on request-supplied deadlines")
	cacheSize := flag.Int("cache", 128, "explanation cache capacity in entries")
	flag.Parse()

	if *shardWorker {
		// Internal mode: the shared worker pool spawns this executable
		// with -shard-worker, the same convention as the pxql CLI.
		if err := perfxplain.ShardWorker(os.Stdin, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "pxqld: shard worker:", err)
			os.Exit(1)
		}
		return
	}

	if err := run(runOpts{
		listen: *listen, logPath: *logPath, sealEvery: *sealEvery,
		width: *width, level: *level, seed: *seed, parallelism: *parallelism,
		shards: *shards, shardWorkers: *shardWorkers,
		shardRemote: *shardRemote, shardToken: *shardToken,
		maxConcurrent: *maxConcurrent, maxQueue: *maxQueue,
		timeout: *timeout, maxTimeout: *maxTimeout, cacheSize: *cacheSize,
	}); err != nil {
		fmt.Fprintln(os.Stderr, "pxqld:", err)
		os.Exit(1)
	}
}

type runOpts struct {
	listen, logPath         string
	sealEvery               int
	width, level            int
	seed                    int64
	parallelism             int
	shards, shardWorkers    int
	shardRemote, shardToken string
	maxConcurrent, maxQueue int
	timeout, maxTimeout     time.Duration
	cacheSize               int
}

func run(o runOpts) error {
	token := o.shardToken
	if token == "" {
		token = os.Getenv(perfxplain.ShardTokenEnv)
	}
	var shardAddrs []string
	if o.shardRemote != "" {
		if o.shards <= 0 {
			return fmt.Errorf("-shard-remote requires -shards")
		}
		if token == "" {
			return fmt.Errorf("-shard-remote requires -shard-token (or %s)", perfxplain.ShardTokenEnv)
		}
		for _, a := range strings.Split(o.shardRemote, ",") {
			if a = strings.TrimSpace(a); a != "" {
				shardAddrs = append(shardAddrs, a)
			}
		}
	}
	if o.shardWorkers > 0 && o.shards <= 0 {
		return fmt.Errorf("-shard-workers requires -shards")
	}

	opt := perfxplain.Options{
		Width: o.width, DespiteWidth: o.width, FeatureLevel: o.level,
		Seed: o.seed, Parallelism: o.parallelism, Shards: o.shards,
	}
	// The server owns ONE worker pool for its whole lifetime — workers
	// (and their content-addressed slice caches) survive across every
	// request, which is the point of a resident server.
	if o.shards > 0 && (o.shardWorkers > 0 || len(shardAddrs) > 0) {
		pool, err := perfxplain.NewWorkerPool(perfxplain.PoolOptions{
			Workers: o.shardWorkers,
			Addrs:   shardAddrs,
			Token:   token,
		})
		if err != nil {
			return err
		}
		defer pool.Close()
		opt.SharedPool = pool
	}

	cfg := serve.Config{
		SealEvery:      o.sealEvery,
		Explain:        opt,
		MaxConcurrent:  o.maxConcurrent,
		MaxQueue:       o.maxQueue,
		DefaultTimeout: o.timeout,
		MaxTimeout:     o.maxTimeout,
		CacheSize:      o.cacheSize,
	}
	if o.logPath != "" {
		f, err := os.Open(o.logPath)
		if err != nil {
			return err
		}
		l, err := perfxplain.ReadLogCSV(f)
		f.Close()
		if err != nil {
			return err
		}
		st := perfxplain.NewStore(l, o.sealEvery)
		if err := st.Ingest(l); err != nil {
			return err
		}
		st.Seal()
		cfg.Store = st
		fmt.Fprintf(os.Stderr, "pxqld: loaded %d records (%d segments) from %s\n",
			st.Len(), st.SealedSegments(), o.logPath)
	}

	fmt.Fprintf(os.Stderr, "pxqld: listening on %s\n", o.listen)
	return newHTTPServer(o.listen, serve.NewServer(cfg)).ListenAndServe()
}

// readHeaderTimeout bounds how long a client may take to send its
// request headers, so idle or trickling connections cannot pin server
// goroutines. Request bodies are capped by serve.MaxBodyBytes.
const readHeaderTimeout = 5 * time.Second

// newHTTPServer is the daemon's HTTP front.
func newHTTPServer(addr string, h http.Handler) *http.Server {
	return &http.Server{Addr: addr, Handler: h, ReadHeaderTimeout: readHeaderTimeout}
}
