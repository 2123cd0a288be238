package main

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"

	"perfxplain"
	"perfxplain/internal/core"
	"perfxplain/internal/dtree"
	"perfxplain/internal/features"
	"perfxplain/internal/joblog"
	"perfxplain/internal/pxql"
	"perfxplain/internal/serve"
)

// layerMetric is one per-layer metric with the end-to-end metric and
// workload it should move.
type layerMetric struct {
	name, unit, moves string
}

// layerMetrics is the metric → layer → workload map of README.md, in
// print order.
var layerMetrics = []layerMetric{
	{"joblog.read_csv_ms", "ms", "setup_s, all workloads"},
	{"joblog.ingest_ms", "ms", "ingest_p50_ms, ingest-mix"},
	{"joblog.snapshot_ms", "ms", "query_p50_ms on ingest-mix, and setup_s"},
	{"joblog.rows", "count", "setup_s and every latency, all workloads"},
	{"joblog.segments_sealed", "count", "ingest_p50_ms, ingest-mix"},
	{"core.enumerate_ms", "ms", "query_p50_ms, tasks-evaluate"},
	{"core.related_pairs", "count", "query_p50_ms, tasks-evaluate"},
	{"core.explain_ms", "ms", "query_p50_ms and queries_per_s, jobs-explain"},
	{"core.score_ms", "ms", "query_p50_ms and queries_per_s, jobs-explain"},
	{"core.sample_pairs", "count", "query_p50_ms and queries_per_s, jobs-explain"},
	{"core.evaluate_ms", "ms", "query_p50_ms, tasks-evaluate"},
	{"core.context_pairs", "count", "query_p50_ms, tasks-evaluate"},
	{"features.materialize_ms", "ms", "query_p50_ms, jobs-explain"},
	{"features.matrix_bytes", "bytes", "peak_rss_mb and query_p50_ms, jobs-explain"},
	{"dtree.threshold_ms", "ms", "query_p50_ms, jobs-explain"},
	{"shard.overhead_ms", "ms", "query_p50_ms, tasks-evaluate only"},
	{"shard.bytes_sent", "bytes", "query_p50_ms, tasks-evaluate only"},
	{"shard.bytes_received", "bytes", "query_p50_ms, tasks-evaluate only"},
	{"shard.frames", "count", "query_p50_ms, tasks-evaluate only"},
	{"shard.slice_hit_ratio", "ratio", "query_p50_ms, tasks-evaluate only"},
	{"serve.hit_ms", "ms", "query_p50_ms, ingest-mix"},
	{"serve.miss_overhead_ms", "ms", "queries_per_s, jobs-explain"},
	{"serve.cache_hit_ratio", "ratio", "query_p50_ms and queries_per_s, ingest-mix"},
	{"serve.computations", "count", "queries_per_s, ingest-mix"},
	{"serve.rejected", "count", "ok_frac, all workloads"},
	{"trace.query_p50_ratio", "ratio", "tracing overhead: traced over untraced query_p50_ms"},
}

// layerQuestions is how many questions of the list the layer pass times.
const layerQuestions = 12

// explainOptions are pxqld's default semantic options (width 3, full
// feature set, seed 1).
func explainOptions() perfxplain.Options {
	return perfxplain.Options{Width: 3, DespiteWidth: 3, FeatureLevel: 3, Seed: 1}
}

// layerPass times calls into each module's public functions from
// outside the program, one question at a time, on the log and the
// configuration pxqld serves for the workload. It runs after pxqld has
// stopped, so the calls have the machine to themselves.
func layerPass(in *inputs, w workload, pxqldBin string, tr *tracer) (map[string]float64, error) {
	out := make(map[string]float64)

	// joblog: read the start log, then replay the workload's appends on
	// a store built the way pxqld builds it.
	var start *perfxplain.Log
	for i := 0; i < 3; i++ {
		if _, err := tr.timed("joblog.read_csv", -1, -1, func() (err error) {
			start, err = perfxplain.ReadLogCSV(bytes.NewReader(in.startCSV))
			return err
		}); err != nil {
			return nil, err
		}
	}
	replay := perfxplain.NewStore(start, 0)
	if err := replay.Ingest(start); err != nil {
		return nil, err
	}
	replay.Seal()
	tr.timed("joblog.snapshot", -1, -1, func() error { replay.Snapshot(); return nil })
	for _, b := range in.batches {
		bl, err := perfxplain.ReadLogCSV(bytes.NewReader(b))
		if err != nil {
			return nil, err
		}
		if _, err := tr.timed("joblog.ingest", -1, -1, func() error { return replay.Ingest(bl) }); err != nil {
			return nil, err
		}
		tr.timed("joblog.snapshot", -1, -1, func() error { replay.Snapshot(); return nil })
	}
	out["joblog.read_csv_ms"] = median(tr.durations("joblog.read_csv", -1))
	out["joblog.ingest_ms"] = median(tr.durations("joblog.ingest", -1))
	out["joblog.snapshot_ms"] = median(tr.durations("joblog.snapshot", -1))
	out["joblog.rows"] = float64(replay.Len())
	out["joblog.segments_sealed"] = float64(replay.SealedSegments())

	// The questions run on the log pxqld answered them over: the start
	// log, or for ingest-mix the fully ingested one.
	csv := in.startCSV
	if w.ingest {
		csv = in.fullCSV
	}
	jl, pl, err := residentLogs(csv)
	if err != nil {
		return nil, err
	}

	opt := explainOptions()
	var pool *perfxplain.WorkerPool
	if w.shards > 0 {
		if pool, err = perfxplain.NewWorkerPool(perfxplain.PoolOptions{
			Workers: w.shardWorkers, Command: []string{pxqldBin, "-shard-worker"},
		}); err != nil {
			return nil, err
		}
		defer pool.Close()
		opt.Shards, opt.SharedPool = w.shards, pool
	}
	srv := serve.NewServer(serve.Config{Store: pl, Explain: opt, MaxConcurrent: 2, CacheSize: 128})
	snap := pl.Snapshot()
	cfg := core.Config{Width: 3, DespiteWidth: 3, Level: features.Level3, Seed: 1}
	cex, err := core.NewExplainer(jl, cfg)
	if err != nil {
		return nil, err
	}
	d := features.NewDeriver(jl.Schema, features.Level3)
	maxPairs := core.DefaultConfig().MaxPairs
	sampleSize := core.DefaultConfig().SampleSize

	var related, samples, contexts, matBytes, overhead, missOver []float64
	var sent, recv, frames, hits, misses float64
	qs := append([]question{in.warmup}, in.questions...)
	n := min(len(qs), layerQuestions+1)
	for qi := 0; qi < n; qi++ {
		// Question 0 is the set-up warm-up: it spawns shard workers and
		// fills their slice caches, and is not recorded.
		warm := qi == 0
		qn := qs[qi]
		root := tr.begin("question", -1, qi-1)
		cq, err := pxql.Parse(qn.query)
		if err != nil {
			return nil, err
		}
		cq.ID1, cq.ID2 = qn.id1, qn.id2
		pq, err := perfxplain.ParseQuery(qn.query)
		if err != nil {
			return nil, err
		}
		pq.Bind(qn.id1, qn.id2)

		var rel []core.LabeledPair
		tr.timed("core.enumerate", root, qi-1, func() error {
			rel = core.RelatedPairsP(jl, features.Level3, cq, maxPairs, 1, 0)
			return nil
		})
		var cx *core.Explanation
		explainMS, err := tr.timed("core.explain", root, qi-1, func() (err error) {
			cx, err = cex.Explain(cq)
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("question %d: %w", qi-1, err)
		}
		var m core.Metrics
		if _, err := tr.timed("core.evaluate", root, qi-1, func() (err error) {
			m, err = core.EvaluateExplanationP(jl, features.Level3, cq, cx, maxPairs, 1, 0)
			return err
		}); err != nil {
			return nil, err
		}

		rows := min(sampleSize, len(rel))
		var pm *features.PairMatrix
		tr.timed("features.materialize", root, qi-1, func() error {
			cols := jl.Columns()
			pm = d.NewPairMatrix(rows)
			for i := 0; i < rows; i++ {
				pm.Fill(cols, i, rel[i].IA, rel[i].IB)
			}
			return nil
		})
		labels := make([]bool, rows)
		for i := range labels {
			labels[i] = rel[i].Observed
		}
		stride := pm.NumStride()
		numCols := make([][]float64, stride)
		for c := range numCols {
			numCols[c] = make([]float64, rows)
			for i := 0; i < rows; i++ {
				numCols[c][i] = pm.Num[i*stride+c]
			}
		}
		tr.timed("dtree.threshold", root, qi-1, func() error {
			for _, col := range numCols {
				dtree.BestThresholdF(col, labels)
			}
			return nil
		})

		if pool != nil {
			before := pool.Stats()
			pex, err := perfxplain.NewExplainer(snap, opt)
			if err != nil {
				return nil, err
			}
			var px *perfxplain.Explanation
			pooledMS, err := tr.timed("shard.explain", root, qi-1, func() (err error) {
				px, err = pex.Explain(pq)
				return err
			})
			if err != nil {
				return nil, err
			}
			if _, err := tr.timed("shard.evaluate", root, qi-1, func() error {
				_, err := perfxplain.Evaluate(snap, pq, px, opt)
				return err
			}); err != nil {
				return nil, err
			}
			after := pool.Stats()
			if !warm {
				overhead = append(overhead, pooledMS-explainMS)
				sent += float64(after.BytesSent - before.BytesSent)
				recv += float64(after.BytesReceived - before.BytesReceived)
				frames += float64(after.FramesSent - before.FramesSent + after.FramesReceived - before.FramesReceived)
				hits += float64(after.SliceHits - before.SliceHits)
				misses += float64(after.SliceMisses - before.SliceMisses)
			}
		}

		body := requestBody(qn)
		var missStatus, hitStatus int
		missMS, _ := tr.timed("serve.miss", root, qi-1, func() error {
			missStatus = serveOnce(srv, body)
			return nil
		})
		tr.timed("serve.hit", root, qi-1, func() error {
			hitStatus = serveOnce(srv, body)
			return nil
		})
		if missStatus != http.StatusOK || hitStatus != http.StatusOK {
			return nil, fmt.Errorf("question %d: in-process server answered %d then %d", qi-1, missStatus, hitStatus)
		}
		tr.end(root)
		if warm {
			continue
		}
		related = append(related, float64(len(rel)))
		samples = append(samples, float64(cx.SampleSize))
		contexts = append(contexts, float64(m.ContextPairs))
		matBytes = append(matBytes, float64(8*(len(pm.Num)+len(pm.Sym))))
		missOver = append(missOver, missMS-explainMS)
	}

	// Question ids start at 0; the warm-up question and set-up spans are -1.
	recorded := func(name string) []float64 { return tr.durations(name, 0) }
	enum, expl := recorded("core.enumerate"), recorded("core.explain")
	score := make([]float64, len(expl))
	for i := range expl {
		score[i] = expl[i] - enum[i]
	}
	out["core.enumerate_ms"] = median(enum)
	out["core.related_pairs"] = median(related)
	out["core.explain_ms"] = median(expl)
	out["core.score_ms"] = median(score)
	out["core.sample_pairs"] = median(samples)
	out["core.evaluate_ms"] = median(recorded("core.evaluate"))
	out["core.context_pairs"] = median(contexts)
	out["features.materialize_ms"] = median(recorded("features.materialize"))
	out["features.matrix_bytes"] = median(matBytes)
	out["dtree.threshold_ms"] = median(recorded("dtree.threshold"))
	out["serve.hit_ms"] = median(recorded("serve.hit"))
	out["serve.miss_overhead_ms"] = median(missOver)

	// Shard counters are per question; without a pool on the workload's
	// path they are zero.
	q := float64(len(overhead))
	out["shard.overhead_ms"], out["shard.bytes_sent"], out["shard.bytes_received"] = 0, 0, 0
	out["shard.frames"], out["shard.slice_hit_ratio"] = 0, 0
	if q > 0 {
		out["shard.overhead_ms"] = median(overhead)
		out["shard.bytes_sent"] = sent / q
		out["shard.bytes_received"] = recv / q
		out["shard.frames"] = frames / q
		if hits+misses > 0 {
			out["shard.slice_hit_ratio"] = hits / (hits + misses)
		}
	}
	return out, nil
}

// residentLogs builds the log pxqld holds from its CSV — a sealed store
// snapshot — both as the engine's joblog.Log and as a perfxplain.Store.
func residentLogs(csv []byte) (*joblog.Log, *perfxplain.Store, error) {
	flat, err := joblog.ReadCSV(bytes.NewReader(csv))
	if err != nil {
		return nil, nil, err
	}
	js := joblog.NewStore(flat.Schema, 0)
	for _, r := range flat.Records {
		if err := js.Append(r); err != nil {
			return nil, nil, err
		}
	}
	js.Seal()
	pflat, err := perfxplain.ReadLogCSV(bytes.NewReader(csv))
	if err != nil {
		return nil, nil, err
	}
	ps := perfxplain.NewStore(pflat, 0)
	if err := ps.Ingest(pflat); err != nil {
		return nil, nil, err
	}
	ps.Seal()
	return js.Snapshot().Log(), ps, nil
}

// serveOnce sends one /api/explain request through the in-process
// server and returns the status.
func serveOnce(srv *serve.Server, body []byte) int {
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/api/explain", bytes.NewReader(body)))
	return rec.Code
}
