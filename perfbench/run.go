package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"perfxplain"
)

// setups is how many times a run starts pxqld; setup_s is their median.
const setups = 5

// Generator health: a run is invalid when the ingest generator itself
// sent batches late by more than these.
const (
	maxLateP90 = 20 * time.Millisecond
	maxLateMax = 100 * time.Millisecond
)

func run(cfg config) (*result, error) {
	w, _ := findWorkload(cfg.workload)
	sc := scale{small: cfg.small}
	dir := filepath.Join(cfg.root, ".bench_build", "runs",
		fmt.Sprintf("%s-seed%d-trace%d-%d", w.name, cfg.seed, b2i(cfg.trace), os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	in, err := makeInputs(w, cfg.seed, sc)
	if err != nil {
		return nil, err
	}
	logPath := filepath.Join(dir, "log.csv")
	if err := os.WriteFile(logPath, in.startCSV, 0o644); err != nil {
		return nil, err
	}
	res := &result{metrics: make(map[string]metric)}
	tr := newTracer()

	// Set-up: pxqld start to log loaded and one warm-up question answered.
	nSetups := setups
	if cfg.trace {
		nSetups = 1
	}
	var setupS []float64
	var srv *server
	warm := requestBody(in.warmup)
	for i := 0; i < nSetups; i++ {
		t0 := time.Now()
		s, err := startServer(cfg.pxqld, logPath, dir, w)
		if err != nil {
			return nil, err
		}
		status, body, err := s.post(w.endpoint, "application/json", warm)
		setupS = append(setupS, time.Since(t0).Seconds())
		if err == nil && status != 200 {
			err = fmt.Errorf("warm-up question: status %d: %s", status, body)
		}
		if err != nil {
			s.stop()
			return nil, err
		}
		if i < nSetups-1 {
			s.stop()
		} else {
			srv = s
		}
	}
	defer srv.stop()

	// The read-only workloads' write probe appends to a second pxqld on
	// the same log, so the measured server's log never changes. The shard
	// pool plays no part in an append, so the probe server has none.
	var probe *prober
	if !w.ingest {
		probeDir := filepath.Join(dir, "probe")
		if err := os.MkdirAll(probeDir, 0o755); err != nil {
			return nil, err
		}
		pw := w
		pw.shards, pw.shardWorkers = 0, 0
		ps, err := startServer(cfg.pxqld, logPath, probeDir, pw)
		if err != nil {
			return nil, err
		}
		defer ps.stop()
		probe = &prober{srv: ps, batches: in.batches}
	}

	// The measured window.
	before, err := srv.stats()
	if err != nil {
		return nil, err
	}
	window := time.Duration(cfg.seconds) * time.Second
	start := time.Now()
	deadline := start.Add(window)
	var ingests []ingestResult
	var replies []reply
	if w.ingest {
		_, _, bursts := sc.batches()
		due := schedule(len(in.batches), bursts, window)
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			ingests = openLoopIngest(srv, in.batches, start, due)
		}()
		replies = closedLoop(srv, w, in.questions, deadline, cfg.trace, tr, nil)
		wg.Wait()
	} else {
		probe.start, probe.every = start, window/time.Duration(len(in.batches))
		replies = closedLoop(srv, w, in.questions, deadline, cfg.trace, tr, probe)
		ingests = probe.out
		probe.srv.stop()
	}
	var lastDone time.Time
	for _, r := range replies {
		if end := r.start.Add(r.dur); end.After(lastDone) {
			lastDone = end
		}
	}
	// The questions' share of the window: the window less the time each
	// client spent on probe appends.
	elapsed := lastDone.Sub(start) - probe.total()/time.Duration(w.clients)
	after, err := srv.stats()
	if err != nil {
		return nil, err
	}

	// After the window, untimed: the answers the quality metrics read,
	// from every question of the quality list not yet answered (for
	// ingest-mix, over the fully ingested log).
	got := answers{}
	quality := make(map[int][]byte)
	failed, attempted := 0, 0
	for _, r := range replies {
		attempted++
		if !r.ok() {
			failed++
			continue
		}
		got.add(r)
		if !w.ingest {
			if _, ok := quality[r.qi]; !ok {
				quality[r.qi] = r.body
			}
		}
	}
	bodies := make([][]byte, len(in.quality))
	for i, q := range in.quality {
		bodies[i] = requestBody(q)
	}
	for qi := range in.quality {
		if _, ok := quality[qi]; ok {
			continue
		}
		r := ask(srv, w.endpoint, bodies, qi)
		attempted++
		if !r.ok() {
			failed++
			continue
		}
		got.add(r)
		quality[qi] = r.body
	}
	for _, r := range ingests {
		attempted++
		if !r.ok() {
			failed++
		}
	}
	rss := srv.peakRSSMB()
	peakRSS := 0.0
	for _, v := range rss {
		peakRSS += v
	}
	srv.stop()

	// Answer check, outside every timed window.
	ck, err := newChecker(in, w, before)
	if err != nil {
		return nil, err
	}
	cr, err := ck.check(got)
	if err != nil {
		return nil, err
	}
	failed += cr.wrong

	var lat, latTraced, latUntraced []float64
	refused := 0
	for _, r := range replies {
		if r.refused() {
			refused++
		}
		if !r.ok() {
			continue
		}
		v := ms(r.dur)
		lat = append(lat, v)
		if r.traced {
			latTraced = append(latTraced, v)
		} else {
			latUntraced = append(latUntraced, v)
		}
	}
	var ingLat, late []float64
	for _, r := range ingests {
		if r.ok() {
			ingLat = append(ingLat, ms(r.latency()))
		}
		late = append(late, ms(r.late))
	}
	valid := percentile(late, 0.9) <= ms(maxLateP90) && maxOf(late) <= ms(maxLateMax)
	res.attempted, res.failed = attempted, failed
	res.correct = cr.wrong == 0 && valid && len(lat) > 0

	qmean, err := qualityMeans(quality, w)
	if err != nil {
		return nil, err
	}
	e2e := map[string]float64{
		"setup_s":       median(setupS),
		"query_p50_ms":  percentile(lat, 0.5),
		"query_p90_ms":  percentile(lat, 0.9),
		"queries_per_s": float64(len(lat)) / elapsed.Seconds(),
		"ingest_p50_ms": percentile(ingLat, 0.5),
		"ingest_p90_ms": percentile(ingLat, 0.9),
		"ok_frac":       1 - float64(failed)/float64(attempted),
		"peak_rss_mb":   peakRSS,
		"precision":     qmean[0],
		"generality":    qmean[1],
		"relevance":     qmean[2],
	}

	rec := newRecord(cfg, w)
	rec.Samples = map[string]int{"query": len(lat), "ingest": len(ingLat), "setup": len(setupS), "quality_questions": len(quality)}
	rec.Generator = map[string]any{"late_p90_ms": percentile(late, 0.9), "late_max_ms": maxOf(late), "valid": valid}
	rec.Check = map[string]int{"replies": cr.replies, "wrong": cr.wrong, "distinct_answers": cr.keys}
	rec.FailedFrac = float64(failed) / float64(attempted)
	rec.PeakRSSByProcess = rss

	res.printf("perfbench %s seed=%d seconds=%d trace=%d", w.name, cfg.seed, cfg.seconds, b2i(cfg.trace))
	if cr.wrong > 0 {
		res.printf("ANSWER CHECK FAILED: %d of %d replies wrong; first: %s", cr.wrong, cr.replies, cr.firstWrong)
	}
	if !valid {
		res.printf("RUN INVALID: the ingest generator fell behind its schedule")
	}
	if len(lat) < 100 {
		res.printf("warning: %d query samples; query_p90_ms wants at least 100", len(lat))
	}
	res.printf("failed_frac %.6f (%d of %d operations failed, were refused or answered wrong)", rec.FailedFrac, failed, attempted)
	if w.ingest {
		res.printf("ingest generator lateness p90 %.3f ms, max %.3f ms (%d batches)", percentile(late, 0.9), maxOf(late), len(late))
	} else {
		res.printf("write probe: %d appends to a second pxqld between questions, each timed from its send", len(ingests))
	}

	if !cfg.trace {
		for _, m := range e2eUnits {
			res.metrics[m.name] = metric{e2e[m.name], m.unit}
			res.printf("%-16s %14.6f %s", m.name, e2e[m.name], m.unit)
		}
		res.printf("%-16s %14.6f ratio (recorded, not gated)", "generality", e2e["generality"])
	} else {
		layers, err := layerPass(in, w, cfg.pxqld, tr)
		if err != nil {
			return nil, fmt.Errorf("layer pass: %w", err)
		}
		lookups := float64((after.Cache.Hits - before.Cache.Hits) + (after.Cache.Misses - before.Cache.Misses))
		layers["serve.cache_hit_ratio"] = 0
		if lookups > 0 {
			layers["serve.cache_hit_ratio"] = float64(after.Cache.Hits-before.Cache.Hits) / lookups
		}
		layers["serve.computations"] = float64(after.Computations - before.Computations)
		layers["serve.rejected"] = float64(refused)
		layers["trace.query_p50_ratio"] = 0
		if u := percentile(latUntraced, 0.5); u > 0 {
			layers["trace.query_p50_ratio"] = percentile(latTraced, 0.5) / u
		}
		res.printf("tracing overhead: traced query_p50_ms %.4f vs untraced %.4f over %d and %d replies, %d clients",
			percentile(latTraced, 0.5), percentile(latUntraced, 0.5), len(latTraced), len(latUntraced), w.clients)
		for _, m := range layerMetrics {
			res.metrics[m.name] = metric{layers[m.name], m.unit}
			res.printf("%-24s %16.6f %-6s -> %s", m.name, layers[m.name], m.unit, m.moves)
		}
		tracePath := filepath.Join(cfg.root, ".bench_build", "traces", fmt.Sprintf("%s-seed%d.json", w.name, cfg.seed))
		if err := os.MkdirAll(filepath.Dir(tracePath), 0o755); err != nil {
			return nil, err
		}
		if err := tr.write(tracePath); err != nil {
			return nil, err
		}
		res.printf("trace: %d spans in %s", len(tr.spans), tracePath)
	}

	rec.Metrics = res.metrics
	rec.Generality = e2e["generality"]
	recJSON, err := json.Marshal(rec)
	if err != nil {
		return nil, err
	}
	res.printf("record %s", recJSON)
	resultPath := filepath.Join(cfg.root, ".bench_build", "results",
		fmt.Sprintf("%s-seed%d-trace%d.json", w.name, cfg.seed, b2i(cfg.trace)))
	if err := os.MkdirAll(filepath.Dir(resultPath), 0o755); err != nil {
		return nil, err
	}
	if err := os.WriteFile(resultPath, recJSON, 0o644); err != nil {
		return nil, err
	}
	return res, nil
}

// newChecker builds the answer check for the run. The read-only
// workloads answer every question over the start log; ingest-mix answers
// over the exact prefix of the log its watermark covers.
func newChecker(in *inputs, w workload, before statsResponse) (*checker, error) {
	ck := &checker{questions: in.quality, evaluate: w.endpoint == "/api/evaluate"}
	if !w.ingest {
		flat, err := perfxplain.ReadLogCSV(bytes.NewReader(in.startCSV))
		if err != nil {
			return nil, err
		}
		ck.logAt = func(wm uint64) (*perfxplain.Log, error) {
			if wm != before.Watermark {
				return nil, fmt.Errorf("reply at watermark %d, but the log was never appended to (watermark %d)", wm, before.Watermark)
			}
			return flat, nil
		}
		return ck, nil
	}
	full, err := perfxplain.ReadLogCSV(bytes.NewReader(in.fullCSV))
	if err != nil {
		return nil, err
	}
	order := make(map[string]int, full.Len())
	for i, id := range full.IDs() {
		order[id] = i
	}
	var mu sync.Mutex
	prefixes := make(map[int]*perfxplain.Log)
	ck.logAt = func(wm uint64) (*perfxplain.Log, error) {
		// Every append ticks the watermark once, so the records held at wm
		// are the first before.Records + (wm - before.Watermark).
		n := before.Records + int(wm) - int(before.Watermark)
		if wm < before.Watermark || n > full.Len() {
			return nil, fmt.Errorf("watermark %d outside the run's appends", wm)
		}
		mu.Lock()
		defer mu.Unlock()
		if l, ok := prefixes[n]; ok {
			return l, nil
		}
		l := full.Filter(func(id string) bool { return order[id] < n })
		prefixes[n] = l
		return l, nil
	}
	return ck, nil
}

// qualityMeans averages precision, generality and relevance over the
// question list's replies: the training diagnostics of /api/explain, or
// the paper's metrics in the eval block of /api/evaluate.
func qualityMeans(bodies map[int][]byte, w workload) ([3]float64, error) {
	var sum [3]float64
	for _, qi := range sortedInts(bodies) {
		b := bodies[qi]
		var r struct {
			Precision, Generality, Relevance float64
			Eval                             *struct{ Precision, Generality, Relevance float64 }
		}
		if err := json.Unmarshal(b, &r); err != nil {
			return sum, fmt.Errorf("question %d reply: %w", qi, err)
		}
		if w.endpoint == "/api/evaluate" {
			if r.Eval == nil {
				return sum, fmt.Errorf("question %d reply has no eval block", qi)
			}
			r.Precision, r.Generality, r.Relevance = r.Eval.Precision, r.Eval.Generality, r.Eval.Relevance
		}
		sum[0] += r.Precision
		sum[1] += r.Generality
		sum[2] += r.Relevance
	}
	for i := range sum {
		sum[i] /= float64(len(bodies))
	}
	return sum, nil
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// sortedInts returns a map's int keys in order, so float sums over the
// map are reproducible.
func sortedInts[V any](m map[int]V) []int {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}
