package main

import (
	"bytes"
	"fmt"
	"math/rand"

	"perfxplain/internal/collect"
	"perfxplain/internal/core"
	"perfxplain/internal/eval"
	"perfxplain/internal/features"
	"perfxplain/internal/joblog"
)

// workload is one traffic mix against one pxqld configuration. The three
// workloads are chosen so that each layer of the served path is stressed
// by one and bypassed by another (see README.md):
//
//   - jobs-explain: scoring-heavy explains on the 540-job log, direct
//     path, every request a cache miss;
//   - tasks-evaluate: enumeration- and evaluation-heavy questions on the
//     10,170-task log, every one crossing the shard transport;
//   - ingest-mix: the only writer and the only workload with cache hits.
type workload struct {
	name     string
	endpoint string // /api/explain or /api/evaluate
	// clients is the number of closed-loop clients. Every workload has
	// one: pxqld already spreads one explanation over all cores. With two
	// clients on two cores, jobs-explain's median latency swung between
	// 13 and 21 ms from one ten-second stretch to the next; with one, it
	// stayed between 11 and 14 ms.
	clients int
	// shards and shardWorkers configure pxqld's shared subprocess pool
	// (0 = the direct path).
	shards, shardWorkers int
	tasks                bool // the task log instead of the job log
	ingest               bool // open-loop appends while one client queries
	// questions is the number of distinct questions in the measured list.
	// For the read-only workloads it exceeds pxqld's 128-entry cache, so
	// a cyclic walk of the list misses on every request.
	questions int
	// quality is the number of questions, a prefix of the drawn list,
	// whose answers the precision, generality and relevance metrics
	// average. ingest-mix asks the ones beyond its measured list after
	// the window.
	quality  int
	template eval.QueryTemplate
}

var workloads = []workload{
	{
		name: "jobs-explain", endpoint: "/api/explain", clients: 1,
		questions: 600, quality: 600, template: eval.WhySlowerDespiteSameNumInstances(),
	},
	{
		name: "tasks-evaluate", endpoint: "/api/evaluate", clients: 1,
		shards: 2, shardWorkers: 2, tasks: true,
		questions: 140, quality: 140, template: eval.WhyLastTaskFaster(),
	},
	{
		name: "ingest-mix", endpoint: "/api/explain", clients: 1,
		tasks: true, ingest: true,
		questions: 8, quality: 64, template: eval.WhyLastTaskFaster(),
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// Ingest shape. ingest-mix starts pxqld on all but ingestBatches *
// ingestRows task records and appends the rest in ingestBursts bursts
// spread over the window. The read-only workloads' write probe appends
// probeBatches batches of ingestRows renamed copies of their own records
// to a second pxqld, one at a time, evenly spread over the window (see
// prober), so every workload reports the latency of the same append, and
// over the same stretch of time as its questions.
const (
	ingestBatches = 120
	ingestRows    = 42
	ingestBursts  = 6
	probeBatches  = 200
)

// question is one PXQL question: the workload template bound to a pair.
type question struct {
	query    string // PXQL source without a FOR clause
	id1, id2 string
}

// inputs are everything a run feeds pxqld and checks answers against,
// all derived from the seed.
type inputs struct {
	startCSV  []byte     // pxqld's -log file
	fullCSV   []byte     // ingest-mix: the start log plus every batch
	batches   [][]byte   // CSV batches: ingest-mix appends or write probes
	questions []question // the measured list
	quality   []question // the quality list; questions is its prefix
	warmup    question   // answered during set-up, never measured
}

// scale shrinks a workload for the self-test: the 32-job sweep and
// short question lists.
type scale struct {
	small bool
}

func (s scale) questions(w workload) (measured, quality int) {
	if !s.small {
		return w.questions, w.quality
	}
	if w.ingest {
		return 2, 4
	}
	return 4, 4
}

func (s scale) batches() (n, rows, bursts int) {
	if s.small {
		return 12, 2, 3
	}
	return ingestBatches, ingestRows, ingestBursts
}

// makeInputs simulates the paper's parameter sweep from the seed and
// draws the workload's question list from it.
func makeInputs(w workload, seed int64, sc scale) (*inputs, error) {
	sweep := collect.DefaultSweep(seed)
	if sc.small {
		sweep = collect.SmallSweep(seed)
	}
	res, err := sweep.Collect()
	if err != nil {
		return nil, fmt.Errorf("simulate logs: %w", err)
	}
	full := res.Jobs
	if w.tasks {
		full = res.Tasks
	}
	in := &inputs{}
	n, initial := full.Len(), full.Len()

	if w.ingest {
		nb, rows, _ := sc.batches()
		initial = n - nb*rows
		for b := 0; b < nb; b++ {
			lo := initial + b*rows
			csv, err := writeCSV(full.Schema, full.Records[lo:lo+rows])
			if err != nil {
				return nil, err
			}
			in.batches = append(in.batches, csv)
		}
		if in.fullCSV, err = writeCSV(full.Schema, full.Records); err != nil {
			return nil, err
		}
	} else {
		for b := 0; b < probeBatches; b++ {
			recs := make([]*joblog.Record, ingestRows)
			for i := range recs {
				k := b*ingestRows + i
				r := full.Records[k%n]
				recs[i] = &joblog.Record{ID: fmt.Sprintf("probe%05d-%s", k, r.ID), Values: r.Values}
			}
			csv, err := writeCSV(full.Schema, recs)
			if err != nil {
				return nil, err
			}
			in.batches = append(in.batches, csv)
		}
	}
	if in.startCSV, err = writeCSV(full.Schema, full.Records[:initial]); err != nil {
		return nil, err
	}

	start := &joblog.Log{Schema: full.Schema, Records: full.Records[:initial]}
	measured, quality := sc.questions(w)
	qs, err := drawQuestions(start, w.template, seed, max(measured, quality)+1)
	if err != nil {
		return nil, err
	}
	in.questions, in.quality, in.warmup = qs[:measured], qs[:quality], qs[len(qs)-1]
	return in, nil
}

// drawQuestions binds the template to n distinct observed pairs of the
// log, drawn with the seed. Pairs follow the template's scenario filter,
// as the paper's users ask about the pairs they noticed.
func drawQuestions(log *joblog.Log, t eval.QueryTemplate, seed int64, n int) ([]question, error) {
	q, err := t.Query()
	if err != nil {
		return nil, err
	}
	var pool []core.LabeledPair
	for _, p := range core.RelatedPairsP(log, features.Level3, q, core.DefaultConfig().MaxPairs, seed, 0) {
		if p.Observed && (t.PairFilter == nil || t.PairFilter(log, p.A, p.B)) {
			pool = append(pool, p)
		}
	}
	if len(pool) < n {
		return nil, fmt.Errorf("%s: %d observed pairs, need %d", t.Name, len(pool), n)
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	src := fmt.Sprintf("DESPITE %s\nOBSERVED %s\nEXPECTED %s", t.Despite, t.Observed, t.Expected)
	out := make([]question, n)
	for i := range out {
		out[i] = question{query: src, id1: pool[i].A.ID, id2: pool[i].B.ID}
	}
	return out, nil
}

func writeCSV(s *joblog.Schema, recs []*joblog.Record) ([]byte, error) {
	var buf bytes.Buffer
	if err := (&joblog.Log{Schema: s, Records: recs}).WriteCSV(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
