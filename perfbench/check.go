package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"sync"

	"perfxplain"
	"perfxplain/internal/serve"
)

// answerKey identifies an answer's bytes: the question and the watermark
// of the log it was computed over.
type answerKey struct {
	qi        int
	watermark uint64
}

// answers collects the distinct reply bodies per key, with counts, so
// thousands of replies are checked against one expected answer each.
type answers map[answerKey]map[string]int

func (a answers) add(r reply) {
	k := answerKey{r.qi, r.watermark}
	if a[k] == nil {
		a[k] = make(map[string]int)
	}
	a[k][string(r.body)]++
}

// checker computes the answer pxqld should have given, in process, on
// the direct path (Parallelism 1, no shards) over the same records.
type checker struct {
	questions []question
	evaluate  bool
	// logAt returns the flat log holding exactly the records pxqld held
	// at a watermark.
	logAt func(watermark uint64) (*perfxplain.Log, error)
}

// expected renders the reply body pxqld writes for question qi at the
// watermark, with and without the cached flag.
func (c *checker) expected(k answerKey) (plain, cached []byte, err error) {
	log, err := c.logAt(k.watermark)
	if err != nil {
		return nil, nil, err
	}
	opt := explainOptions()
	opt.Parallelism = 1
	ex, err := perfxplain.NewExplainer(log, opt)
	if err != nil {
		return nil, nil, err
	}
	defer ex.Close()
	qn := c.questions[k.qi]
	q, err := perfxplain.ParseQuery(qn.query)
	if err != nil {
		return nil, nil, err
	}
	q.Bind(qn.id1, qn.id2)
	x, err := ex.Explain(q)
	if err != nil {
		return nil, nil, err
	}
	resp := serve.ExplainResponse{
		Report:     perfxplain.RenderReport(q, x),
		Pair:       []string{qn.id1, qn.id2},
		Despite:    x.Despite(),
		Because:    x.Because(),
		Precision:  x.TrainPrecision(),
		Generality: x.TrainGenerality(),
		Relevance:  x.TrainRelevance(),
		Watermark:  k.watermark,
	}
	if lo, hi, ok := x.TrainRelevanceBounds(); ok {
		resp.RelevanceLo, resp.RelevanceHi = lo, hi
	}
	var m perfxplain.Metrics
	if c.evaluate {
		if m, err = perfxplain.Evaluate(log, q, x, opt); err != nil {
			return nil, nil, err
		}
	}
	render := func(cachedFlag bool) ([]byte, error) {
		resp.Cached = cachedFlag
		if c.evaluate {
			return encodeLikeServer(serve.EvaluateResponse{ExplainResponse: resp, Eval: m})
		}
		return encodeLikeServer(resp)
	}
	if plain, err = render(false); err != nil {
		return nil, nil, err
	}
	cached, err = render(true)
	return plain, cached, err
}

// encodeLikeServer matches pxqld's response encoding byte for byte.
func encodeLikeServer(v any) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	err := enc.Encode(v)
	return buf.Bytes(), err
}

// checkResult is the outcome of an answer check.
type checkResult struct {
	replies    int // replies compared
	wrong      int // replies whose bytes differ from the expected answer
	keys       int // distinct (question, watermark) answers computed
	firstWrong string
}

// check compares every collected reply with its expected answer, using
// two workers (each expected answer runs at parallelism 1).
func (c *checker) check(got answers) (checkResult, error) {
	keys := make([]answerKey, 0, len(got))
	for k := range got {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].watermark != keys[j].watermark {
			return keys[i].watermark < keys[j].watermark
		}
		return keys[i].qi < keys[j].qi
	})
	res := checkResult{keys: len(keys)}
	var mu sync.Mutex
	var firstErr error
	next := make(chan answerKey)
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range next {
				plain, cached, err := c.expected(k)
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = fmt.Errorf("expected answer for question %d at watermark %d: %w", k.qi, k.watermark, err)
				}
				if err == nil {
					for body, n := range got[k] {
						res.replies += n
						if body != string(plain) && body != string(cached) {
							res.wrong += n
							if res.firstWrong == "" {
								res.firstWrong = fmt.Sprintf("question %d (%s, %s) at watermark %d: reply differs from the direct-path answer",
									k.qi, c.questions[k.qi].id1, c.questions[k.qi].id2, k.watermark)
							}
						}
					}
				}
				mu.Unlock()
			}
		}()
	}
	for _, k := range keys {
		next <- k
	}
	close(next)
	wg.Wait()
	return res, firstErr
}
