package main

import (
	"encoding/json"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"perfxplain/internal/serve"
)

// reply is one question's round trip.
type reply struct {
	qi        int // index into the question list
	start     time.Time
	dur       time.Duration
	status    int
	body      []byte
	watermark uint64
	err       error
	traced    bool
}

func (r reply) ok() bool { return r.err == nil && r.status == http.StatusOK }

// refused reports admission control turning the question away.
func (r reply) refused() bool {
	return r.status == http.StatusTooManyRequests || r.status == http.StatusGatewayTimeout
}

func requestBody(q question) []byte {
	b, _ := json.Marshal(serve.ExplainRequest{Query: q.query, Pair: []string{q.id1, q.id2}})
	return b
}

// ask sends question qi and decodes the watermark of a successful reply.
func ask(s *server, endpoint string, bodies [][]byte, qi int) reply {
	r := reply{qi: qi, start: time.Now()}
	r.status, r.body, r.err = s.post(endpoint, "application/json", bodies[qi])
	r.dur = time.Since(r.start)
	if r.ok() {
		var resp struct {
			Watermark uint64 `json:"watermark"`
		}
		if err := json.Unmarshal(r.body, &resp); err != nil {
			r.err = err
		}
		r.watermark = resp.Watermark
	}
	return r
}

// closedLoop runs clients that each send their next question only after
// the previous reply, until the deadline. The clients share one cursor
// over the question list, so two in-flight questions are never the same.
// With traced set, every other reply records a client-side span, so the
// traced and untraced latencies come from the same moments of the run.
// A non-nil probe gets a turn after every reply.
func closedLoop(s *server, w workload, qs []question, deadline time.Time, traced bool, tr *tracer, probe *prober) []reply {
	bodies := make([][]byte, len(qs))
	for i, q := range qs {
		bodies[i] = requestBody(q)
	}
	var cursor atomic.Int64
	var mu sync.Mutex
	var out []reply
	var wg sync.WaitGroup
	for c := 0; c < w.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var local []reply
			for time.Now().Before(deadline) {
				probe.turn()
				n := cursor.Add(1) - 1
				qi := int(n % int64(len(qs)))
				if traced && n%2 == 1 {
					sp := tr.begin("serve.request", -1, qi)
					r := ask(s, w.endpoint, bodies, qi)
					tr.end(sp)
					r.traced = true
					local = append(local, r)
					continue
				}
				local = append(local, ask(s, w.endpoint, bodies, qi))
			}
			mu.Lock()
			out = append(out, local...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return out
}

// prober is the read-only workloads' write probe. Its batches are due
// evenly over the window; a client whose turn finds one due posts it to
// the probe server, a second pxqld on the same log, before its next
// question. An append never overlaps a question of its client, so
// neither waits on the other, and the appends sample the same stretch of
// time as the questions.
type prober struct {
	srv     *server
	batches [][]byte
	start   time.Time
	every   time.Duration // batch i is due at (i+0.5) * every

	mu    sync.Mutex // held across a post, so appends stay in order
	out   []ingestResult
	spent time.Duration
}

// turn posts the next batch if it is due. Its latency is timed from the
// send, since a due batch waits for the client's question in flight.
func (p *prober) turn() {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	i := len(p.out)
	if i == len(p.batches) || time.Since(p.start) < time.Duration(float64(p.every)*(float64(i)+0.5)) {
		return
	}
	r := ingestResult{due: time.Now()}
	r.status, _, r.err = p.srv.post("/api/ingest", "text/csv", p.batches[i])
	r.done = time.Now()
	p.out = append(p.out, r)
	p.spent += r.done.Sub(r.due)
}

// total is the time the clients spent on probe appends.
func (p *prober) total() time.Duration {
	if p == nil {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.spent
}

// ingestResult is one scheduled append.
type ingestResult struct {
	due, done time.Time
	late      time.Duration // generator lateness (see openLoopIngest)
	status    int
	err       error
}

func (r ingestResult) ok() bool { return r.err == nil && r.status == http.StatusOK }

// latency is timed from the batch's due time, so a stall that delays
// later batches counts against every batch it delays.
func (r ingestResult) latency() time.Duration { return r.done.Sub(r.due) }

// schedule returns the due offsets of n batches in bursts spread evenly
// over the window: every batch of burst k is due at (k+0.5)/bursts of it,
// as a log shipper flushes what it buffered. Between bursts the client's
// repeated questions hit the cache.
func schedule(n, bursts int, window time.Duration) []time.Duration {
	per := (n + bursts - 1) / bursts
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Duration((float64(i/per) + 0.5) / float64(bursts) * float64(window))
	}
	return out
}

// openLoopIngest posts the batches on their schedule, one at a time so
// the log grows in order. A batch is sent at its due time or, when the
// previous append is still running, as soon as it returns; the
// generator's own lateness is the send time minus the later of those two,
// which is zero unless the load generator itself fell behind.
func openLoopIngest(s *server, batches [][]byte, start time.Time, due []time.Duration) []ingestResult {
	out := make([]ingestResult, len(batches))
	var prevDone time.Time
	for i, b := range batches {
		r := ingestResult{due: start.Add(due[i])}
		if d := time.Until(r.due); d > 0 {
			time.Sleep(d)
		}
		ready := r.due
		if prevDone.After(ready) {
			ready = prevDone
		}
		r.late = time.Since(ready)
		r.status, _, r.err = s.post("/api/ingest", "text/csv", b)
		r.done = time.Now()
		prevDone = r.done
		out[i] = r
	}
	return out
}
