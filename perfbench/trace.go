package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one question share its
// question id; set-up spans carry question -1.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"` // -1 for a root span
	Name     string `json:"name"`
	Question int    `json:"question"`
	StartNS  int64  `json:"start_ns"` // since the tracer started
	EndNS    int64  `json:"end_ns"`
}

func (s span) ms() float64 { return float64(s.EndNS-s.StartNS) / 1e6 }

// tracer keeps spans in memory; write saves them when the run ends.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id.
func (t *tracer) begin(name string, parent, question int) int {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Name: name, Question: question, StartNS: now, EndNS: -1})
	return len(t.spans) - 1
}

// end closes span id and returns it.
func (t *tracer) end(id int) span {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].EndNS = now
	return t.spans[id]
}

// timed runs f inside a span and returns the span's duration in ms.
func (t *tracer) timed(name string, parent, question int, f func() error) (float64, error) {
	id := t.begin(name, parent, question)
	err := f()
	return t.end(id).ms(), err
}

// durations returns the durations of the closed spans with this name
// whose question id is at least minQuestion.
func (t *tracer) durations(name string, minQuestion int) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && s.EndNS >= 0 && s.Question >= minQuestion {
			out = append(out, s.ms())
		}
	}
	return out
}

func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.MarshalIndent(t.spans, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
