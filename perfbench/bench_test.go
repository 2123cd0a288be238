package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"testing"

	"perfxplain"
	"perfxplain/internal/serve"
)

// benchmarkSpec is the part of ../BENCHMARK.json the self-test checks.
type benchmarkSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestTinyWorkloads runs every workload at a tiny scale, untraced and
// traced, and checks that each completes with correct answers and prints
// every metric BENCHMARK.json names, with its unit. It also runs
// ingest-mix, which BENCHMARK.json does not gate.
func TestTinyWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("builds pxqld and runs every workload")
	}
	root := t.TempDir()
	bin := filepath.Join(root, "pxqld")
	build := exec.Command("go", "build", "-o", bin, "perfxplain/cmd/pxqld")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build pxqld: %v\n%s", err, out)
	}
	spec := loadSpec(t)
	for _, sw := range spec.Workloads {
		if _, ok := findWorkload(sw.Name); !ok {
			t.Errorf("BENCHMARK.json names unknown workload %q", sw.Name)
		}
	}
	for _, w := range workloads {
		for trace, want := range [][]struct{ Name, Unit string }{spec.EndToEnd, spec.PerLayer} {
			cfg := config{workload: w.name, seed: 3, seconds: 1, trace: trace == 1, root: root, pxqld: bin, small: true}
			if err := cfg.validate(trace); err != nil {
				t.Fatal(err)
			}
			res, err := run(cfg)
			if err != nil {
				t.Fatalf("%s trace=%d: %v", w.name, trace, err)
			}
			if !res.correct || res.failed != 0 || res.attempted < 1 {
				t.Errorf("%s trace=%d: correct=%v failed=%d attempted=%d\n%v",
					w.name, trace, res.correct, res.failed, res.attempted, res.lines)
			}
			if len(res.metrics) != len(want) {
				t.Errorf("%s trace=%d: %d metrics, BENCHMARK.json names %d", w.name, trace, len(res.metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%d: metric %s = %+v (present %v), want unit %s", w.name, trace, m.Name, got, ok, m.Unit)
				}
			}
		}
	}
}

// TestCheckCatchesCorruptAnswer feeds the answer check a genuine server
// reply and a copy with one byte changed: the first passes, the second
// counts as wrong.
func TestCheckCatchesCorruptAnswer(t *testing.T) {
	for _, name := range []string{"jobs-explain", "tasks-evaluate"} {
		w, _ := findWorkload(name)
		in, err := makeInputs(w, 5, scale{small: true})
		if err != nil {
			t.Fatal(err)
		}
		l, err := perfxplain.ReadLogCSV(bytes.NewReader(in.startCSV))
		if err != nil {
			t.Fatal(err)
		}
		st := perfxplain.NewStore(l, 0)
		if err := st.Ingest(l); err != nil {
			t.Fatal(err)
		}
		st.Seal()
		opt := explainOptions()
		opt.Shards = w.shards
		srv := serve.NewServer(serve.Config{Store: st, Explain: opt})
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, w.endpoint, bytes.NewReader(requestBody(in.questions[0]))))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", name, rec.Code, rec.Body)
		}
		genuine := rec.Body.Bytes()
		corrupt := bytes.Replace(genuine, []byte("BECAUSE"), []byte("BECAUS3"), 1)
		if bytes.Equal(genuine, corrupt) {
			t.Fatalf("%s: reply has no BECAUSE clause to corrupt:\n%s", name, genuine)
		}

		ck := &checker{questions: in.questions, evaluate: w.endpoint == "/api/evaluate",
			logAt: func(uint64) (*perfxplain.Log, error) { return l, nil }}
		got := answers{}
		got.add(reply{qi: 0, watermark: st.Watermark(), body: genuine})
		res, err := ck.check(got)
		if err != nil || res.wrong != 0 || res.replies != 1 {
			t.Fatalf("%s: genuine reply: %+v, %v", name, res, err)
		}
		got.add(reply{qi: 0, watermark: st.Watermark(), body: corrupt})
		res, err = ck.check(got)
		if err != nil || res.wrong != 1 || res.replies != 2 {
			t.Fatalf("%s: corrupted reply not caught: %+v, %v", name, res, err)
		}
	}
}
