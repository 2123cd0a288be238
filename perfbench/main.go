// Command perfbench is the end-to-end benchmark of pxqld, the warm
// PerfXplain explanation server. It simulates the workload's execution
// log from the seed, starts pxqld on it, sends real questions over
// loopback HTTP for a fixed time, checks every answer byte for byte
// against the in-process direct-path answer, and prints every metric by
// name and unit. The last line of its output is one JSON object:
//
//	{"correct": true, "attempted": 1000, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 they
// are the per-layer ones, timed around calls into each module from
// outside the program. Run it through run.sh, which builds pxqld and this
// command from the checkout:
//
//	bash perfbench/run.sh --workload jobs-explain --seed 1 --seconds 40 --trace 0
//
// README.md explains the workloads and the metric → layer → workload map.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

func main() {
	var cfg config
	flag.StringVar(&cfg.workload, "workload", "", "workload: jobs-explain, tasks-evaluate or ingest-mix")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of the simulated logs and the question lists")
	flag.IntVar(&cfg.seconds, "seconds", 40, "length of the measured window in seconds")
	trace := flag.Int("trace", 0, "1 = the traced run, printing the per-layer metrics")
	flag.StringVar(&cfg.root, "root", ".", "root of the checkout; output goes under its .bench_build/")
	flag.StringVar(&cfg.pxqld, "pxqld", "", "pxqld binary (default <root>/.bench_build/bin/pxqld)")
	flag.Parse()
	cfg.trace = *trace == 1

	if err := cfg.validate(*trace); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for _, l := range res.lines {
		fmt.Println(l)
	}
	final, err := json.Marshal(res.summary())
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(final))
}

// config is one benchmark invocation.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	root     string
	pxqld    string
	small    bool // the self-test's tiny scale
}

func (c *config) validate(trace int) error {
	if _, ok := findWorkload(c.workload); !ok {
		var names []string
		for _, w := range workloads {
			names = append(names, w.name)
		}
		return fmt.Errorf("unknown workload %q (want one of %s)", c.workload, strings.Join(names, ", "))
	}
	if c.seconds < 1 {
		return errors.New("-seconds must be at least 1")
	}
	if trace != 0 && trace != 1 {
		return errors.New("-trace must be 0 or 1")
	}
	root, err := filepath.Abs(c.root)
	if err != nil {
		return err
	}
	c.root = root
	if c.pxqld == "" {
		c.pxqld = filepath.Join(root, ".bench_build", "bin", "pxqld")
	}
	if _, err := os.Stat(c.pxqld); err != nil {
		return fmt.Errorf("pxqld binary: %w (build it with run.sh)", err)
	}
	return nil
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run's outcome.
type result struct {
	correct           bool
	attempted, failed int
	metrics           map[string]metric
	lines             []string // human-readable report, printed first
}

func (r *result) summary() any {
	return struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.correct, r.attempted, r.failed, r.metrics}
}

func (r *result) printf(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

// e2eUnits are the end-to-end metrics and their units. The mean
// generality is printed and recorded too, but is not one of them: it
// varies by up to a quarter from seed to seed on the task log.
var e2eUnits = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"query_p50_ms", "ms"},
	{"query_p90_ms", "ms"},
	{"queries_per_s", "1/s"},
	{"ingest_p50_ms", "ms"},
	{"ingest_p90_ms", "ms"},
	{"ok_frac", "ratio"},
	{"peak_rss_mb", "MiB"},
	{"precision", "ratio"},
	{"relevance", "ratio"},
}
