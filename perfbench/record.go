package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// runRecord is the machine and sample metadata written with every result.
type runRecord struct {
	Workload   string         `json:"workload"`
	Seed       int64          `json:"seed"`
	Seconds    int            `json:"seconds"`
	Trace      bool           `json:"trace"`
	Commit     string         `json:"commit"`
	GoVersion  string         `json:"go_version"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	NProc      int            `json:"nproc"`
	CPUModel   string         `json:"cpu_model"`
	Samples    map[string]int `json:"samples"`
	Generator  map[string]any `json:"generator"`
	Check      map[string]int `json:"check"`
	FailedFrac float64        `json:"failed_frac"`
	Generality float64        `json:"generality"`
	// PeakRSSByProcess is pxqld's peak resident set, then each shard
	// worker's, in MiB.
	PeakRSSByProcess []float64         `json:"peak_rss_by_process_mb"`
	Metrics          map[string]metric `json:"metrics"`
}

func newRecord(cfg config, w workload) runRecord {
	return runRecord{
		Workload:   w.name,
		Seed:       cfg.seed,
		Seconds:    cfg.seconds,
		Trace:      cfg.trace,
		Commit:     commit(cfg.root),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc:      runtime.NumCPU(),
		CPUModel:   cpuModel(),
	}
}

// commit names the code under test: the git commit when the checkout is
// a repository, otherwise a hash of its source files.
func commit(root string) string {
	if out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
		return strings.TrimSpace(string(out))
	}
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (d.Name() == ".bench_build" || d.Name() == ".git") {
			return filepath.SkipDir
		}
		if !d.Type().IsRegular() {
			return nil
		}
		rel, _ := filepath.Rel(root, path)
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		io.WriteString(h, rel+"\x00")
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown"
	}
	return "tree-sha256:" + hex.EncodeToString(h.Sum(nil))[:16]
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// percentile returns the nearest-rank p-quantile of xs (0 when empty).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	return s[max(i, 0)]
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		m = max(m, x)
	}
	return m
}
