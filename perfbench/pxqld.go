package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// server is one pxqld process listening on a loopback port.
type server struct {
	cmd    *exec.Cmd
	base   string
	client *http.Client
	exited chan struct{} // closed once cmd.Wait returns
	werr   error
	once   sync.Once // stop runs once
}

// startServer launches pxqld on the workload's log file and returns once
// it answers /api/healthz. pxqld loads its -log before it listens, so a
// healthy server has the log resident.
func startServer(bin, logPath, dir string, w workload) (*server, error) {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		s, err := tryStart(bin, logPath, dir, w)
		if err == nil {
			return s, nil
		}
		lastErr = err
	}
	return nil, lastErr
}

func tryStart(bin, logPath, dir string, w workload) (*server, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	args := []string{"-listen", addr, "-log", logPath}
	if w.shards > 0 {
		args = append(args, "-shards", strconv.Itoa(w.shards), "-shard-workers", strconv.Itoa(w.shardWorkers))
	}
	errLog, err := os.Create(filepath.Join(dir, "pxqld.stderr"))
	if err != nil {
		return nil, err
	}
	defer errLog.Close()
	cmd := exec.Command(bin, args...)
	cmd.Stderr = errLog
	cmd.Dir = dir
	// Its own process group, so stop reaches the shard workers too.
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start pxqld: %w", err)
	}
	s := &server{
		cmd:  cmd,
		base: "http://" + addr,
		client: &http.Client{
			Timeout: 120 * time.Second,
			Transport: &http.Transport{
				Proxy:               nil,
				MaxIdleConnsPerHost: 8,
				DisableCompression:  true,
			},
		},
		exited: make(chan struct{}),
	}
	go func() {
		s.werr = cmd.Wait()
		close(s.exited)
	}()

	deadline := time.Now().Add(120 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case <-s.exited:
			msg, _ := os.ReadFile(errLog.Name())
			return nil, fmt.Errorf("pxqld exited during start-up (%v): %s", s.werr, strings.TrimSpace(string(msg)))
		default:
		}
		resp, err := s.client.Get(s.base + "/api/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	s.stop()
	return nil, errors.New("pxqld did not become healthy within 120s")
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// post sends a JSON or CSV body and returns the status and response body.
func (s *server) post(path, contentType string, body []byte) (int, []byte, error) {
	resp, err := s.client.Post(s.base+path, contentType, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// statsResponse mirrors the fields of pxqld's /api/stats that the
// benchmark reads.
type statsResponse struct {
	Records      int    `json:"records"`
	Watermark    uint64 `json:"watermark"`
	Computations int64  `json:"computations"`
	Cache        struct {
		Hits   int64 `json:"hits"`
		Misses int64 `json:"misses"`
	} `json:"cache"`
}

func (s *server) stats() (statsResponse, error) {
	var st statsResponse
	resp, err := s.client.Get(s.base + "/api/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("/api/stats: status %d", resp.StatusCode)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// processes returns pxqld's pid followed by its children's (the shard
// workers). A child is listed under the thread that forked it, so every
// thread is read.
func (s *server) processes() []int {
	pid := s.cmd.Process.Pid
	pids := []int{pid}
	tasks, _ := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/children", pid))
	for _, t := range tasks {
		b, err := os.ReadFile(t)
		if err != nil {
			continue
		}
		for _, f := range strings.Fields(string(b)) {
			if c, err := strconv.Atoi(f); err == nil {
				pids = append(pids, c)
			}
		}
	}
	return pids
}

// peakRSSMB returns the peak resident set (VmHWM) of pxqld and of each
// shard worker, in MiB.
func (s *server) peakRSSMB() []float64 {
	var out []float64
	for _, pid := range s.processes() {
		b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
		if err != nil {
			continue
		}
		for _, line := range strings.Split(string(b), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				if f := strings.Fields(rest); len(f) > 0 {
					kb, _ := strconv.ParseFloat(f[0], 64)
					out = append(out, kb/1024)
				}
			}
		}
	}
	return out
}

// stop kills pxqld's process group and waits until pxqld and every
// shard worker it spawned have ended. Later calls do nothing.
func (s *server) stop() { s.once.Do(s.kill) }

func (s *server) kill() {
	pids := s.processes()
	_ = syscall.Kill(-s.cmd.Process.Pid, syscall.SIGKILL)
	<-s.exited
	s.client.CloseIdleConnections()
	deadline := time.Now().Add(10 * time.Second)
	for _, pid := range pids[1:] {
		for alive(pid) && time.Now().Before(deadline) {
			time.Sleep(5 * time.Millisecond)
		}
	}
}

// alive reports whether pid is still running (a zombie has ended).
func alive(pid int) bool {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return false
	}
	// The state follows the parenthesised command name.
	if i := bytes.LastIndexByte(b, ')'); i >= 0 && i+2 < len(b) {
		return b[i+2] != 'Z' && b[i+2] != 'X'
	}
	return true
}
