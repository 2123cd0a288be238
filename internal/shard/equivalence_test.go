package shard_test

// The distributed-vs-local equivalence suite: every execution mode of
// the pair pipeline — direct (no runner), in-process shards reading the
// log by reference, and workers over the frame protocol (subprocess
// pipes, channels, sockets) — must produce byte-identical explanations,
// atom details and metrics at every shard count. The cases deliberately
// include a blocking group large enough to straddle shard boundaries at
// small shard counts and a log small enough that high shard counts
// exceed its outer units.
//
// Subprocess workers are this test binary re-executed with
// PXQL_SHARD_WORKER=1 (see TestMain in worker_main_test.go).

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"perfxplain/internal/core"
	"perfxplain/internal/features"
	"perfxplain/internal/joblog"
	"perfxplain/internal/pxql"
	"perfxplain/internal/shard"
)

// equivLog builds a deterministic synthetic execution log with the shape
// the shard planner cares about: several blocking groups under the
// (pigscript, numinstances) despite clause, one of them much larger
// than the others (it straddles shard boundaries), plus missing values
// and an unblockable record (missing pigscript).
func equivLog(n int) *joblog.Log {
	schema := joblog.NewSchema([]joblog.Field{
		{Name: "pigscript", Kind: joblog.Nominal},
		{Name: "numinstances", Kind: joblog.Numeric},
		{Name: "inputsize", Kind: joblog.Numeric},
		{Name: "hostname", Kind: joblog.Nominal},
		{Name: "cpu", Kind: joblog.Numeric},
		{Name: "duration", Kind: joblog.Numeric},
	})
	log := joblog.NewLog(schema)
	rng := rand.New(rand.NewSource(99))
	scripts := []string{"wordcount", "join", "scan"}
	for i := 0; i < n; i++ {
		// Two thirds of the records share one blocking group so it
		// dominates the outer-unit sequence.
		script := scripts[0]
		inst := 10.0
		if i%3 == 1 {
			script = scripts[1+i%2]
			inst = 5
		}
		host := fmt.Sprintf("host-%d", i%4)
		values := []joblog.Value{
			joblog.Str(script),
			joblog.Num(inst),
			joblog.Num(float64(64 + 32*(i%5))),
			joblog.Str(host),
			joblog.Num(10 + 90*rng.Float64()),
			joblog.Num(20 + 400*rng.Float64()),
		}
		if i%11 == 7 {
			values[4] = joblog.None() // missing cpu
		}
		if i == n-1 {
			values[0] = joblog.None() // unblockable record
		}
		log.MustAppend(&joblog.Record{ID: fmt.Sprintf("job-%03d", i), Values: values})
	}
	return log
}

// equivQuery asks why one big-group record was much slower than another.
func equivQuery(t testing.TB, log *joblog.Log) *pxql.Query {
	t.Helper()
	q, err := pxql.Parse(`
DESPITE pigscript_issame = T AND numinstances_issame = T
OBSERVED duration_compare = GT
EXPECTED duration_compare = SIM`)
	if err != nil {
		t.Fatal(err)
	}
	// Pick the pair with the largest duration gap inside the despite
	// context, like the CLI's -find.
	pairs := core.RelatedPairs(log, features.Level3, q, 0, 1)
	bestGap := -1.0
	for _, p := range pairs {
		if !p.Observed {
			continue
		}
		d1 := log.Value(p.A, "duration").Num
		d2 := log.Value(p.B, "duration").Num
		if d2 == 0 {
			continue
		}
		if gap := d1 / d2; gap > bestGap {
			bestGap = gap
			q.ID1, q.ID2 = p.A.ID, p.B.ID
		}
	}
	if bestGap < 0 {
		t.Fatal("no pair of interest in synthetic log")
	}
	return q
}

// render dumps every user-visible facet of an explanation plus its
// held-out metrics with full float precision. With a runner, the
// metrics run through the sharded evaluation walk — so comparing a
// sharded render against the serial one pins the evaluation's
// distributed path too.
func render(t *testing.T, log *joblog.Log, q *pxql.Query, x *core.Explanation,
	shards int, runner core.ShardRunner) string {
	t.Helper()
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", x)
	fmt.Fprintf(&b, "train: precision=%v generality=%v relevance=%v sample=%d related=%d\n",
		x.TrainPrecision, x.TrainGenerality, x.TrainRelevance, x.SampleSize, x.RelatedPairs)
	for i, a := range x.Atoms {
		fmt.Fprintf(&b, "atom[%d]: %s precision=%v generality=%v\n", i, a.Atom, a.Precision, a.Generality)
	}
	m, err := core.EvaluateExplanationCtx(context.Background(), log, features.Level3, q, x, 0, 7, 0, shards, runner)
	if err != nil {
		t.Fatalf("evaluate: %v", err)
	}
	fmt.Fprintf(&b, "metrics: relevance=%v precision=%v generality=%v context=%d because=%d\n",
		m.Relevance, m.Precision, m.Generality, m.ContextPairs, m.BecausePairs)
	return b.String()
}

// explainWith runs one full explanation (with generated despite — the
// mode exercising every pipeline stage twice) under the given runner.
func explainWith(t *testing.T, log *joblog.Log, q *pxql.Query, shards int, runner core.ShardRunner) string {
	t.Helper()
	ex, err := core.NewExplainer(log, core.Config{
		Width:       3,
		Seed:        7,
		SampleSize:  400,
		Shards:      shards,
		Runner:      runner,
		Parallelism: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	x, err := ex.ExplainWithDespite(q)
	if err != nil {
		t.Fatal(err)
	}
	return render(t, log, q, x, shards, runner)
}

// workerPool returns a subprocess pool backed by this test binary.
func workerPool(t *testing.T, workers int) *shard.Pool {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	p := &shard.Pool{
		Command: []string{exe},
		Env:     []string{workerEnv + "=1"},
		Workers: workers,
	}
	t.Cleanup(p.Close)
	return p
}

func shardCounts() []int {
	return []int{1, 2, 7, runtime.GOMAXPROCS(0)}
}

func TestEquivalenceInProcess(t *testing.T) {
	log := equivLog(60)
	q := equivQuery(t, log)
	want := explainWith(t, log, q, 0, nil)
	for _, n := range shardCounts() {
		got := explainWith(t, log, q, n, shard.InProc{Workers: 4})
		if got != want {
			t.Errorf("in-process shards=%d diverges from serial:\n--- got ---\n%s--- want ---\n%s", n, got, want)
		}
	}
}

func TestEquivalenceSubprocess(t *testing.T) {
	log := equivLog(60)
	q := equivQuery(t, log)
	want := explainWith(t, log, q, 0, nil)
	pool := workerPool(t, 3)
	for _, n := range shardCounts() {
		got := explainWith(t, log, q, n, pool)
		if got != want {
			t.Errorf("subprocess shards=%d diverges from serial:\n--- got ---\n%s--- want ---\n%s", n, got, want)
		}
	}
}

// TestEquivalenceEmptyShards pins the over-sharded case: a log whose
// despite context has fewer outer units than the shard count plans one
// spec per unit and no empty spec, and the merged output is
// byte-identical in both execution modes.
func TestEquivalenceEmptyShards(t *testing.T) {
	log := equivLog(14) // big group ~9 records, others tiny
	q := equivQuery(t, log)
	specs := core.PlanEnumShards(log, features.Level3, q, q.Despite, 0, 64, 123)
	if len(specs) == 0 || len(specs) >= 64 {
		t.Fatalf("64-way plan of a %d-record log has %d specs; want one per outer unit", log.Len(), len(specs))
	}
	for i, s := range specs {
		if len(s.Groups) == 0 {
			t.Fatalf("spec %d of %d is empty", i, len(specs))
		}
	}
	want := explainWith(t, log, q, 0, nil)
	if got := explainWith(t, log, q, 64, shard.InProc{}); got != want {
		t.Errorf("in-process 64-way sharding diverges:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
	if got := explainWith(t, log, q, 64, workerPool(t, 3)); got != want {
		t.Errorf("subprocess 64-way sharding diverges:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestEquivalenceStraddlingGroup pins that a blocking group split across
// shard specs (different outer ranges of the same group in different
// specs) reproduces the serial pair walk.
func TestEquivalenceStraddlingGroup(t *testing.T) {
	log := equivLog(60)
	q := equivQuery(t, log)
	specs := core.PlanEnumShards(log, features.Level3, q, q.Despite, 0, 7, 123)
	seen := map[int]int{} // group fingerprint (first global member) -> spec count
	for _, s := range specs {
		for _, g := range s.Groups {
			seen[g.Members[0]]++
		}
	}
	straddles := false
	for _, n := range seen {
		if n > 1 {
			straddles = true
		}
	}
	if !straddles {
		t.Fatal("expected at least one blocking group to straddle shard boundaries at 7 shards")
	}
	want := explainWith(t, log, q, 0, nil)
	if got := explainWith(t, log, q, 7, shard.InProc{}); got != want {
		t.Errorf("straddling-group plan diverges:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// socketPool starts an in-process loopback listener serving the shard
// protocol with token auth and returns a pool of socket transports
// dialing it — the remote-worker topology, minus the second machine.
func socketPool(t *testing.T, workers int) *shard.Pool {
	t.Helper()
	const token = "equivalence-test-token"
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go shard.Serve(ln, token)
	t.Cleanup(func() { ln.Close() })
	p := &shard.Pool{
		Dialer:  &shard.SocketDialer{Addrs: []string{ln.Addr().String()}, Token: token},
		Workers: workers,
	}
	t.Cleanup(p.Close)
	return p
}

// TestEquivalenceSocket pins the loopback-TCP transport: byte-identical
// output at every shard count, with the slice cache cold (first pass)
// and warm (second pass over the same pool — by then every sample and
// evaluation slice is cached worker-side and ships as a hash).
func TestEquivalenceSocket(t *testing.T) {
	log := equivLog(60)
	q := equivQuery(t, log)
	want := explainWith(t, log, q, 0, nil)
	pool := socketPool(t, 2)
	for pass, label := range []string{"cold", "warm"} {
		for _, n := range shardCounts() {
			got := explainWith(t, log, q, n, pool)
			if got != want {
				t.Errorf("socket shards=%d (%s cache) diverges from serial:\n--- got ---\n%s--- want ---\n%s",
					n, label, got, want)
			}
		}
		if pass == 1 {
			if s := pool.Stats(); s.SliceHits == 0 {
				t.Errorf("warm pass recorded no slice-cache hits: %+v", s)
			}
		}
	}
}

// TestEquivalenceChanTransport pins the in-process channel transport —
// the full frame protocol, slice cache included, without serialization.
func TestEquivalenceChanTransport(t *testing.T) {
	log := equivLog(60)
	q := equivQuery(t, log)
	want := explainWith(t, log, q, 0, nil)
	pool := &shard.Pool{Dialer: shard.InProcDialer{}, Workers: 3}
	t.Cleanup(pool.Close)
	for _, n := range shardCounts() {
		got := explainWith(t, log, q, n, pool)
		if got != want {
			t.Errorf("chan-transport shards=%d diverges from serial:\n--- got ---\n%s--- want ---\n%s", n, got, want)
		}
	}
}

// TestSocketWorkerDiesMidFrame pins the truncated-frame case on the
// socket transport: a worker that completes the handshake, accepts a
// task and then dies halfway through writing its result must surface as
// a typed *shard.TransportError — never a hang, never a panic, never a
// silent partial result.
func TestSocketWorkerDiesMidFrame(t *testing.T) {
	const token = "mid-frame-token"
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	// A half gob-encoded result frame: enough bytes to look like the
	// start of a stream, cut before the frame completes.
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&shard.Result{Version: shard.Version, Seq: 0}); err != nil {
		t.Fatal(err)
	}
	half := buf.Bytes()[:buf.Len()/2]

	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		// Server half of the handshake (the wire format transport.go
		// documents): 32-byte challenge out, 32-byte HMAC back, OK byte.
		nonce := make([]byte, 32)
		if _, err := conn.Write(nonce); err != nil {
			return
		}
		mac := make([]byte, 32)
		if _, err := io.ReadFull(conn, mac); err != nil {
			return
		}
		if _, err := conn.Write([]byte{0x4f}); err != nil {
			return
		}
		// Read some of the task, answer with a truncated frame, die.
		io.ReadFull(conn, make([]byte, 16))
		conn.Write(half)
	}()

	// The fake server skips HMAC verification, so any token dials.
	pool := &shard.Pool{
		Dialer:  &shard.SocketDialer{Addrs: []string{ln.Addr().String()}, Token: token},
		Workers: 1,
	}
	defer pool.Close()

	log := equivLog(20)
	q := equivQuery(t, log)
	specs := core.PlanEnumShards(log, features.Level3, q, q.Despite, 0, 2, 1)
	done := make(chan error, 1)
	go func() {
		_, err := pool.RunEnum(specs)
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("expected an error from a worker dying mid-frame")
		}
		var te *shard.TransportError
		if !errors.As(err, &te) {
			t.Fatalf("mid-frame death surfaced as %T (%v), want *shard.TransportError", err, err)
		}
		if te.Op != "recv" {
			t.Errorf("transport error op = %q, want \"recv\"", te.Op)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("truncated frame hung the coordinator")
	}
}

// TestSocketBadToken pins authentication: a coordinator with the wrong
// token is rejected during the handshake with a typed transport error.
func TestSocketBadToken(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go shard.Serve(ln, "right-token")
	defer ln.Close()

	pool := &shard.Pool{
		Dialer:  &shard.SocketDialer{Addrs: []string{ln.Addr().String()}, Token: "wrong-token"},
		Workers: 1,
	}
	defer pool.Close()
	log := equivLog(20)
	q := equivQuery(t, log)
	specs := core.PlanEnumShards(log, features.Level3, q, q.Despite, 0, 2, 1)
	_, err = pool.RunEnum(specs)
	if err == nil {
		t.Fatal("expected a handshake rejection with the wrong token")
	}
	var te *shard.TransportError
	if !errors.As(err, &te) {
		t.Fatalf("bad token surfaced as %T (%v), want *shard.TransportError", err, err)
	}
	if te.Op != "handshake" {
		t.Errorf("transport error op = %q, want \"handshake\"", te.Op)
	}
}

// TestSubprocessWorkerCrash pins crash handling: workers that die
// mid-protocol fail the batch with an error (no hang, no panic), the
// dead workers are discarded, and the next batch re-leases fresh ones.
func TestSubprocessWorkerCrash(t *testing.T) {
	log := equivLog(30)
	q := equivQuery(t, log)
	specs := core.PlanEnumShards(log, features.Level3, q, q.Despite, 0, 4, 1)
	pool := &shard.Pool{Command: []string{"sh", "-c", "exit 1"}, Workers: 2}
	t.Cleanup(pool.Close)
	for round := 0; round < 2; round++ {
		if _, err := pool.RunEnum(specs); err == nil {
			t.Fatalf("round %d: expected an error from crashing workers", round)
		}
	}
}

// TestSubprocessWorkerFailure pins error propagation: a pool whose
// worker command is broken must fail the explanation with an error, not
// hang or corrupt output.
func TestSubprocessWorkerFailure(t *testing.T) {
	log := equivLog(30)
	q := equivQuery(t, log)
	pool := &shard.Pool{Command: []string{"/nonexistent/pxql-worker"}, Workers: 2}
	t.Cleanup(pool.Close)
	ex, err := core.NewExplainer(log, core.Config{Seed: 7, Shards: 4, Runner: pool})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ex.Explain(q); err == nil {
		t.Fatal("expected an error from a dead worker pool")
	}
}
