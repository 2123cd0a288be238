package shard_test

// Segmented-layout equivalence through real worker pools: specs over a
// store snapshot, which ship its per-segment hashed slices, must
// reproduce the direct flat-log explanation byte for byte in process
// and on every transport, and — the point of sealing — appends must
// leave sealed segments warm in worker caches so only new slices
// re-ship.

import (
	"testing"

	"perfxplain/internal/joblog"
	"perfxplain/internal/shard"
)

// segmentedOver replays a log through a segment store and returns the
// snapshot's log, which carries its segment layout.
func segmentedOver(t *testing.T, log *joblog.Log, sealEvery int) *joblog.Log {
	t.Helper()
	st := joblog.NewStore(log.Schema, sealEvery)
	for _, r := range log.Records {
		st.MustAppend(r)
	}
	return st.Snapshot().Log()
}

// TestEquivalenceSegmentedInProcess pins that segmented plans match the
// direct flat-log path at several seal thresholds — including ones
// that split the dominant blocking group across segments — and shard
// counts.
func TestEquivalenceSegmentedInProcess(t *testing.T) {
	log := equivLog(60)
	q := equivQuery(t, log)
	want := explainWith(t, log, q, 0, nil)
	for _, sealEvery := range []int{13, 40} {
		snapLog := segmentedOver(t, log, sealEvery)
		for _, n := range []int{1, 2, 7} {
			got := explainWith(t, snapLog, q, n, shard.InProc{Workers: 4})
			if got != want {
				t.Errorf("segmented seal=%d shards=%d diverges from serial:\n--- got ---\n%s--- want ---\n%s",
					sealEvery, n, got, want)
			}
		}
	}
}

// TestEquivalenceSegmentedSubprocess runs segmented specs through real
// subprocess workers over the gob pipe protocol.
func TestEquivalenceSegmentedSubprocess(t *testing.T) {
	log := equivLog(60)
	q := equivQuery(t, log)
	want := explainWith(t, log, q, 0, nil)
	snapLog := segmentedOver(t, log, 13)
	pool := workerPool(t, 3)
	for _, n := range []int{1, 2, 7} {
		got := explainWith(t, snapLog, q, n, pool)
		if got != want {
			t.Errorf("segmented subprocess shards=%d diverges from serial:\n--- got ---\n%s--- want ---\n%s",
				n, got, want)
		}
	}
}

// TestEquivalenceSegmentedChanTransport exercises the full frame
// protocol (slice cache included) cold and warm: the second pass over
// the same pool must resolve the per-segment slices from worker caches.
func TestEquivalenceSegmentedChanTransport(t *testing.T) {
	log := equivLog(60)
	q := equivQuery(t, log)
	want := explainWith(t, log, q, 0, nil)
	snapLog := segmentedOver(t, log, 13)
	pool := &shard.Pool{Dialer: shard.InProcDialer{}, Workers: 3}
	t.Cleanup(pool.Close)
	for pass, label := range []string{"cold", "warm"} {
		for _, n := range []int{1, 2, 7} {
			got := explainWith(t, snapLog, q, n, pool)
			if got != want {
				t.Errorf("segmented chan shards=%d (%s) diverges:\n--- got ---\n%s--- want ---\n%s",
					n, label, got, want)
			}
		}
		if pass == 1 {
			if s := pool.Stats(); s.SliceHits == 0 {
				t.Errorf("warm segmented pass recorded no slice hits: %+v", s)
			}
		}
	}
}

// TestSegmentedWarmCacheAcrossAppends pins the tentpole property: after
// the store grows, sealed segments keep their hashes, so a re-query at
// the new watermark re-ships only the slices the append created — the
// retained segments hit worker caches.
func TestSegmentedWarmCacheAcrossAppends(t *testing.T) {
	full := equivLog(60)
	st := joblog.NewStore(full.Schema, 10)
	for _, r := range full.Records[:40] {
		st.MustAppend(r)
	}
	pool := &shard.Pool{Dialer: shard.InProcDialer{}, Workers: 1}
	t.Cleanup(pool.Close)

	explainAt := func(snap *joblog.Snapshot) {
		t.Helper()
		log := snap.Log()
		q := equivQuery(t, log)
		want := explainWith(t, log, q, 0, nil)
		if got := explainWith(t, log, q, 2, pool); got != want {
			t.Fatalf("segmented explanation at watermark %d diverges:\n--- got ---\n%s--- want ---\n%s",
				snap.Len(), got, want)
		}
	}

	snap1 := st.Snapshot()
	explainAt(snap1)
	s1 := pool.Stats()

	for _, r := range full.Records[40:] {
		st.MustAppend(r)
	}
	snap2 := st.Snapshot()

	// Every sealed segment of the first watermark survives in the second
	// with an identical hash — the invariant that keeps caches warm.
	hashes2 := map[string]bool{}
	for _, v := range snap2.Segments() {
		hashes2[v.Hash] = true
	}
	retained := 0
	for _, v := range snap1.Segments() {
		if v.Sealed {
			if !hashes2[v.Hash] {
				t.Fatalf("sealed segment at %d lost its hash across appends", v.Start)
			}
			retained++
		}
	}
	if retained == 0 {
		t.Fatal("test log produced no sealed segments at the first watermark")
	}

	explainAt(snap2)
	s2 := pool.Stats()
	if s2.SliceHits <= s1.SliceHits {
		t.Errorf("re-query after append produced no new slice hits: %+v -> %+v", s1, s2)
	}

	// A repeat pass at the same watermark re-ships nothing: every slice
	// (segments and evaluation samples alike) is already worker-side.
	explainAt(snap2)
	s3 := pool.Stats()
	if s3.SliceMisses != s2.SliceMisses {
		t.Errorf("repeat pass at one watermark re-shipped %d payloads", s3.SliceMisses-s2.SliceMisses)
	}
	if s3.SliceHits <= s2.SliceHits {
		t.Errorf("repeat pass recorded no slice hits: %+v -> %+v", s2, s3)
	}
}
