package serve

// Request bodies are capped at MaxBodyBytes: an oversized body fails
// with 413 while it is read, and an oversized ingest leaves the store —
// and therefore the watermark every cached answer is keyed on —
// untouched.

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"perfxplain"
)

// limitedServer serves the sealed fixture log with the body cap shrunk
// to limit bytes, so the test needs no 64 MiB payload.
func limitedServer(t *testing.T, limit int64) (*httptest.Server, *perfxplain.Store) {
	t.Helper()
	jobs, _ := fixture(t)
	st := perfxplain.NewStore(jobs, 0)
	if err := st.Ingest(jobs); err != nil {
		t.Fatal(err)
	}
	st.Seal()
	s := NewServer(Config{Store: st, Explain: baseOptions()})
	s.maxBody = limit
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return ts, st
}

func post(t *testing.T, url, contentType string, body []byte) int {
	t.Helper()
	resp, err := http.Post(url, contentType, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

func TestOversizedBodiesRejected(t *testing.T) {
	jobs, csv := fixture(t)
	limit := int64(len(csv) / 2)
	ts, st := limitedServer(t, limit)
	if MaxBodyBytes <= int64(len(csv)) {
		t.Fatalf("MaxBodyBytes %d would reject the %d-byte fixture log", MaxBodyBytes, len(csv))
	}

	before, n := st.Watermark(), st.Len()
	if got := post(t, ts.URL+"/api/ingest", "text/csv", csv); got != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized ingest: status %d, want 413", got)
	}
	if st.Watermark() != before || st.Len() != n {
		t.Fatalf("oversized ingest moved the store: watermark %d -> %d, records %d -> %d",
			before, st.Watermark(), n, st.Len())
	}

	// A body under the cap still goes through.
	var one bytes.Buffer
	if err := jobs.Filter(func(id string) bool { return id == jobs.IDs()[0] }).WriteCSV(&one); err != nil {
		t.Fatal(err)
	}
	if int64(one.Len()) >= limit {
		t.Fatalf("one-record CSV (%d bytes) does not fit the %d-byte test cap", one.Len(), limit)
	}
	if got := post(t, ts.URL+"/api/ingest", "text/csv", one.Bytes()); got != http.StatusOK {
		t.Fatalf("small ingest: status %d, want 200", got)
	}
	if st.Watermark() == before {
		t.Error("small ingest did not advance the watermark")
	}

	big, err := json.Marshal(ExplainRequest{Query: testQuery + strings.Repeat(" ", int(limit))})
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{"/api/explain", "/api/evaluate"} {
		if got := post(t, ts.URL+path, "application/json", big); got != http.StatusRequestEntityTooLarge {
			t.Errorf("oversized %s body: status %d, want 413", path, got)
		}
	}
}
