package shard_test

// FuzzShardCodec pins the two safety properties of the shard protocol:
//
//  1. Lossless round-trips: a planned spec's wire form — log slices,
//     compiled-predicate specs, splitmix counter ranges — survives gob
//     (the pipe encoding) and JSON (the debug encoding) unchanged, and
//     both the decoded spec and a worker serving its task frame (the
//     wire path) reproduce exactly what the planned spec computes when
//     run in process against the coordinator's log (the by-reference
//     path).
//  2. No panics on corrupt input: arbitrary bytes, and valid frames with
//     fuzzer-chosen corruption, go through the full worker loop without
//     panicking — failures surface as transport errors or in-band task
//     errors.
//
// Run with: go test -fuzz FuzzShardCodec ./internal/shard

import (
	"bytes"
	"encoding/gob"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"reflect"
	"testing"

	"perfxplain/internal/core"
	"perfxplain/internal/features"
	"perfxplain/internal/joblog"
	"perfxplain/internal/pxql"
	"perfxplain/internal/shard"
)

// byteDriver doles out fuzz bytes as bounded decisions.
type byteDriver struct {
	data []byte
	pos  int
}

func (d *byteDriver) next() byte {
	if d.pos >= len(d.data) {
		return 0
	}
	b := d.data[d.pos]
	d.pos++
	return b
}

func (d *byteDriver) intn(n int) int { return int(d.next()) % n }

// fuzzLog builds a small log whose shape (field kinds, missing cells,
// nominal payloads including intern-hostile strings) is driven by the
// fuzz input.
func (d *byteDriver) fuzzLog() *joblog.Log {
	nf := 1 + d.intn(5)
	fields := make([]joblog.Field, nf)
	for i := range fields {
		kind := joblog.Numeric
		if d.intn(2) == 1 {
			kind = joblog.Nominal
		}
		fields[i] = joblog.Field{Name: fmt.Sprintf("f%d", i), Kind: kind}
	}
	log := joblog.NewLog(joblog.NewSchema(fields))
	payloads := []string{"a", "b", "(x→y)", "→", "", "same", "T"}
	nr := 2 + d.intn(11)
	for r := 0; r < nr; r++ {
		values := make([]joblog.Value, nf)
		for i, f := range fields {
			switch {
			case d.intn(5) == 0:
				values[i] = joblog.None()
			case f.Kind == joblog.Numeric:
				values[i] = joblog.Num(float64(int8(d.next())))
			default:
				values[i] = joblog.Str(payloads[d.intn(len(payloads))])
			}
		}
		log.MustAppend(&joblog.Record{ID: fmt.Sprintf("r%d", r), Values: values})
	}
	return log
}

// fuzzPredicate builds a predicate over the log's derived features (and
// the occasional unknown feature).
func (d *byteDriver) fuzzPredicate(dr *features.Deriver) pxql.Predicate {
	n := d.intn(4)
	p := make(pxql.Predicate, 0, n)
	for i := 0; i < n; i++ {
		feat := "nosuch"
		if s := dr.Schema(); s.Len() > 0 && d.intn(8) != 0 {
			feat = s.Field(d.intn(s.Len())).Name
		}
		var v joblog.Value
		switch d.intn(3) {
		case 0:
			v = joblog.Num(float64(int8(d.next())))
		case 1:
			v = joblog.Str([]string{"T", "F", "GT", "SIM", "a", "(x→y)"}[d.intn(6)])
		default:
			v = joblog.None()
		}
		p = append(p, pxql.Atom{Feature: feat, Op: pxql.Op(d.intn(6)), Value: v})
	}
	return p
}

// gobBytes encodes v with a fresh encoder — equal values produce equal
// streams, making re-encoding a losslessness check that treats nil and
// empty slices (which gob cannot distinguish) uniformly.
func gobBytes(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatalf("gob encode: %v", err)
	}
	return buf.Bytes()
}

func roundTripGob[T any](t *testing.T, v *T) *T {
	t.Helper()
	enc := gobBytes(t, v)
	out := new(T)
	if err := gob.NewDecoder(bytes.NewReader(enc)).Decode(out); err != nil {
		t.Fatalf("gob decode of own encoding: %v", err)
	}
	if !bytes.Equal(enc, gobBytes(t, out)) {
		t.Fatalf("gob round-trip not lossless:\n%#v\nvs\n%#v", v, out)
	}
	return out
}

func roundTripJSON[T any](t *testing.T, v *T) {
	t.Helper()
	enc, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("json marshal: %v", err)
	}
	out := new(T)
	if err := json.Unmarshal(enc, out); err != nil {
		t.Fatalf("json unmarshal of own encoding: %v", err)
	}
	enc2, err := json.Marshal(out)
	if err != nil {
		t.Fatalf("json re-marshal: %v", err)
	}
	if !bytes.Equal(enc, enc2) {
		t.Fatalf("json round-trip not lossless:\n%s\nvs\n%s", enc, enc2)
	}
}

// workerRoundTrip serves one task frame through the full worker loop
// and returns its decoded result.
func workerRoundTrip(t *testing.T, task *shard.Task) *shard.Result {
	t.Helper()
	var out bytes.Buffer
	if err := shard.Worker(bytes.NewReader(gobBytes(t, task)), &out); err != nil {
		t.Fatalf("worker loop: %v", err)
	}
	res := new(shard.Result)
	if err := gob.NewDecoder(&out).Decode(res); err != nil {
		t.Fatalf("decode worker result: %v", err)
	}
	return res
}

// sameOutcome fails unless the by-reference run (want, wantErr) and a
// wire-path run (got, gotErr) agree: both error, or equal gob bytes.
func sameOutcome(t *testing.T, what string, want any, wantErr error, got any, gotErr error) {
	t.Helper()
	if (wantErr == nil) != (gotErr == nil) {
		t.Fatalf("%s: error mismatch: by-reference %v vs wire %v", what, wantErr, gotErr)
	}
	if wantErr == nil && !bytes.Equal(gobBytes(t, want), gobBytes(t, got)) {
		t.Fatalf("%s: result differs:\n%#v\nvs\n%#v", what, want, got)
	}
}

// taskErr turns a worker result's in-band error into an error value.
func taskErr(res *shard.Result) error {
	if res.Err != "" {
		return errors.New(res.Err)
	}
	return nil
}

func FuzzShardCodec(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15})
	f.Add(bytes.Repeat([]byte{0xff, 0x00, 0x7a}, 40))
	f.Add([]byte("DESPITE pigscript_issame = T OBSERVED duration_compare = GT"))

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<14 {
			return
		}
		// Property 2a: arbitrary bytes through the worker loop — no panic.
		_ = shard.Worker(bytes.NewReader(data), io.Discard)

		// Build structured specs from the same bytes.
		d := &byteDriver{data: data}
		log := d.fuzzLog()
		dr := features.NewDeriver(log.Schema, features.Level3)
		q := &pxql.Query{
			Despite:  d.fuzzPredicate(dr),
			Observed: d.fuzzPredicate(dr),
			Expected: d.fuzzPredicate(dr),
		}
		specs := core.PlanEnumShards(log, features.Level3, q, q.Despite,
			1+d.intn(64), 1+d.intn(5), uint64(d.next()))

		for si := range specs {
			want, wantErr := specs[si].Run()

			// Property 1: gob and JSON round-trips of the wire form are
			// lossless, and the decoded spec and the worker loop both
			// reproduce the by-reference execution exactly.
			wire := specs[si].Wire()
			dec := roundTripGob(t, wire)
			roundTripJSON(t, wire)
			got, gotErr := dec.Run()
			sameOutcome(t, "decoded enum spec", want, wantErr, got, gotErr)
			res := workerRoundTrip(t, &shard.Task{Version: shard.Version, Seq: si, Enum: wire})
			sameOutcome(t, "worker enum task", want, wantErr, res.Enum, taskErr(res))
			if wantErr == nil && !reflect.DeepEqual(want.Labels, got.Labels) {
				t.Fatalf("decoded spec labels differ")
			}
		}

		// Evaluation shards: the same three-way agreement, plus the
		// reference/cache path a worker would take.
		x := &core.Explanation{Despite: d.fuzzPredicate(dr), Because: d.fuzzPredicate(dr)}
		evalSpecs := core.PlanEvalShards(log, features.Level3, q, x, 1+d.intn(64), 1+d.intn(4), uint64(d.next()))
		for si := range evalSpecs {
			want, wantErr := evalSpecs[si].Run()
			wire := evalSpecs[si].Wire()
			dec := roundTripGob(t, wire)
			roundTripJSON(t, wire)
			got, gotErr := dec.Run()
			sameOutcome(t, "decoded eval spec", want, wantErr, got, gotErr)
			res := workerRoundTrip(t, &shard.Task{Version: shard.Version, Seq: si, Eval: wire})
			sameOutcome(t, "worker eval task", want, wantErr, res.Eval, taskErr(res))
			// A reference frame without a cached payload must error, not
			// panic or fabricate counts.
			ref := *wire
			ref.Slices = []core.LogSlice{wire.Slices[0].AsRef()}
			if _, err := ref.Run(); err == nil {
				t.Fatalf("reference slice without cache executed")
			}
		}

		// The log slice and intern table round-trip losslessly on their
		// own (the codec pieces in joblog).
		wire := log.Wire()
		roundTripGob(t, &wire)
		roundTripJSON(t, &wire)
		if back, err := wire.Log(); err != nil {
			t.Fatalf("decode of own wire log: %v", err)
		} else if back.Len() != log.Len() {
			t.Fatalf("wire log length changed: %d vs %d", back.Len(), log.Len())
		}
		intern := log.Columns().Intern().Strings()
		cols, err := log.ColumnsSeeded(intern)
		if err != nil {
			t.Fatalf("seed with own intern table: %v", err)
		}
		for s := 0; s < cols.Intern().Len() && s < len(intern); s++ {
			if cols.Intern().Str(uint32(s)) != intern[s] {
				t.Fatalf("seeded intern table reordered symbol %d", s)
			}
		}

		// Property 2b: a valid frame with fuzzer-chosen corruption — no
		// panic anywhere in decode or execution; errors are fine.
		if len(specs) == 0 {
			return
		}
		task := shard.Task{Version: shard.Version, Seq: 1, Enum: specs[0].Wire()}
		frame := gobBytes(t, &task)
		if len(frame) > 0 {
			i := d.intn(len(frame))
			frame[i] ^= 1 << uint(d.intn(8))
			var out bytes.Buffer
			_ = shard.Worker(bytes.NewReader(frame), &out)
		}
	})
}
