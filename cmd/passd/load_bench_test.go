package main

import (
	"bytes"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/shard"
	"repro/internal/store"
	"repro/pass"
)

// loadBody is a POST /tables body shaped like the served benchmark's
// point_1d load: rows pickup hours in four decimals (two rush-hour peaks
// over a uniform day) and log-normal trip distances in four decimals,
// 4 shards, passd's build defaults.
func loadBody(rows int) []byte {
	rng := rand.New(rand.NewPCG(42, 7))
	round4 := func(v float64) float64 { return math.Round(v*1e4) / 1e4 }
	csv := []byte("pickup_time,trip_distance\n")
	for i := 0; i < rows; i++ {
		var hour float64
		switch u := rng.Float64(); {
		case u < 0.30:
			hour = 8.5 + 1.5*rng.NormFloat64()
		case u < 0.65:
			hour = 18 + 2*rng.NormFloat64()
		default:
			hour = rng.Float64() * 24
		}
		hour = math.Min(math.Max(hour, 0), 23.9999)
		dist := math.Max(round4(math.Min(math.Exp(0.6+0.8*rng.NormFloat64()), 80)), 0.01)
		csv = strconv.AppendFloat(csv, round4(hour), 'f', -1, 64)
		csv = append(csv, ',')
		csv = strconv.AppendFloat(csv, dist, 'f', -1, 64)
		csv = append(csv, '\n')
	}
	return append(strconv.AppendQuote([]byte(`{"name":"trips","shards":4,"csv":`), string(csv)), '}')
}

// durableServer is a passd server over a fresh data directory.
func durableServer(b *testing.B) *server {
	st, err := store.Open(b.TempDir(), store.Options{CheckpointInterval: -1})
	if err != nil {
		b.Fatal(err)
	}
	sess := pass.NewSession()
	if _, err := sess.AttachStore(st); err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { st.Close() })
	return newServer(sess)
}

// BenchmarkCreateTable loads a 1M-row benchmark-shaped table through
// POST /tables, as the served benchmark's set-up does, into a durable
// server, and reports the handler's time and its stages, each run by the
// function the handler runs: decode (body read and JSON decode),
// readcsv, split (shard.Split), builds (BuildShardedEngine less the
// split) and persist (registering the engine, which saves its
// snapshots): go test -run '^$' -bench CreateTable -benchtime 5x
// ./cmd/passd/
func BenchmarkCreateTable(b *testing.B) {
	body := loadBody(1_000_000)
	var handler, decode, readCSV, split, build, persist time.Duration
	lap := func(d *time.Duration, t0 time.Time) time.Time {
		now := time.Now()
		*d += now.Sub(t0)
		return now
	}
	for b.Loop() {
		s := durableServer(b)
		rec := httptest.NewRecorder()
		t0 := time.Now()
		s.handleCreateTable(rec, httptest.NewRequest(http.MethodPost, "/tables", bytes.NewReader(body)))
		lap(&handler, t0)
		if rec.Code != http.StatusCreated {
			b.Fatalf("POST /tables: %d %s", rec.Code, rec.Body)
		}

		s = durableServer(b)
		req := createTableRequest{buildOptions: s.buildDefaults}
		t0 = time.Now()
		if !readOwnedBody(s, httptest.NewRecorder(), httptest.NewRequest(http.MethodPost, "/tables", bytes.NewReader(body)), &req, decodeCreateTable) {
			b.Fatal("body refused")
		}
		t0 = lap(&decode, t0)
		tbl, err := pass.ReadCSVBytes(req.CSV)
		if err != nil {
			b.Fatal(err)
		}
		lap(&readCSV, t0)
		d, err := dataset.ReadCSVBytes(req.CSV, "table")
		if err != nil {
			b.Fatal(err)
		}
		t0 = time.Now()
		if _, _, err := shard.Split(d, shard.Range, 0, req.Shards); err != nil {
			b.Fatal(err)
		}
		t0 = lap(&split, t0)
		eng, schema, err := pass.BuildShardedEngine(tbl, pass.Options{
			Partitions: req.Partitions, SampleRate: req.SampleRate, SampleSize: req.SampleSize, Seed: req.Seed,
		}, req.Shards)
		if err != nil {
			b.Fatal(err)
		}
		t0 = lap(&build, t0)
		if err := s.sess.RegisterEngine(req.Name, eng, schema); err != nil {
			b.Fatal(err)
		}
		lap(&persist, t0)
	}
	build -= split
	n := float64(b.N)
	for _, m := range []struct {
		d    time.Duration
		unit string
	}{{handler, "handler_ms"}, {decode, "decode_ms"}, {readCSV, "readcsv_ms"}, {split, "split_ms"}, {build, "builds_ms"}, {persist, "persist_ms"}} {
		b.ReportMetric(float64(m.d.Microseconds())/1e3/n, m.unit)
	}
}
