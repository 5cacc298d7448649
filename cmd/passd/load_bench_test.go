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
	"repro/internal/kdtree"
	"repro/internal/shard"
	"repro/internal/store"
	"repro/pass"
)

// loadBody is a POST /tables body shaped like a served benchmark load
// of rows rows and dims predicate columns, 4 shards: pickup hours in four
// decimals (two rush-hour peaks over a uniform day), then for 3-D the
// integer day 0–30 and zone 0–262, and log-normal trip distances in four
// decimals. The 1-D body is point_1d's, at passd's build defaults; the
// 3-D one is batch_kd's, with its 256 partitions and 5 % sample.
func loadBody(rows, dims int) []byte {
	rng := rand.New(rand.NewPCG(42, 7))
	round4 := func(v float64) float64 { return math.Round(v*1e4) / 1e4 }
	csv := []byte("pickup_time,trip_distance\n")
	if dims == 3 {
		csv = []byte("pickup_time,pickup_day,zone,trip_distance\n")
	}
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
		csv = strconv.AppendFloat(csv, round4(hour), 'f', -1, 64)
		csv = append(csv, ',')
		if dims == 3 {
			csv = strconv.AppendInt(csv, int64(rng.IntN(31)), 10)
			csv = append(csv, ',')
			csv = strconv.AppendInt(csv, int64(rng.IntN(263)), 10)
			csv = append(csv, ',')
		}
		dist := math.Max(round4(math.Min(math.Exp(0.6+0.8*rng.NormFloat64()), 80)), 0.01)
		csv = strconv.AppendFloat(csv, dist, 'f', -1, 64)
		csv = append(csv, '\n')
	}
	head := `{"name":"trips","shards":4,"csv":`
	if dims == 3 {
		head = `{"name":"trips","shards":4,"partitions":256,"sample_rate":0.05,"csv":`
	}
	return append(strconv.AppendQuote([]byte(head), string(csv)), '}')
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

// BenchmarkCreateTable loads a benchmark-shaped table through POST
// /tables, as the served benchmark's set-up does, and reports the
// handler's time and its stages, each run by the function the handler
// runs: decode (body read and JSON decode), readcsv, split (shard.Split),
// builds (BuildShardedEngine less the split) and persist (registering the
// engine, which saves its snapshots when there is a data directory):
// go test -run '^$' -bench CreateTable -benchtime 5x ./cmd/passd/
//
// 1d is point_1d's 1M-row table into a durable server; 3d is batch_kd's
// 300k-row 3-D table into a server without a data directory, which also
// reports kdtree_ms: the four shards' k-d trees built one after another
// by kdtree.Build alone, as the builds make them.
func BenchmarkCreateTable(b *testing.B) {
	b.Run("1d", func(b *testing.B) {
		benchCreateTable(b, loadBody(1_000_000, 1), func() *server { return durableServer(b) })
	})
	b.Run("3d", func(b *testing.B) {
		benchCreateTable(b, loadBody(300_000, 3), func() *server { return newServer(pass.NewSession()) })
	})
}

// benchCreateTable is BenchmarkCreateTable for one body, loaded into a
// fresh server from fresh for each run.
func benchCreateTable(b *testing.B, body []byte, fresh func() *server) {
	var handler, decode, readCSV, split, trees, build, persist time.Duration
	lap := func(d *time.Duration, t0 time.Time) time.Time {
		now := time.Now()
		*d += now.Sub(t0)
		return now
	}
	for b.Loop() {
		s := fresh()
		rec := httptest.NewRecorder()
		t0 := time.Now()
		s.handleCreateTable(rec, httptest.NewRequest(http.MethodPost, "/tables", bytes.NewReader(body)))
		lap(&handler, t0)
		if rec.Code != http.StatusCreated {
			b.Fatalf("POST /tables: %d %s", rec.Code, rec.Body)
		}

		s = fresh()
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
		parts, _, err := shard.Split(d, shard.Range, 0, req.Shards)
		if err != nil {
			b.Fatal(err)
		}
		t0 = lap(&split, t0)
		if d.Dims() > 1 {
			for _, p := range parts {
				leaves := shard.Budget{Partitions: req.Partitions}.Share(0, p.N(), d.N()).Partitions
				if _, _, err := kdtree.Build(p, kdtree.PolicyPASS, kdtree.Options{MaxLeaves: leaves}); err != nil {
					b.Fatal(err)
				}
			}
			t0 = lap(&trees, t0)
		}
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
	stages := []struct {
		d    time.Duration
		unit string
	}{{handler, "handler_ms"}, {decode, "decode_ms"}, {readCSV, "readcsv_ms"}, {split, "split_ms"}, {build, "builds_ms"}, {persist, "persist_ms"}}
	if trees > 0 {
		stages = append(stages, struct {
			d    time.Duration
			unit string
		}{trees, "kdtree_ms"})
	}
	for _, m := range stages {
		b.ReportMetric(float64(m.d.Microseconds())/1e3/n, m.unit)
	}
}
