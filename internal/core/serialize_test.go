package core

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"

	"repro/internal/binenc"
	"repro/internal/dataset"
	"repro/internal/sketch"
	"repro/internal/stats"
)

func saveBytes(t testing.TB, s *Synopsis) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func loadBytes(t testing.TB, b []byte) *Synopsis {
	t.Helper()
	s, err := Load(bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// answers renders a synopsis's answers to a fixed probe set — every
// aggregate over random rectangles of the given width plus the three sketch
// families — one line per answer with every field, so two synopses agree
// on the lines only if they agree to the bit.
func answers(s *Synopsis, seed uint64) []string {
	rng := stats.NewRNG(seed)
	var out []string
	for trial := 0; trial < 40; trial++ {
		q := randomTaxiRect(rng, s.Dims())
		for _, kind := range []dataset.AggKind{dataset.Sum, dataset.Count, dataset.Avg, dataset.Min, dataset.Max} {
			r, err := s.Query(kind, q)
			out = append(out, fmt.Sprintf("%v %v: %+v %v", kind, q, r, err))
		}
	}
	for _, q := range []sketch.Query{
		{Kind: sketch.KindQuantile, Arg: 0.5}, {Kind: sketch.KindDistinct}, {Kind: sketch.KindTopK, Arg: 5},
	} {
		r, err := s.SketchQuery(q)
		out = append(out, fmt.Sprintf("%+v: %+v %v", q, r, err))
	}
	return out
}

func sameAnswers(t *testing.T, context string, want, got []string) {
	t.Helper()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: answer %d differs:\n got %s\nwant %s", context, i, got[i], want[i])
		}
	}
}

// updateStream applies inserts and deletes of rows drawn from the seed,
// deleting only rows it inserted.
func updateStream(t *testing.T, s *Synopsis, seed uint64, n int) {
	t.Helper()
	rng := stats.NewRNG(seed)
	var live [][2]float64
	for i := 0; i < n; i++ {
		if len(live) > 0 && rng.Intn(4) == 0 {
			j := rng.Intn(len(live))
			row := live[j]
			live = append(live[:j], live[j+1:]...)
			if err := s.Delete([]float64{row[0]}, row[1]); err != nil {
				t.Fatal(err)
			}
			continue
		}
		row := [2]float64{rng.Float64() * 24, rng.Float64() * 50}
		live = append(live, row)
		if err := s.Insert([]float64{row[0]}, row[1]); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRestartTwin holds a restart to the synopsis that never restarted:
// Load(Save(s)) answers every probe bitwise like s, Save(Load(b)) writes
// the bytes b, and a 1D pair that then absorbs the same update stream
// stays identical — answers and bytes.
func TestRestartTwin(t *testing.T) {
	for _, fanout := range []int{2, 4} {
		t.Run(fmt.Sprintf("1d_fanout%d", fanout), func(t *testing.T) {
			d := dataset.GenNYCTaxi(20000, 1, 31)
			s, err := Build(d, Options{Partitions: 64, SampleRate: 0.005, Seed: 31, Fanout: fanout})
			if err != nil {
				t.Fatal(err)
			}
			updateStream(t, s, 32, 2000) // fills the reservoir past its build size
			b := saveBytes(t, s)
			r := loadBytes(t, b)
			sameAnswers(t, "after restart", answers(s, 33), answers(r, 33))
			if again := saveBytes(t, r); !bytes.Equal(again, b) {
				t.Fatal("Save(Load(b)) differs from b")
			}
			updateStream(t, s, 34, 5000)
			updateStream(t, r, 34, 5000)
			sameAnswers(t, "after the same updates", answers(s, 35), answers(r, 35))
			if !bytes.Equal(saveBytes(t, s), saveBytes(t, r)) {
				t.Fatal("twins diverge in bytes after the same updates")
			}
		})
	}
	for name, opts := range map[string]Options{
		"kd_3d":       {Partitions: 64, SampleRate: 0.02, Seed: 36},
		"kd_indexcol": {Partitions: 32, SampleRate: 0.02, Seed: 37, IndexCols: []int{2, 0}},
		"kd_indexdim": {Partitions: 32, SampleRate: 0.02, Seed: 38, IndexDims: 2},
	} {
		t.Run(name, func(t *testing.T) {
			d := dataset.GenNYCTaxi(8000, 3, 39)
			s, err := BuildKD(d, opts)
			if err != nil {
				t.Fatal(err)
			}
			b := saveBytes(t, s)
			r := loadBytes(t, b)
			sameAnswers(t, "after restart", answers(s, 40), answers(r, 40))
			if again := saveBytes(t, r); !bytes.Equal(again, b) {
				t.Fatal("Save(Load(b)) differs from b")
			}
			if r.TakesUpdates() {
				t.Fatal("a restored k-d synopsis takes updates")
			}
		})
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	d := dataset.GenNYCTaxi(10000, 1, 21)
	s := build1D(t, d, 32, 0.02)
	got := loadBytes(t, saveBytes(t, s))
	if got.N() != s.N() || got.NumLeaves() != s.NumLeaves() || got.TotalSamples() != s.TotalSamples() {
		t.Fatalf("shape mismatch: N %d/%d leaves %d/%d samples %d/%d",
			got.N(), s.N(), got.NumLeaves(), s.NumLeaves(), got.TotalSamples(), s.TotalSamples())
	}
	// answers must match to the bit
	rng := stats.NewRNG(22)
	for trial := 0; trial < 80; trial++ {
		a, b := rng.Float64()*24, rng.Float64()*24
		q := dataset.Rect1(math.Min(a, b), math.Max(a, b))
		for _, kind := range []dataset.AggKind{dataset.Sum, dataset.Count, dataset.Avg} {
			r1, err1 := s.Query(kind, q)
			r2, err2 := got.Query(kind, q)
			if w, g := fmt.Sprintf("%+v %v", r1, err1), fmt.Sprintf("%+v %v", r2, err2); w != g {
				t.Fatalf("%v %v after round-trip:\n got %s\nwant %s", kind, q, g, w)
			}
		}
	}
}

func TestSaveLoadSupportsUpdates(t *testing.T) {
	d := dataset.GenUniform(3000, 1, 100, 23)
	s := build1D(t, d, 16, 0.05)
	got := loadBytes(t, saveBytes(t, s))
	before, _ := got.Query(dataset.Count, dataset.Rect1(math.Inf(-1), math.Inf(1)))
	if err := got.Insert([]float64{0.5}, 42); err != nil {
		t.Fatal(err)
	}
	after, _ := got.Query(dataset.Count, dataset.Rect1(math.Inf(-1), math.Inf(1)))
	if after.Estimate != before.Estimate+1 {
		t.Errorf("loaded synopsis insert broken: %v -> %v", before.Estimate, after.Estimate)
	}
}

// TestLoadV2 reads a version-2 synopsis written by the previous format
// (testdata/v2_1d.syn: NYC taxi, 3000 rows, 16 leaves, rate 0.05, seed 5,
// then 40 inserts). It answers like the same synopsis built now, to the
// 1e-6 fixed point v2 stored sample values in, and its next Save writes
// version 3, which restores bitwise.
func TestLoadV2(t *testing.T) {
	raw, err := os.ReadFile("testdata/v2_1d.syn")
	if err != nil {
		t.Fatal(err)
	}
	old := loadBytes(t, raw)
	s, err := Build(dataset.GenNYCTaxi(3000, 1, 5), Options{Partitions: 16, SampleRate: 0.05, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		if err := s.Insert([]float64{float64(i%24) + 0.5}, float64(i)/3); err != nil {
			t.Fatal(err)
		}
	}
	rng := stats.NewRNG(41)
	for trial := 0; trial < 60; trial++ {
		q := randomTaxiRect(rng, 1)
		for _, kind := range []dataset.AggKind{dataset.Sum, dataset.Count, dataset.Avg} {
			w, _ := s.Query(kind, q)
			g, _ := old.Query(kind, q)
			if w.NoMatch != g.NoMatch || math.Abs(w.Estimate-g.Estimate) > 1e-6*math.Max(1, math.Abs(w.Estimate)) {
				t.Fatalf("%v %v from v2: %+v, want %+v", kind, q, g, w)
			}
		}
	}
	b := saveBytes(t, old)
	if v := binenc.NewReader(bytes.NewReader(b)); v.U64() != serMagic || v.U64() != serVersion {
		t.Fatal("a v2 synopsis does not save as the current version")
	}
	r := loadBytes(t, b)
	sameAnswers(t, "v2 re-saved as v3", answers(old, 42), answers(r, 42))
	if !bytes.Equal(saveBytes(t, r), b) {
		t.Fatal("Save(Load(b)) differs from b after a v2 import")
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		{0x01},
		[]byte("not a synopsis at all"),
	}
	for i, c := range cases {
		if _, err := Load(bytes.NewReader(c)); err == nil {
			t.Errorf("case %d: Load accepted garbage", i)
		}
	}
	// right magic, a version that is not (or no longer) read: named
	for _, v := range []uint64{1, 99} {
		var buf bytes.Buffer
		w := binenc.NewWriter(&buf)
		w.U64(serMagic)
		w.U64(v)
		_ = w.Flush()
		_, err := Load(&buf)
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("version %d", v)) {
			t.Errorf("version %d: Load error %v, want one naming the version", v, err)
		}
	}
}

func TestLoadRejectsTruncated(t *testing.T) {
	oneD := build1D(t, dataset.GenUniform(2000, 1, 100, 26), 8, 0.05)
	kd, err := BuildKD(dataset.GenNYCTaxi(2000, 3, 26), Options{Partitions: 8, SampleRate: 0.05, Seed: 26})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []*Synopsis{oneD, kd} {
		full := saveBytes(t, s)
		for cut := 0; cut < len(full); cut++ {
			if _, err := Load(bytes.NewReader(full[:cut])); err == nil {
				t.Fatalf("Load accepted a synopsis truncated at %d of %d bytes", cut, len(full))
			}
		}
	}
}

func TestSerializedSizeReasonable(t *testing.T) {
	d := dataset.GenIntelWireless(20000, 27)
	s := build1D(t, d, 64, 0.01)
	// raw floats are 16 bytes per sample and ~72 per tree node (value
	// range, aggregates, index range), plus the fixed-size sketch section
	// (dominated by the 16 KiB HLL registers); the exact format keeps
	// every node, internal ones included, and must not exceed raw
	raw := s.TotalSamples()*16 + s.oneD.NumNodes()*72 + 64 + len(s.SketchSet().Encode())
	if n := len(saveBytes(t, s)); n > raw {
		t.Errorf("serialized %d bytes, raw equivalent %d", n, raw)
	}
}
