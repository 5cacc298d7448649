// Recorded-answer twins: the PASS read path (tree walk, leaf scan, fold)
// must keep answering bit for bit what the reference path answered when
// testdata/twin_answers.golden was recorded. The file holds one FNV-64a
// digest per (engine, aggregate, block of 250 queries) over every
// core.Result field, so a mismatch names the block that moved.
// Regenerate with `go test ./internal/engine -run TestAnswersMatchRecordedReference -update`
// only for a change that is meant to alter answers.

package engine_test

import (
	"bufio"
	"encoding/binary"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/engine/factory"
	"repro/internal/stats"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/twin_answers.golden from the current read path")

const (
	twinBoxes = 2000
	twinBlock = 250
)

var twinAggs = []dataset.AggKind{dataset.Sum, dataset.Count, dataset.Avg, dataset.Min, dataset.Max}

// twinBoxes3D draws unaligned boxes over the simulated taxi columns
// (hour 0–24, day 0–30, zone 0–262): mostly two-sided ranges, with
// unconstrained and half-open dimensions, boxes narrower than the
// synopsis, and a few degenerate (lo > hi) ranges mixed in.
func twinBoxes3D(seed uint64) []dataset.Rect {
	rng := stats.NewRNG(seed)
	span := []float64{24, 30, 262}
	out := make([]dataset.Rect, twinBoxes)
	for i := range out {
		dims := 3
		switch u := rng.Float64(); {
		case u < 0.05:
			dims = 1
		case u < 0.15:
			dims = 2
		}
		lo, hi := make([]float64, dims), make([]float64, dims)
		for c := range lo {
			a, b := rng.Float64()*span[c], rng.Float64()*span[c]
			lo[c], hi[c] = math.Min(a, b), math.Max(a, b)
			switch u := rng.Float64(); {
			case u < 0.15:
				lo[c], hi[c] = math.Inf(-1), math.Inf(1)
			case u < 0.20:
				lo[c] = math.Inf(-1)
			case u < 0.25:
				hi[c] = math.Inf(1)
			case u < 0.27:
				lo[c], hi[c] = hi[c], lo[c]
			case u < 0.35:
				hi[c] = lo[c] + (hi[c]-lo[c])*0.05 // narrow: NoMatch and tiny strata
			}
		}
		out[i] = dataset.Rect{Lo: lo, Hi: hi}
	}
	return out
}

func twinBoxes1D(seed uint64) []dataset.Rect {
	rng := stats.NewRNG(seed)
	out := make([]dataset.Rect, twinBoxes)
	for i := range out {
		a, b := rng.Float64()*24, rng.Float64()*24
		lo, hi := math.Min(a, b), math.Max(a, b)
		switch u := rng.Float64(); {
		case u < 0.05:
			lo = math.Inf(-1)
		case u < 0.10:
			hi = math.Inf(1)
		case u < 0.12:
			lo, hi = hi, lo
		case u < 0.20:
			hi = lo + (hi-lo)*0.01
		}
		out[i] = dataset.Rect1(lo, hi)
	}
	return out
}

// resultDigest folds every field of the results (and the presence of an
// error) into one digest.
func resultDigest(rs []core.BatchResult) string {
	h := fnv.New64a()
	var buf [8]byte
	f := func(v float64) {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	n := func(v int) {
		binary.LittleEndian.PutUint64(buf[:], uint64(int64(v)))
		h.Write(buf[:])
	}
	b := func(v bool) {
		if v {
			h.Write([]byte{1})
		} else {
			h.Write([]byte{0})
		}
	}
	for _, br := range rs {
		b(br.Err != nil)
		r := br.Result
		f(r.Estimate)
		f(r.CIHalf)
		f(r.HardLo)
		f(r.HardHi)
		b(r.HardValid)
		b(r.Exact)
		b(r.NoMatch)
		f(r.MatchEst)
		b(r.MatchCertain)
		n(r.TuplesRead)
		n(r.SkippedTuples)
		n(r.VisitedNodes)
		n(r.CoveredParts)
		n(r.PartialParts)
		b(r.Degraded)
		n(r.ShardsTotal)
		n(r.ShardsAnswered)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

func TestAnswersMatchRecordedReference(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("digests were recorded on amd64; other targets may fuse multiply-adds and move low bits")
	}
	d3 := dataset.GenNYCTaxi(40000, 3, 21)
	d1 := dataset.GenNYCTaxi(40000, 1, 22)
	boxes3, boxes1 := twinBoxes3D(23), twinBoxes1D(24)
	cases := []struct {
		name  string
		kind  string
		d     *dataset.Dataset
		spec  factory.Spec
		boxes []dataset.Rect
	}{
		{"kd", "pass", d3, factory.Spec{Partitions: 64, SampleSize: 6000, Seed: 7}, boxes3},
		// eight leaves of ~500 samples: every partial leaf spans several scan chunks
		{"kd-bigleaf", "pass", d3, factory.Spec{Partitions: 8, SampleSize: 4000, Seed: 8}, boxes3},
		{"sharded-kd", "sharded:pass:4", d3, factory.Spec{Partitions: 64, SampleSize: 6000, Seed: 9}, boxes3},
		{"1d", "pass", d1, factory.Spec{Partitions: 64, SampleSize: 4000, Seed: 10}, boxes1},
		{"sharded-1d", "sharded:pass:4", d1, factory.Spec{Partitions: 64, SampleSize: 4000, Seed: 11}, boxes1},
	}
	got := map[string]string{}
	var order []string
	for _, tc := range cases {
		e, err := factory.Build(tc.kind, tc.d, tc.spec)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for _, agg := range twinAggs {
			qs := make([]core.BatchQuery, len(tc.boxes))
			for i, q := range tc.boxes {
				qs[i] = core.BatchQuery{Kind: agg, Rect: q}
			}
			// one by one: the batch path is held to the single path by
			// TestConformanceBatchMatchesSequential and TestEntryPointsAgree
			rs := engine.SequentialBatch(e, qs)
			for blk := 0; blk*twinBlock < len(rs); blk++ {
				key := fmt.Sprintf("%s %v %d", tc.name, agg, blk)
				got[key] = resultDigest(rs[blk*twinBlock : (blk+1)*twinBlock])
				order = append(order, key)
			}
		}
	}
	path := filepath.Join("testdata", "twin_answers.golden")
	if *updateGolden {
		var sb strings.Builder
		for _, key := range order {
			fmt.Fprintf(&sb, "%s %s\n", key, got[key])
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	seen := 0
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("malformed golden line %q", line)
		}
		key, want := line[:i], line[i+1:]
		seen++
		if got[key] != want {
			t.Errorf("%s: digest %s, recorded %s", key, got[key], want)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if seen != len(order) {
		t.Errorf("golden file has %d digests, the test computes %d", seen, len(order))
	}
}
