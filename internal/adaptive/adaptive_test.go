package adaptive

import (
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/partition"
)

func obsRange(lo, hi float64, exact bool) Obs {
	return Obs{Kind: dataset.Sum, Lo: lo, Hi: hi, Exact: exact}
}

func recordRange(c *Collector, table string, lo, hi float64, exact bool) {
	c.ObserveQuery(table, dataset.Sum, dataset.Rect1(lo, hi),
		core.Result{Exact: exact, MatchEst: 10}, 100, time.Microsecond)
}

func TestCollectorWindowAndStats(t *testing.T) {
	c := NewCollector(4)
	for i := 0; i < 6; i++ {
		recordRange(c, "t", float64(i), float64(i+1), i%2 == 0)
	}
	w := c.Window("t")
	if len(w) != 4 {
		t.Fatalf("window length = %d, want 4 (sliding)", len(w))
	}
	// oldest-first: observations 2..5 survive
	if w[0].Lo != 2 || w[3].Lo != 5 {
		t.Fatalf("window order wrong: first lo=%v last lo=%v", w[0].Lo, w[3].Lo)
	}
	st, ok := c.Stats("t")
	if !ok || st.Window != 4 || st.Total != 6 {
		t.Fatalf("stats = %+v ok=%v, want window 4 total 6", st, ok)
	}
	if st.ExactFrac != 0.5 {
		t.Fatalf("exact frac = %v, want 0.5", st.ExactFrac)
	}
	if st.MeanSelectivity != 0.1 {
		t.Fatalf("mean selectivity = %v, want 0.1", st.MeanSelectivity)
	}
	if _, ok := c.Stats("unknown"); ok {
		t.Fatal("stats for unknown table should report !ok")
	}
	c.Reset("t")
	if st, _ := c.Stats("t"); st.Window != 0 || st.Total != 6 {
		t.Fatalf("after reset: %+v, want empty window, total kept", st)
	}
}

func TestCollectorConcurrent(t *testing.T) {
	c := NewCollector(128)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				recordRange(c, fmt.Sprintf("t%d", g%2), 0, 10, false)
				c.Window("t0")
				c.Stats("t1")
			}
		}(g)
	}
	wg.Wait()
	st, _ := c.Stats("t0")
	if st.Total != 800 {
		t.Fatalf("t0 total = %d, want 800", st.Total)
	}
}

func TestBoundariesExtractRepeatedEndpoints(t *testing.T) {
	var w []Obs
	// hot range [100, 200] repeated 5x, [300, 400] repeated 3x, noise once each
	for i := 0; i < 5; i++ {
		w = append(w, obsRange(100, 200, false))
	}
	for i := 0; i < 3; i++ {
		w = append(w, obsRange(300, 400, false))
	}
	w = append(w, obsRange(1, 2, false), obsRange(7, 8, false))
	// unconstrained endpoints never become boundaries
	w = append(w, obsRange(math.Inf(-1), 50, false), obsRange(math.Inf(-1), 50, false))

	bs := Boundaries(w, 16)
	want := map[partition.Boundary]bool{
		{Value: 100, After: false}: true,
		{Value: 200, After: true}:  true,
		{Value: 300, After: false}: true,
		{Value: 400, After: true}:  true,
		{Value: 50, After: true}:   true,
	}
	if len(bs) != len(want) {
		t.Fatalf("boundaries = %+v, want %d entries", bs, len(want))
	}
	for _, b := range bs {
		if !want[b] {
			t.Fatalf("unexpected boundary %+v", b)
		}
	}
	// most frequent first
	if bs[0].Value != 100 && bs[0].Value != 200 {
		t.Fatalf("first boundary %+v should come from the hottest range", bs[0])
	}
	// cap respected
	if got := Boundaries(w, 2); len(got) != 2 {
		t.Fatalf("capped boundaries = %d, want 2", len(got))
	}
}

func TestDrift(t *testing.T) {
	if d := Drift(nil); d != 0 {
		t.Fatalf("drift of empty window = %v", d)
	}
	var w []Obs
	for i := 0; i < 8; i++ {
		w = append(w, obsRange(10, 20, false)) // repeated, inexact
	}
	for i := 0; i < 2; i++ {
		w = append(w, obsRange(float64(i*100), float64(i*100+1), false)) // one-off
	}
	if d := Drift(w); d != 0.8 {
		t.Fatalf("drift = %v, want 0.8", d)
	}
	// after alignment the repeated ranges are exact: drift collapses
	for i := range w[:8] {
		w[i].Exact = true
	}
	if d := Drift(w); d != 0 {
		t.Fatalf("post-alignment drift = %v, want 0", d)
	}
}

func TestForcedPartitioningAlignsBoundaries(t *testing.T) {
	d := dataset.New("t", 1)
	for i := 0; i < 1000; i++ {
		d.Append([]float64{float64(i)}, float64(i%7))
	}
	bs := []partition.Boundary{
		{Value: 100, After: false},
		{Value: 200, After: true},
		{Value: 2000, After: false}, // outside the data: dropped
	}
	p := partition.Forced(d, 16, bs)
	if err := p.Validate(d.N()); err != nil {
		t.Fatal(err)
	}
	if p.K() > 16 {
		t.Fatalf("k = %d exceeds budget 16", p.K())
	}
	hasCut := func(c int) bool {
		for _, v := range p.Cuts {
			if v == c {
				return true
			}
		}
		return false
	}
	// value 100 (before) → index 100; value 200 (after) → index 201
	if !hasCut(100) || !hasCut(201) {
		t.Fatalf("forced cuts missing: %v", p.Cuts)
	}
}

func TestForcedPartitioningBudgetOverflow(t *testing.T) {
	d := dataset.New("t", 1)
	for i := 0; i < 100; i++ {
		d.Append([]float64{float64(i)}, 1)
	}
	var bs []partition.Boundary
	for i := 1; i < 50; i++ {
		bs = append(bs, partition.Boundary{Value: float64(i * 2)})
	}
	p := partition.Forced(d, 8, bs)
	if err := p.Validate(d.N()); err != nil {
		t.Fatal(err)
	}
	if p.K() > 8 {
		t.Fatalf("k = %d exceeds budget 8", p.K())
	}
}

func TestReoptimizerGating(t *testing.T) {
	col := NewCollector(64)
	var rebuilds []string
	r := NewReoptimizer(col, ReoptConfig{MinWindow: 10, DriftThreshold: 0.5, MaxBoundaries: 8},
		func(table string, bs []partition.Boundary) error {
			rebuilds = append(rebuilds, fmt.Sprintf("%s/%d", table, len(bs)))
			return nil
		})

	// below the window minimum: skipped
	for i := 0; i < 5; i++ {
		recordRange(col, "t", 10, 20, false)
	}
	out, err := r.consider("t", false)
	if err != nil || out.Rebuilt {
		t.Fatalf("tiny window should skip: %+v, %v", out, err)
	}

	// enough repeated inexact traffic: rebuild fires
	for i := 0; i < 20; i++ {
		recordRange(col, "t", 10, 20, false)
	}
	out, err = r.consider("t", false)
	if err != nil || !out.Rebuilt || out.Boundaries != 2 {
		t.Fatalf("expected rebuild with 2 boundaries: %+v, %v", out, err)
	}
	if len(rebuilds) != 1 || rebuilds[0] != "t/2" {
		t.Fatalf("rebuilds = %v", rebuilds)
	}
	if st := r.Status("t"); st.Rebuilds != 1 || st.LastReopt.IsZero() {
		t.Fatalf("status = %+v", st)
	}

	// window reset after rebuild: same workload again reaches the drift
	// gate, but the unchanged boundary signature blocks a no-op rebuild
	for i := 0; i < 20; i++ {
		recordRange(col, "t", 10, 20, false)
	}
	out, err = r.consider("t", false)
	if err != nil || out.Rebuilt {
		t.Fatalf("unchanged boundaries must not rebuild again: %+v, %v", out, err)
	}
	if len(rebuilds) != 1 {
		t.Fatalf("rebuilds = %v, want still 1", rebuilds)
	}

	// a shifted workload rebuilds again
	for i := 0; i < 30; i++ {
		recordRange(col, "t", 500, 600, false)
	}
	if out, err = r.consider("t", false); err != nil || !out.Rebuilt {
		t.Fatalf("shifted workload should rebuild: %+v, %v", out, err)
	}
}

func TestReoptimizerNoSourceAndFailure(t *testing.T) {
	col := NewCollector(64)
	r := NewReoptimizer(col, ReoptConfig{MinWindow: 1, DriftThreshold: 0.01},
		func(string, []partition.Boundary) error { return ErrNoSource })
	for i := 0; i < 4; i++ {
		recordRange(col, "t", 1, 2, false)
	}
	out, err := r.ReoptimizeNow("t")
	if err != nil || out.Rebuilt {
		t.Fatalf("no-source should be a skip, not an error: %+v, %v", out, err)
	}

	boom := NewReoptimizer(col, ReoptConfig{},
		func(string, []partition.Boundary) error { return fmt.Errorf("disk on fire") })
	if _, err := boom.ReoptimizeNow("t"); err == nil {
		t.Fatal("rebuild failure must surface as an error")
	}
}

func TestReoptimizerStartStop(t *testing.T) {
	col := NewCollector(16)
	r := NewReoptimizer(col, ReoptConfig{Interval: time.Millisecond, MinWindow: 1, DriftThreshold: 0.01},
		func(string, []partition.Boundary) error { return nil })
	for i := 0; i < 4; i++ {
		recordRange(col, "t", 1, 2, false)
	}
	r.Start()
	time.Sleep(10 * time.Millisecond)
	r.Stop()
	// Stop without Start must not hang either
	r2 := NewReoptimizer(col, ReoptConfig{Interval: time.Hour}, nil)
	r2.Stop()
}
