package sample

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/stats"
)

func TestUniformIndicesDistinctSorted(t *testing.T) {
	rng := stats.NewRNG(1)
	for trial := 0; trial < 50; trial++ {
		idx := UniformIndices(rng, 100, 20)
		if len(idx) != 20 {
			t.Fatalf("got %d indices", len(idx))
		}
		for i := 1; i < len(idx); i++ {
			if idx[i] <= idx[i-1] {
				t.Fatalf("not strictly increasing: %v", idx)
			}
		}
		for _, v := range idx {
			if v < 0 || v >= 100 {
				t.Fatalf("index out of range: %d", v)
			}
		}
	}
}

func TestUniformIndicesFullDraw(t *testing.T) {
	rng := stats.NewRNG(2)
	idx := UniformIndices(rng, 5, 10)
	if len(idx) != 5 {
		t.Fatalf("k >= n should return all: %v", idx)
	}
	for i, v := range idx {
		if v != i {
			t.Fatalf("full draw should be identity: %v", idx)
		}
	}
}

// Property: every element has (approximately) equal inclusion probability.
func TestUniformIndicesUnbiased(t *testing.T) {
	rng := stats.NewRNG(3)
	const n, k, trials = 50, 10, 20000
	counts := make([]int, n)
	for trial := 0; trial < trials; trial++ {
		for _, i := range UniformIndices(rng, n, k) {
			counts[i]++
		}
	}
	expect := float64(trials*k) / n
	for i, c := range counts {
		if math.Abs(float64(c)-expect) > 6*math.Sqrt(expect) {
			t.Errorf("index %d drawn %d times, expected ~%.0f", i, c, expect)
		}
	}
}

func TestAllocateEqual(t *testing.T) {
	sizes := []int{100, 100, 100, 100}
	out := Allocate(40, sizes, false)
	for i, v := range out {
		if v != 10 {
			t.Errorf("equal allocation[%d] = %d, want 10", i, v)
		}
	}
}

func TestAllocateCapsAtStratumSize(t *testing.T) {
	sizes := []int{3, 100}
	out := Allocate(50, sizes, false)
	if out[0] > 3 {
		t.Errorf("allocation exceeds stratum size: %v", out)
	}
	if out[0]+out[1] != 50 {
		t.Errorf("total = %d, want 50 (remainder should spill over)", out[0]+out[1])
	}
}

func TestAllocateProportional(t *testing.T) {
	sizes := []int{100, 300}
	out := Allocate(40, sizes, true)
	if out[0]+out[1] != 40 {
		t.Errorf("total = %d", out[0]+out[1])
	}
	if out[1] <= out[0] {
		t.Errorf("proportional allocation should favour the larger stratum: %v", out)
	}
}

func TestAllocateRepresentation(t *testing.T) {
	sizes := []int{1000, 1, 1000}
	out := Allocate(10, sizes, true)
	if out[1] == 0 {
		t.Errorf("non-empty stratum received zero samples: %v", out)
	}
}

func TestAllocateDegenerate(t *testing.T) {
	if out := Allocate(10, nil, false); len(out) != 0 {
		t.Errorf("nil sizes: %v", out)
	}
	out := Allocate(0, []int{5, 5}, true)
	if out[0] != 0 || out[1] != 0 {
		t.Errorf("zero budget: %v", out)
	}
	out = Allocate(100, []int{2, 3}, false)
	if out[0]+out[1] != 5 {
		t.Errorf("budget larger than population: %v", out)
	}
}

// Property: allocation never exceeds stratum sizes and never exceeds budget.
func TestAllocateProperty(t *testing.T) {
	f := func(rawSizes []uint8, budget uint16, proportional bool) bool {
		sizes := make([]int, len(rawSizes))
		for i, v := range rawSizes {
			sizes[i] = int(v)
		}
		out := Allocate(int(budget)%500, sizes, proportional)
		total := 0
		for i, v := range out {
			if v < 0 || v > sizes[i] {
				return false
			}
			total += v
		}
		return total <= int(budget)%500 || total == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
