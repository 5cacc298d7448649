package merge

import (
	"bytes"
	"testing"

	"repro/internal/sketch"
)

func buildSketchSet(seed uint64, n int) *sketch.Set {
	s := sketch.NewSet()
	x := seed
	for i := 0; i < n; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		s.Add(float64(x % 997))
	}
	return s
}

// fold merges sets through a fresh (unpooled) accumulator.
func fold(sets []*sketch.Set) *sketch.Set {
	var m SketchMerger
	for _, s := range sets {
		m.Absorb(s)
	}
	return m.Result()
}

// TestStreamingVsSliceSketchMerge pins a recycled pool accumulator to a
// fresh one at the byte level, across orders and nil shards — the
// property that keeps traced and untraced scatter paths
// bitwise-identical.
func TestStreamingVsSliceSketchMerge(t *testing.T) {
	sets := []*sketch.Set{
		buildSketchSet(1, 4000),
		nil,
		buildSketchSet(2, 2500),
		buildSketchSet(3, 7777),
	}
	m := GetSketch()
	absorbed := 0
	for _, s := range sets {
		if m.Absorb(s) {
			absorbed++
		}
	}
	if absorbed != 3 {
		t.Fatalf("absorbed %d sets, want 3 (nil skipped)", absorbed)
	}
	streamed := m.Result().Encode()
	PutSketch(m)

	sliced := fold(sets)
	if !bytes.Equal(streamed, sliced.Encode()) {
		t.Fatal("pooled and fresh sketch accumulators serialize differently")
	}

	// Absorb must not mutate the inputs: re-merging gives the same bytes.
	if !bytes.Equal(fold(sets).Encode(), streamed) {
		t.Fatal("merging mutated a shard's live sketch set")
	}

	// Reversed fold order: intermediate compaction points differ, so only
	// answer-level equivalence is promised — the HLL distinct estimate is
	// multiset-determined and must match exactly, as must the net count.
	rev := fold([]*sketch.Set{sets[3], sets[2], nil, sets[0]})
	a, err1 := sliced.Answer(sketch.Query{Kind: sketch.KindDistinct})
	b, err2 := rev.Answer(sketch.Query{Kind: sketch.KindDistinct})
	if err1 != nil || err2 != nil {
		t.Fatalf("distinct answers errored: %v / %v", err1, err2)
	}
	if a.Value != b.Value || a.N != b.N {
		t.Fatalf("reversed merge order changed the distinct answer: %+v vs %+v", a, b)
	}
}

func TestSketchMergerAllNil(t *testing.T) {
	if got := fold([]*sketch.Set{nil, nil}); got != nil {
		t.Fatalf("all-nil merge returned %v, want nil", got)
	}
	m := GetSketch()
	if m.Result() != nil {
		t.Fatal("fresh accumulator is not empty")
	}
	PutSketch(m)
}
