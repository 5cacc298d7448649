package merge

import (
	"sync"

	"repro/internal/obs"
	"repro/internal/sketch"
)

// SketchMerger is the streaming accumulator for per-shard sketch sets:
// the gather layer absorbs each shard's set as it is read, so the traced
// and untraced scatter paths fold through identical code and — because
// sketch merges are commutative and serialize symmetrically — produce
// bitwise-identical merged state regardless of which path ran. Absorb
// clones on first touch, so the shards' live sets are never mutated.
//
// A SketchMerger is not safe for concurrent use; the scatter layer
// serializes Absorb calls (sketch scatters fold in shard-index order to
// keep merged KLL/Misra-Gries state deterministic run to run).
type SketchMerger struct {
	acc *sketch.Set
}

// Reset discards all absorbed state, re-arming a pooled accumulator.
func (m *SketchMerger) Reset() { m.acc = nil }

// Absorb folds one shard's sketch set into the accumulator. Nil sets
// (engines that maintain no sketches) contribute nothing and are
// reported back, so the caller can surface the gap instead of silently
// undercounting.
func (m *SketchMerger) Absorb(s *sketch.Set) bool {
	if s == nil {
		return false
	}
	if m.acc == nil {
		m.acc = s.Clone()
		return true
	}
	m.acc.Merge(s)
	return true
}

// Result returns the merged set (nil when nothing was absorbed). The
// returned set is owned by the accumulator: take the answer before Put.
func (m *SketchMerger) Result() *sketch.Set { return m.acc }

// sketchPool recycles sketch accumulators on the scatter-gather path,
// with the same registry-backed accounting as the aggregate Merger pool.
var (
	sketchPool = sync.Pool{New: func() any {
		sketchPoolAllocs.Inc()
		return new(SketchMerger)
	}}
	sketchPoolGets   = obs.Default().NewCounter("pass_merge_sketch_pool_acquires_total", "sketch merge accumulator pool Get calls")
	sketchPoolAllocs = obs.Default().NewCounter("pass_merge_sketch_pool_allocs_total", "sketch merge accumulators actually allocated")
)

// GetSketch returns a pooled, reset sketch accumulator. Return it with
// PutSketch once the merged result has been consumed.
func GetSketch() *SketchMerger {
	sketchPoolGets.Inc()
	m := sketchPool.Get().(*SketchMerger)
	m.Reset()
	return m
}

// PutSketch recycles an accumulator obtained from GetSketch. Reset
// detaches the accumulated set, so a Result taken before Put stays valid
// — but the accumulator itself must not be used again.
func PutSketch(m *SketchMerger) {
	if m != nil {
		m.Reset()
		sketchPool.Put(m)
	}
}

// SketchPoolStats reports the sketch accumulator pool's lifetime
// effectiveness, mirroring PoolStats.
func SketchPoolStats() (acquires, allocated int64) {
	return sketchPoolGets.Value(), sketchPoolAllocs.Value()
}
