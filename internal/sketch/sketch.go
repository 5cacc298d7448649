// Package sketch implements the mergeable summary family behind the
// QUANTILE, COUNT DISTINCT, and TOPK aggregates: a KLL quantile sketch,
// a dense HyperLogLog, and a Misra-Gries heavy-hitter summary. All three
// share the properties the scatter-gather layer needs: Merge is
// associative and commutative, lossless with respect to each sketch's
// stated error guarantee, and deterministic — merging the same inputs in
// any order serializes to identical bytes (HLL states are fully
// multiset-determined; KLL and Misra-Gries are order-sensitive in state
// but symmetric under merge, so the property tests assert answer-level
// equivalence within the stated bound plus same-stream byte identity).
//
// Every sketch tracks its own error bound as it goes: KLL adds the
// compacted level's weight per compaction, Misra-Gries adds one per
// decrement round and the subtracted offset per over-capacity merge, and
// deletes the summaries cannot absorb natively widen the bound through an
// unabsorbed-delete counter. The stated bound in a Result is therefore a
// hard guarantee for KLL/Misra-Gries and a 3-sigma one for HLL.
package sketch

import (
	"errors"
	"fmt"
	"math"
)

// Kind selects which sketch of a Set answers a query.
type Kind uint8

const (
	// KindQuantile answers QUANTILE(col, q) from the KLL sketch.
	KindQuantile Kind = iota + 1
	// KindDistinct answers COUNT(DISTINCT col) from the HLL sketch.
	KindDistinct
	// KindTopK answers TOPK(col, k) from the Misra-Gries sketch.
	KindTopK
)

// String names the kind the way the SQL surface spells it.
func (k Kind) String() string {
	switch k {
	case KindQuantile:
		return "QUANTILE"
	case KindDistinct:
		return "COUNT DISTINCT"
	case KindTopK:
		return "TOPK"
	}
	return fmt.Sprintf("sketch.Kind(%d)", uint8(k))
}

// Query asks one sketch question: the kind plus its argument (the
// quantile fraction q for KindQuantile, the entry count k for KindTopK;
// ignored for KindDistinct).
type Query struct {
	Kind Kind
	Arg  float64
}

// TopKEntry is one heavy hitter: the value, its estimated count, and the
// symmetric count error bound (|estimate - true| <= ErrBound).
type TopKEntry struct {
	Value    float64
	Count    float64
	ErrBound float64
}

// Result is a sketch answer. Value carries the scalar answer (the
// quantile value or the distinct-count estimate), [Lo, Hi] the
// guarantee interval, and Bound the stated error bound in the kind's
// native units: rank positions for quantiles, a count interval width for
// distinct, count units for top-k entries. Entries is populated for
// KindTopK only. N is the net row count the sketch has absorbed.
type Result struct {
	Kind    Kind
	Value   float64
	Lo, Hi  float64
	Bound   float64
	Entries []TopKEntry
	N       int64
}

// ErrCorrupt is returned (wrapped) whenever serialized sketch state fails
// to decode: truncated tails, flipped bits, impossible invariants. A
// decoder never panics on hostile input; it returns this.
var ErrCorrupt = errors.New("sketch: corrupt serialized state")

// ErrUnavailable is returned when a table's engine carries no sketch
// state: a comparator engine, or a sharded engine over such shards. Every
// PASS synopsis, built or loaded, carries its sketches.
var ErrUnavailable = errors.New("sketch: sketches unavailable (the table's engine maintains none)")

func corrupt(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
}

// splitmix64 is the finalizer-quality mixer shared with internal/audit's
// sampling hash; a fixed-seed hash keeps HLL states reproducible across
// processes so warm starts and sharded twins stay byte-comparable.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// canonBits canonicalizes a float64 for hashing and counting: -0 folds
// into +0 and every NaN payload folds into one canonical NaN, so values
// that compare equal (or are all unordered) count as one distinct value
// no matter which bit pattern produced them.
func canonBits(v float64) uint64 {
	if v == 0 {
		return 0 // +0 and -0 share one identity
	}
	if math.IsNaN(v) {
		return math.Float64bits(math.NaN())
	}
	return math.Float64bits(v)
}

// Set bundles the three sketches maintained over a synopsis's aggregate
// column. One Set rides on each Synopsis (per-shard granularity in
// sharded tables) and merges shard-wise in the scatter-gather layer.
// A Set is not safe for concurrent mutation; callers hold the same lock
// that guards the owning engine's update path.
type Set struct {
	hll *HLL
	kll *KLL
	mg  *MisraGries
}

// NewSet returns an empty sketch set.
func NewSet() *Set {
	return &Set{hll: NewHLL(), kll: NewKLL(), mg: NewMisraGries()}
}

// Add absorbs one aggregate-column value into all three sketches.
func (s *Set) Add(v float64) {
	b := canonBits(v)
	s.hll.Add(b)
	s.kll.Add(v)
	s.mg.Add(b)
}

// Delete retracts one value. None of the three summaries supports exact
// deletion in sublinear space, so each widens its stated bound instead:
// Misra-Gries decrements exactly when the value holds a counter, and
// every other case lands on an unabsorbed-delete counter that the answer
// intervals absorb.
func (s *Set) Delete(v float64) {
	b := canonBits(v)
	s.hll.Delete()
	s.kll.Delete()
	s.mg.Delete(b)
}

// Merge folds o into s. Merge is associative and commutative at the
// answer level, and symmetric merges serialize identically (see the
// package comment for the exact per-sketch contract). o is not modified.
func (s *Set) Merge(o *Set) {
	if o == nil {
		return
	}
	s.hll.Merge(o.hll)
	s.kll.Merge(o.kll)
	s.mg.Merge(o.mg)
}

// Clone deep-copies the set, so accumulators can absorb a live shard's
// state without mutating it.
func (s *Set) Clone() *Set {
	if s == nil {
		return nil
	}
	return &Set{hll: s.hll.Clone(), kll: s.kll.Clone(), mg: s.mg.Clone()}
}

// N is the net row count (inserts minus deletes) the set has absorbed.
func (s *Set) N() int64 { return s.kll.Net() }

// MemoryBytes approximates the resident size of the set.
func (s *Set) MemoryBytes() int64 {
	if s == nil {
		return 0
	}
	return s.hll.memoryBytes() + s.kll.memoryBytes() + s.mg.memoryBytes()
}

// Answer evaluates one sketch query against the set.
func (s *Set) Answer(q Query) (Result, error) {
	if s == nil {
		return Result{}, ErrUnavailable
	}
	switch q.Kind {
	case KindQuantile:
		if !(q.Arg > 0 && q.Arg < 1) {
			return Result{}, fmt.Errorf("sketch: quantile fraction %v outside (0, 1)", q.Arg)
		}
		return s.kll.Quantile(q.Arg), nil
	case KindDistinct:
		r := s.hll.Distinct()
		r.N = s.N()
		return r, nil
	case KindTopK:
		k := int(q.Arg)
		if k < 1 || float64(k) != q.Arg {
			return Result{}, fmt.Errorf("sketch: top-k count %v is not a positive integer", q.Arg)
		}
		r := s.mg.TopK(k)
		r.N = s.N()
		return r, nil
	}
	return Result{}, fmt.Errorf("sketch: unknown query kind %d", uint8(q.Kind))
}
