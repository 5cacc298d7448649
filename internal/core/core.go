// Package core implements the PASS synopsis engine: it assembles the
// partition tree (1D or multi-dimensional) with the stratified leaf samples
// into a queryable structure, and answers SUM/COUNT/AVG/MIN/MAX queries
// with predicates, returning CLT confidence intervals and deterministic
// hard bounds (Sections 3 and 4 of the paper).
package core

import (
	"fmt"
	"time"

	"repro/internal/dataset"
	"repro/internal/kdtree"
	"repro/internal/parallel"
	"repro/internal/partition"
	"repro/internal/ptree"
	"repro/internal/sample"
	"repro/internal/sketch"
	"repro/internal/stats"
)

// Partitioner selects the 1D leaf-partitioning algorithm.
type Partitioner int

const (
	// PartitionADP is the sampling + discretization approximate dynamic
	// program of Section 4.3.1 — the paper's default.
	PartitionADP Partitioner = iota
	// PartitionEqualDepth is equal-size partitioning (the EQ baseline;
	// optimal for COUNT by Lemma A.1).
	PartitionEqualDepth
	// PartitionHillClimb is the AQP++-style hill-climbing heuristic.
	PartitionHillClimb
	// PartitionVOptimal minimises the total within-bucket squared error
	// (the V-Optimal histogram objective of Jagadish et al., contrasted
	// with PASS's min-max objective in Section 2.4).
	PartitionVOptimal
)

func (p Partitioner) String() string {
	switch p {
	case PartitionADP:
		return "ADP"
	case PartitionEqualDepth:
		return "EQ"
	case PartitionHillClimb:
		return "HillClimb"
	case PartitionVOptimal:
		return "VOptimal"
	}
	return fmt.Sprintf("Partitioner(%d)", int(p))
}

// Options configures synopsis construction. The zero value plus Partitions
// and one of SampleRate/SampleSize is a working configuration.
type Options struct {
	// Partitions is the leaf budget k (derived from the construction time
	// limit τ_c in the paper's cost model).
	Partitions int
	// SampleRate is the stratified-sample size as a fraction of N
	// (derived from the query time limit τ_q). Ignored when SampleSize is
	// set.
	SampleRate float64
	// SampleSize is the absolute total sample budget K; overrides
	// SampleRate when positive.
	SampleSize int
	// Kind is the query type the partitioning is optimised for.
	Kind dataset.AggKind
	// Partitioner selects the 1D partitioning algorithm (default ADP).
	Partitioner Partitioner
	// OptSamples is m, the optimisation sample size for ADP (default
	// max(20·k, 1000), capped at N).
	OptSamples int
	// Delta is the minimum meaningful query selectivity δ (default 0.01).
	Delta float64
	// Lambda is the CI multiplier (default 2.576, a 99% interval).
	Lambda float64
	// Seed drives all randomness.
	Seed uint64
	// ZeroVarianceRule enables the AVG-query shortcut of Section 3.4
	// (default on; set DisableZeroVariance to turn it off).
	DisableZeroVariance bool
	// Proportional allocates the sample budget proportionally to leaf
	// sizes instead of equally.
	Proportional bool
	// KD configures multi-dimensional construction (BuildKD only).
	KD kdtree.Options
	// KDPolicy selects KD-PASS (default) or KD-US.
	KDPolicy kdtree.Policy
	// IndexDims restricts the k-d tree to the first IndexDims predicate
	// columns while samples retain the full predicate vector — the
	// workload-shift scenario of Section 5.4.1 (0 = index all columns).
	IndexDims int
	// IndexCols restricts the k-d tree to an arbitrary subset of predicate
	// columns, in the given order (generalises IndexDims; used by the
	// multi-template sets of Section 4.5). Overrides IndexDims when set.
	IndexCols []int
	// Fanout is the 1D partition-tree fanout (default 2). Per Section 4.1
	// it affects only construction time and query latency, never accuracy.
	Fanout int
	// ForceBoundaries, when non-empty, overrides the Partitioner: the 1D
	// partitioning places a leaf boundary at every listed predicate value
	// and spends the rest of the Partitions budget on equal-depth
	// refinement between them (partition.Forced). It is the
	// workload-driven rebuild path: forcing boundaries at observed query
	// endpoints turns repeated query ranges into exactly-covered partition
	// unions, answered with zero sampling error. Ignored by BuildKD.
	ForceBoundaries []partition.Boundary
}

func (o *Options) fill(n int) error {
	if o.Partitions <= 0 {
		return fmt.Errorf("core: Options.Partitions must be positive")
	}
	if o.SampleSize <= 0 {
		if o.SampleRate <= 0 || o.SampleRate > 1 {
			return fmt.Errorf("core: need SampleSize or SampleRate in (0, 1]")
		}
		o.SampleSize = int(o.SampleRate * float64(n))
	}
	if o.SampleSize < o.Partitions {
		o.SampleSize = o.Partitions // at least one sample per stratum
	}
	if o.SampleSize > n {
		o.SampleSize = n
	}
	if o.Delta <= 0 {
		o.Delta = 0.01
	}
	if o.Lambda <= 0 {
		o.Lambda = stats.Lambda99
	}
	if o.OptSamples <= 0 {
		o.OptSamples = 20 * o.Partitions
		if o.OptSamples < 1000 {
			o.OptSamples = 1000
		}
	}
	if o.OptSamples > n {
		o.OptSamples = n
	}
	return nil
}

// SampleTuple is one stratified-sample entry: the tuple's predicate point
// and aggregate value.
type SampleTuple struct {
	Point []float64
	Value float64
}

// tree abstracts over the 1D partition tree and the k-d tree.
type tree interface {
	NumLeaves() int
	LeafAgg(leaf int) ptree.Agg
	Root() ptree.Agg
	// Walk leaves the MCF's node ids in f; they index Aggs and LeafIDs.
	Walk(q dataset.Rect, zeroVarAsCovered bool, f *ptree.FrontierIDs)
	Aggs() []ptree.Agg
	LeafIDs() []int32
	MemoryBytes() int
}

// Synopsis is a built PASS data structure.
type Synopsis struct {
	opts Options
	tr   tree
	oneD *ptree.Tree  // non-nil for 1D synopses (enables updates)
	kd   *kdtree.Tree // non-nil for k-d synopses
	// idxCols maps tree dimensions to dataset predicate columns when the
	// tree indexes a column subset; nil when the tree indexes a prefix or
	// all columns.
	idxCols []int
	// indexed[c] reports whether idxCols lists predicate column c, so a
	// query tests it per constrained column without building a set; nil
	// exactly when idxCols is.
	indexed []bool
	// store holds the stratified leaf samples in flat arrays with per-leaf
	// prefix aggregates (see leafStore). On a 1D synopsis it is also the
	// reservoir that Insert maintains with Algorithm R: at most sampleCap
	// rows, a uniform sample of the n rows seen, with sampleRNG drawing
	// the accept/evict decisions.
	store     *leafStore
	sampleCap int
	sampleRNG *stats.RNG
	n         int
	dims      int
	// sk holds the mergeable sketches (KLL/HLL/Misra-Gries) over the
	// aggregate column, maintained through Insert/Delete and persisted
	// with the synopsis; never nil.
	sk *sketch.Set
	// BuildTime records wall-clock construction cost.
	BuildTime time.Duration
}

// Build constructs a 1D PASS synopsis over d. The dataset is not retained;
// it is cloned and sorted by the predicate column internally.
func Build(d *dataset.Dataset, opts Options) (*Synopsis, error) {
	start := time.Now()
	if d.N() == 0 {
		return nil, fmt.Errorf("core: empty dataset")
	}
	if d.Dims() != 1 {
		return nil, fmt.Errorf("core: Build requires a 1D dataset, got %d dims (use BuildKD)", d.Dims())
	}
	if err := opts.fill(d.N()); err != nil {
		return nil, err
	}
	sorted := d.Clone()
	sorted.SortByPred(0)
	rng := stats.NewRNG(opts.Seed + 0x9e37)

	var p partition.Partitioning
	if len(opts.ForceBoundaries) > 0 {
		p = partition.Forced(sorted, opts.Partitions, opts.ForceBoundaries)
		return buildFromPartitioning(sorted, opts, p, start)
	}
	switch opts.Partitioner {
	case PartitionEqualDepth:
		p = partition.EqualDepth(sorted.N(), opts.Partitions)
	case PartitionHillClimb:
		o := partition.NewSumOracle(sorted.Agg)
		p = partition.HillClimb(sorted.N(), opts.Partitions, o, 40)
	case PartitionVOptimal:
		p = partition.VOptimalSampled(sorted, opts.Partitions, opts.OptSamples, rng)
	default:
		res := partition.ADP(sorted, opts.Partitions, opts.OptSamples, opts.Kind, opts.Delta, rng)
		p = res.Partitioning
	}
	return buildFromPartitioning(sorted, opts, p, start)
}

// buildFromPartitioning finishes 1D construction from a chosen leaf
// partitioning: partition tree, stratified samples, update reservoir.
func buildFromPartitioning(sorted *dataset.Dataset, opts Options, p partition.Partitioning, start time.Time) (*Synopsis, error) {
	fanout := opts.Fanout
	if fanout <= 0 {
		fanout = 2
	}
	tr, err := ptree.BuildFanout(sorted, p, fanout)
	if err != nil {
		return nil, err
	}
	s := &Synopsis{
		opts: opts, tr: tr, oneD: tr,
		n: sorted.N(), dims: 1,
		sk: sketchFromAgg(sorted.Agg),
	}
	s.drawSamples1D(sorted, tr)
	s.startReservoir()
	s.BuildTime = time.Since(start)
	return s, nil
}

// BuildKD constructs a multi-dimensional PASS synopsis over d using a k-d
// partition tree (Section 4.4). Dynamic updates are not supported on k-d
// synopses.
func BuildKD(d *dataset.Dataset, opts Options) (*Synopsis, error) {
	start := time.Now()
	if d.N() == 0 {
		return nil, fmt.Errorf("core: empty dataset")
	}
	if err := opts.fill(d.N()); err != nil {
		return nil, err
	}
	kdOpts := opts.KD
	if kdOpts.MaxLeaves <= 0 {
		kdOpts.MaxLeaves = opts.Partitions
	}
	if kdOpts.Kind == 0 {
		kdOpts.Kind = opts.Kind
	}
	if kdOpts.Seed == 0 {
		kdOpts.Seed = opts.Seed
	}
	// the tree may index only a subset of the predicate columns
	// (workload shift); samples always retain the full predicate vector
	indexed := d
	var idxCols []int
	var inIdxCols []bool
	switch {
	case len(opts.IndexCols) > 0:
		cols := opts.IndexCols
		proj := dataset.New(d.Name, len(cols))
		for i, c := range cols {
			if c < 0 || c >= d.Dims() {
				return nil, fmt.Errorf("core: IndexCols entry %d out of range (dataset has %d columns)", c, d.Dims())
			}
			proj.Pred[i] = d.Pred[c]
		}
		proj.Agg = d.Agg
		indexed = proj
		// a pure prefix needs no remapping at query time
		prefix := true
		for i, c := range cols {
			if c != i {
				prefix = false
				break
			}
		}
		if !prefix || len(cols) < d.Dims() {
			idxCols = append([]int(nil), cols...)
			inIdxCols = make([]bool, d.Dims())
			for _, c := range cols {
				inIdxCols[c] = true
			}
		}
	case opts.IndexDims > 0 && opts.IndexDims < d.Dims():
		proj := dataset.New(d.Name, opts.IndexDims)
		proj.Pred = d.Pred[:opts.IndexDims]
		proj.Agg = d.Agg
		indexed = proj
	}
	tr, leafItems, err := kdtree.Build(indexed, opts.KDPolicy, kdOpts)
	if err != nil {
		return nil, err
	}
	s := &Synopsis{
		opts: opts, tr: tr, kd: tr, idxCols: idxCols, indexed: inIdxCols,
		n: d.N(), dims: d.Dims(),
		sk: sketchFromAgg(d.Agg),
	}
	s.drawSamplesKD(d, tr, leafItems)
	s.BuildTime = time.Since(start)
	return s, nil
}

// leafRNG derives the deterministic per-leaf generator used by the
// parallel sampling workers: every leaf draws from its own stream, so the
// samples are identical regardless of worker scheduling.
func (s *Synopsis) leafRNG(leaf int) *stats.RNG {
	return stats.NewRNG(s.opts.Seed + 0x9e37 + uint64(leaf+1)*0x9e3779b97f4a7c15)
}

func (s *Synopsis) drawSamples1D(sorted *dataset.Dataset, tr *ptree.Tree) {
	b := tr.NumLeaves()
	sizes := make([]int, b)
	los := make([]int, b)
	for i := 0; i < b; i++ {
		lo, hi := tr.LeafIndexRange(i)
		los[i] = lo
		sizes[i] = hi - lo
	}
	alloc := sample.Allocate(s.opts.SampleSize, sizes, s.opts.Proportional)
	st := newLeafStore(1, alloc)
	pred, agg := sorted.Pred[0], sorted.Agg
	parallel.For(b, func(i int) {
		rng := s.leafRNG(i)
		idx := sample.UniformIndices(rng, sizes[i], alloc[i])
		base := st.offsets[i]
		for j, off := range idx {
			gi := los[i] + off
			st.coords[base+j] = pred[gi]
			st.values[base+j] = agg[gi]
		}
		// ascending indices over data sorted by the predicate column, so
		// the leaf is already ordered along dimension 0
		st.finishLeaf(i, 0)
	})
	s.store = st
}

// drawSamplesKD fills the store from the k-d leaves' tuple lists, which
// kdtree.Build returns beside the tree and nothing keeps afterwards.
func (s *Synopsis) drawSamplesKD(d *dataset.Dataset, tr *kdtree.Tree, leafItems [][]int) {
	b := tr.NumLeaves()
	dims := d.Dims()
	sizes := make([]int, b)
	for i, items := range leafItems {
		sizes[i] = len(items)
	}
	alloc := sample.Allocate(s.opts.SampleSize, sizes, s.opts.Proportional)
	st := newLeafStore(dims, alloc)
	parallel.For(b, func(i int) {
		rng := s.leafRNG(i)
		items := leafItems[i]
		idx := sample.UniformIndices(rng, len(items), alloc[i])
		base := st.offsets[i]
		for j, off := range idx {
			gi := items[off]
			for c := 0; c < dims; c++ {
				st.coords[(base+j)*dims+c] = d.Pred[c][gi]
			}
			st.values[base+j] = d.Agg[gi]
		}
		st.finishLeaf(i, s.kdSortDim(tr, i))
	})
	s.store = st
}

// kdSortDim picks the sample dimension a k-d leaf's store segment is
// sorted along: the widest-spread indexed dimension of the leaf's
// rectangle — the axis the k-d splits discriminate on — mapped back to
// sample coordinates when the tree indexes a column subset.
func (s *Synopsis) kdSortDim(tr *kdtree.Tree, leaf int) int {
	r := tr.LeafRect(leaf)
	best, bestW := 0, -1.0
	for c := 0; c < len(r.Lo); c++ {
		if w := r.Hi[c] - r.Lo[c]; w > bestW {
			best, bestW = c, w
		}
	}
	if s.idxCols != nil {
		return s.idxCols[best]
	}
	return best
}

// NumLeaves returns the number of leaf strata.
func (s *Synopsis) NumLeaves() int { return s.tr.NumLeaves() }

// Name identifies the engine in benchmark tables and catalog listings;
// with Query, QueryBatch and MemoryBytes it makes a built Synopsis
// satisfy the shared engine interface (internal/engine) directly, and
// Insert/Delete and Save provide the Updatable and Serializable
// capabilities.
func (s *Synopsis) Name() string { return "PASS" }

// TotalSamples returns the total stored sample count K.
func (s *Synopsis) TotalSamples() int { return s.store.totalLen() }

// N returns the dataset size the synopsis was built over.
func (s *Synopsis) N() int { return s.n }

// Dims returns the predicate dimensionality.
func (s *Synopsis) Dims() int { return s.dims }

// LeafSamples returns the stratified sample of one leaf (a copy; the
// synopsis stores samples in flat arrays, see leafStore).
func (s *Synopsis) LeafSamples(leaf int) []SampleTuple { return s.store.leafTuples(leaf) }

// MemoryBytes is the paper's synopsis size: tree aggregates plus samples
// (8 bytes per float64: point coordinates + value) plus the mergeable
// sketches. The per-leaf prefix acceleration arrays are derivable from the
// samples and excluded. The synopsis keeps no build state, so its live
// heap stays within a small factor of this figure (TestSynopsisFootprint
// in internal/engine holds it to 2× plus 1 MiB).
func (s *Synopsis) MemoryBytes() int {
	return s.tr.MemoryBytes() + s.store.totalLen()*(s.dims+1)*8 + int(s.sk.MemoryBytes())
}

// sketchFromAgg builds the synopsis's sketch set from the aggregate
// column. Feeding happens in column order, which is deterministic for a
// given dataset, so rebuilds from the same data serialize identically.
func sketchFromAgg(agg []float64) *sketch.Set {
	sk := sketch.NewSet()
	for _, v := range agg {
		sk.Add(v)
	}
	return sk
}

// SketchQuery answers one mergeable-sketch aggregate (QUANTILE, COUNT
// DISTINCT, TOPK) from the synopsis's sketch set; with SketchSet it
// provides the engine.Sketcher capability.
func (s *Synopsis) SketchQuery(q sketch.Query) (sketch.Result, error) {
	return s.sk.Answer(q)
}

// SketchSet exposes the synopsis's sketch state for merging by composite
// engines. Callers must treat it as read-only.
func (s *Synopsis) SketchSet() *sketch.Set { return s.sk }

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
