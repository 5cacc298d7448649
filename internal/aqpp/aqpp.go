// Package aqpp implements the AQP++ comparator (Peng et al., SIGMOD 2018)
// as described in Section 5.1.3 of the PASS paper: aggregate precomputation
// over a partitioning chosen by hill climbing, combined with a *uniform*
// sample that estimates the difference between the query and the covered
// region. The key contrasts with PASS are (1) the heuristic rather than
// DP-optimised partitioning and (2) uniform rather than stratified gap
// estimation.
package aqpp

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/kdtree"
	"repro/internal/partition"
	"repro/internal/ptree"
	"repro/internal/sample"
	"repro/internal/stats"
)

// tree abstracts the aggregate index (1D partition tree or k-d tree).
type tree interface {
	Frontier(q dataset.Rect, zeroVar bool) ptree.Frontier
	Root() ptree.Agg
	NumLeaves() int
	MemoryBytes() int
}

// Engine is an AQP++ instance.
type Engine struct {
	name    string
	tr      tree
	n       int
	lambda  float64
	samples []core.SampleTuple
}

// Options configures construction.
type Options struct {
	// Partitions is the aggregate precomputation budget B.
	Partitions int
	// SampleSize is the uniform sample budget K.
	SampleSize int
	// Lambda is the CI multiplier (default 2.576).
	Lambda float64
	// HillClimbIters bounds the partitioning search (default 40).
	HillClimbIters int
	Seed           uint64
}

// New builds a 1D AQP++ engine: hill-climbing partitioning over the first
// predicate column, a bottom-up aggregate tree, and a uniform sample.
func New(d *dataset.Dataset, opts Options) (*Engine, error) {
	if err := validate(d, &opts); err != nil {
		return nil, err
	}
	sorted := d.Clone()
	sorted.SortByPred(0)
	o := partition.NewSumOracle(sorted.Agg)
	p := partition.HillClimb(sorted.N(), opts.Partitions, o, opts.HillClimbIters)
	tr, err := ptree.Build(sorted, p)
	if err != nil {
		return nil, err
	}
	e := &Engine{name: "AQP++", tr: tr, n: d.N(), lambda: opts.Lambda}
	e.drawUniform(d, opts)
	return e, nil
}

// NewKD builds the multi-dimensional variant used as the KD-US baseline in
// Section 5.4: a balanced k-d tree of precomputed aggregates plus a
// uniform sample.
func NewKD(d *dataset.Dataset, opts Options) (*Engine, error) {
	if err := validate(d, &opts); err != nil {
		return nil, err
	}
	tr, _, err := kdtree.Build(d, kdtree.PolicyUniform, kdtree.Options{MaxLeaves: opts.Partitions, Seed: opts.Seed})
	if err != nil {
		return nil, err
	}
	e := &Engine{name: "KD-US", tr: tr, n: d.N(), lambda: opts.Lambda}
	e.drawUniform(d, opts)
	return e, nil
}

// NewKDWithPoints builds the k-d aggregate tree over indexed — a
// projection of full onto a prefix of its predicate columns — while the
// uniform sample retains full's complete predicate vectors. This is the
// workload-shift configuration of Section 5.4.1: queries may constrain
// columns the aggregates do not index, in which case the aggregates cannot
// certify coverage and the engine degrades to plain uniform sampling.
func NewKDWithPoints(full, indexed *dataset.Dataset, opts Options) (*Engine, error) {
	if err := validate(indexed, &opts); err != nil {
		return nil, err
	}
	tr, _, err := kdtree.Build(indexed, kdtree.PolicyUniform, kdtree.Options{MaxLeaves: opts.Partitions, Seed: opts.Seed})
	if err != nil {
		return nil, err
	}
	e := &Engine{name: "KD-US", tr: tr, n: full.N(), lambda: opts.Lambda}
	e.drawUniform(full, opts)
	return e, nil
}

func validate(d *dataset.Dataset, opts *Options) error {
	if d.N() == 0 {
		return fmt.Errorf("aqpp: empty dataset")
	}
	if opts.Partitions <= 0 {
		return fmt.Errorf("aqpp: Partitions must be positive")
	}
	if opts.SampleSize <= 0 {
		return fmt.Errorf("aqpp: SampleSize must be positive")
	}
	if opts.SampleSize > d.N() {
		opts.SampleSize = d.N()
	}
	if opts.Lambda <= 0 {
		opts.Lambda = stats.Lambda99
	}
	if opts.HillClimbIters <= 0 {
		opts.HillClimbIters = 40
	}
	return nil
}

func (e *Engine) drawUniform(d *dataset.Dataset, opts Options) {
	rng := stats.NewRNG(opts.Seed + 0xaa99)
	idx := sample.UniformIndices(rng, d.N(), opts.SampleSize)
	e.samples = make([]core.SampleTuple, len(idx))
	for i, j := range idx {
		e.samples[i] = core.SampleTuple{Point: d.Point(j), Value: d.Agg[j]}
	}
}

// The AQP++ comparator implements the shared engine interface.
var _ engine.Engine = (*Engine)(nil)

// Name implements the shared engine.Engine interface.
func (e *Engine) Name() string { return e.name }

// QueryBatch implements engine.Engine via the shared sequential adapter.
func (e *Engine) QueryBatch(qs []core.BatchQuery) []core.BatchResult {
	return engine.SequentialBatch(e, qs)
}

// MemoryBytes reports aggregate-tree plus sample storage.
func (e *Engine) MemoryBytes() int {
	bytes := e.tr.MemoryBytes()
	if len(e.samples) > 0 {
		bytes += len(e.samples) * (len(e.samples[0].Point) + 1) * 8
	}
	return bytes
}

// NumLeaves returns the aggregate partition count.
func (e *Engine) NumLeaves() int { return e.tr.NumLeaves() }

func inCover(cover []ptree.CoverEntry, p []float64) bool {
	for _, c := range cover {
		if c.Rect.Contains(p) {
			return true
		}
	}
	return false
}

// Query answers a SUM/COUNT/AVG aggregate: exact aggregates over the
// covered region, a uniform-sample estimate of the residual q \ covered,
// and a CLT confidence interval over the residual estimator.
func (e *Engine) Query(kind dataset.AggKind, q dataset.Rect) (core.Result, error) {
	f := e.tr.Frontier(q, false)
	cover := f.CoverAgg()
	k := len(e.samples)
	r := core.Result{TuplesRead: k, VisitedNodes: f.Visited,
		CoveredParts: len(f.Cover), PartialParts: len(f.Partial)}
	if k == 0 {
		r.NoMatch = true
		return r, nil
	}
	// residual scan: tuples matching q but outside the covered region
	var kGap int
	var sum, sumSq float64
	for _, t := range e.samples {
		if !q.Contains(t.Point) || inCover(f.Cover, t.Point) {
			continue
		}
		kGap++
		sum += t.Value
		sumSq += t.Value * t.Value
	}
	n := float64(e.n)
	kf := float64(k)
	fpc := stats.FPC(e.n, k)
	switch kind {
	case dataset.Sum, dataset.Count:
		base := cover.Sum
		if kind == dataset.Count {
			base = float64(cover.N)
		}
		var phiMean, phiSq float64
		if kind == dataset.Sum {
			phiMean = n * sum / kf
			phiSq = n * n * sumSq / kf
		} else {
			phiMean = n * float64(kGap) / kf
			phiSq = n * n * float64(kGap) / kf
		}
		phiVar := phiSq - phiMean*phiMean
		if phiVar < 0 {
			phiVar = 0
		}
		r.Estimate = base + phiMean
		r.CIHalf = e.lambda * math.Sqrt(phiVar/kf*fpc)
		r.Exact = len(f.Partial) == 0 && kGap == 0
		return r, nil
	case dataset.Avg:
		// two strata: the covered region (exact) and the residual
		// (uniform-estimated)
		nGapHat := n * float64(kGap) / kf
		nq := float64(cover.N) + nGapHat
		if nq == 0 {
			r.NoMatch = true
			return r, nil
		}
		est := 0.0
		variance := 0.0
		if cover.N > 0 {
			est += float64(cover.N) / nq * cover.Avg()
		}
		if kGap > 0 {
			gapEst := sum / float64(kGap)
			ratio := kf / float64(kGap)
			phiSq := ratio * ratio * sumSq / kf
			phiVar := phiSq - gapEst*gapEst
			if phiVar < 0 {
				phiVar = 0
			}
			w := nGapHat / nq
			est += w * gapEst
			variance += w * w * phiVar / kf * fpc
		}
		r.Estimate = est
		r.CIHalf = e.lambda * math.Sqrt(variance)
		r.Exact = len(f.Partial) == 0 && kGap == 0
		return r, nil
	}
	return r, fmt.Errorf("aqpp: unsupported aggregate %v", kind)
}
