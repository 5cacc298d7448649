package core

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/dataset"
	"repro/internal/ptree"
	"repro/internal/stats"
)

// Result is the answer to one approximate aggregate query.
type Result struct {
	// Estimate is the point estimate of the aggregate.
	Estimate float64
	// CIHalf is the half-width of the λ-confidence interval around
	// Estimate (0 when the query was answered exactly).
	CIHalf float64
	// HardLo/HardHi are deterministic bounds guaranteed to contain the
	// exact answer when HardValid is true (Section 2.3).
	HardLo, HardHi float64
	HardValid      bool
	// Exact reports that the query was answered with zero sampling error
	// (predicate aligned with the partitioning).
	Exact bool
	// NoMatch reports that the synopsis believes no tuple satisfies the
	// predicate (AVG/MIN/MAX undefined).
	NoMatch bool
	// MatchEst is the estimated number of tuples satisfying the predicate
	// (the n̂_q of Section 3.3): covered-partition cardinality plus the
	// scaled matching-sample counts of partial leaves. Scatter-gather
	// execution uses it as the weight when combining per-shard AVG
	// partials.
	MatchEst float64
	// MatchCertain reports that at least one matching tuple was directly
	// observed — a non-empty covered partition or a matching sample — so
	// the estimate rests on actual evidence rather than a partial-leaf
	// envelope. Scatter-gather merging needs the distinction to compose
	// MIN/MAX hard bounds soundly: only a shard that certainly contains a
	// match may tighten the global extremum's bound.
	MatchCertain bool

	// Diagnostics
	// TuplesRead counts sample tuples scanned: the effective IO of the
	// query (the ESS numerator).
	TuplesRead int
	// SkippedTuples counts dataset tuples whose partitions were either
	// skipped as irrelevant or answered from precomputed aggregates.
	SkippedTuples int
	// VisitedNodes counts partition-tree nodes touched by the MCF.
	VisitedNodes int
	// CoveredParts and PartialParts count frontier entries.
	CoveredParts, PartialParts int

	// Degradation accounting (scatter-gather execution). A single-node
	// synopsis always answers completely and leaves these zero.
	//
	// Degraded marks a partial answer: one or more shards errored or
	// missed the query deadline and were dropped from the merge. The
	// estimate remains an unbiased answer over the shards that responded,
	// with the CI widened by the merge layer's compensation rules.
	Degraded bool
	// ShardsTotal and ShardsAnswered count the scatter fan-out and how
	// many shards contributed to the merged answer (equal when not
	// degraded; both zero for non-scatter execution).
	ShardsTotal, ShardsAnswered int
}

// SkipRate returns the fraction of dataset tuples not needed to answer the
// query (the paper's skip-rate metric).
func (r Result) SkipRate(n int) float64 {
	if n == 0 {
		return 0
	}
	return float64(r.SkippedTuples) / float64(n)
}

// RelativeError returns |Estimate-truth|/|truth|, or the absolute error
// when the truth is zero.
func (r Result) RelativeError(truth float64) float64 {
	if truth == 0 {
		return math.Abs(r.Estimate)
	}
	return math.Abs(r.Estimate-truth) / math.Abs(truth)
}

// CIRatio returns CIHalf/|truth| (the paper's confidence-interval ratio
// metric), or CIHalf when the truth is zero.
func (r Result) CIRatio(truth float64) float64 {
	if truth == 0 {
		return r.CIHalf
	}
	return r.CIHalf / math.Abs(truth)
}

// scanChunk is how many sample rows one pass of the scan kernel filters.
// It bounds the selection vector, which therefore lives in the query
// scratch instead of being sized per leaf, and keeps a pass's working set
// (the chunk's rows plus 1 KiB of indices) inside L1.
const scanChunk = 256

// stratum is one partial leaf's contribution to an AVG query.
type stratum struct {
	est  float64
	nHat float64
	vi   float64 // V_i(q)
}

// queryScratch is every buffer a query needs beyond its arguments and its
// Result, so a query that has one allocates nothing: QueryBatch workers
// hold one for their whole share of a batch, Query borrows one from
// scratchPool. A scratch carries no state from one query to the next —
// every field is reset or overwritten before it is read.
type queryScratch struct {
	ids    ptree.FrontierIDs // MCF result and walk stack
	cd     []int             // the dimensions the query constrains
	sel    []int32           // selection vector of the scan kernel, len scanChunk
	all    []int32           // 0 … scanChunk-1: the selection when nothing is filtered
	strata []stratum         // AVG: partial strata awaiting the total weight
	proj   []float64         // query rectangle projected onto idxCols: Lo then Hi
}

var scratchPool = sync.Pool{New: func() any {
	sc := &queryScratch{sel: make([]int32, scanChunk), all: make([]int32, scanChunk)}
	for j := range sc.all {
		sc.all[j] = int32(j)
	}
	return sc
}}

// Query answers an aggregate with a rectangular predicate. The rectangle
// may constrain fewer dimensions than the synopsis (the rest are
// unconstrained) or more (workload shift on k-d synopses).
func (s *Synopsis) Query(kind dataset.AggKind, q dataset.Rect) (Result, error) {
	sc := scratchPool.Get().(*queryScratch)
	r, err := s.query(kind, q, sc)
	scratchPool.Put(sc)
	return r, err
}

// query is Query on a caller-provided scratch. Every aggregate runs the
// same three steps: the MCF walk leaves the frontier's node ids in sc.ids,
// the covered ids fold into one exact aggregate, and each partial leaf is
// resolved against its sample (scanLeaf) and folded in walk order. Both
// folds run in the depth-first order of the walk and each leaf's matching
// samples are summed in ascending store order, so an answer is a function
// of the synopsis and the query alone — not of the scratch, the worker or
// the batch it ran in.
func (s *Synopsis) query(kind dataset.AggKind, q dataset.Rect, sc *queryScratch) (Result, error) {
	if q.Dims() == 0 {
		return Result{}, fmt.Errorf("core: query rectangle has no dimensions")
	}
	if q.Dims() > s.dims {
		return Result{}, fmt.Errorf("core: query constrains %d dimensions but samples carry %d (build with the full predicate vector and IndexDims for workload shift)", q.Dims(), s.dims)
	}
	sc.cd = constrainedDims(sc.cd[:0], q)
	switch kind {
	case dataset.Sum, dataset.Count:
		return s.sumCount(kind, q, sc), nil
	case dataset.Avg:
		return s.avg(q, sc), nil
	case dataset.Min, dataset.Max:
		return s.minMax(kind, q, sc), nil
	}
	return Result{}, fmt.Errorf("core: unsupported aggregate %v", kind)
}

// walk runs the MCF into sc.ids, projecting the query onto the indexed
// column subset when the tree indexes one (multi-template sets, Section
// 4.5). If the query constrains a column the tree does not index, coverage
// cannot be certified and every intersecting leaf is partial.
func (s *Synopsis) walk(q dataset.Rect, zeroVar bool, sc *queryScratch) {
	if s.idxCols == nil {
		s.tr.Walk(q, zeroVar, &sc.ids)
		return
	}
	n := len(s.idxCols)
	if cap(sc.proj) < 2*n {
		sc.proj = make([]float64, 2*n)
	}
	lo, hi := sc.proj[:n], sc.proj[n:2*n]
	for i, c := range s.idxCols {
		if c < q.Dims() {
			lo[i], hi[i] = q.Lo[c], q.Hi[c]
		} else {
			lo[i], hi[i] = math.Inf(-1), math.Inf(1)
		}
	}
	force := false
	for _, c := range sc.cd {
		if !s.indexed[c] {
			force = true
			break
		}
	}
	s.kd.WalkProjected(dataset.Rect{Lo: lo, Hi: hi}, force, zeroVar, &sc.ids)
}

// constrainedDims appends to cd the dimensions q actually bounds. Row
// filtering touches only these dimensions instead of comparing every
// coordinate against ±Inf — the leaf-level half of predicate pushdown. An
// empty result means the predicate is vacuous.
func constrainedDims(cd []int, q dataset.Rect) []int {
	for c := range q.Lo {
		if !math.IsInf(q.Lo[c], -1) || !math.IsInf(q.Hi[c], 1) {
			cd = append(cd, c)
		}
	}
	return cd
}

// onlyDim reports whether every constrained dimension is dim — the
// generalized sole-constraint test: once the sort-dimension binary search
// has narrowed the range, no other dimension needs checking and the prefix
// fast path applies. With dim = -1 it reports a vacuous predicate.
func onlyDim(cd []int, dim int) bool {
	for _, c := range cd {
		if c != dim {
			return false
		}
	}
	return true
}

// leafScan summarises the resolution of a partial leaf's sample against
// the query predicate. k is always the full stratum sample size K_i (the
// estimator's denominator), even when the prefix fast path avoided
// touching most samples.
type leafScan struct {
	k     int     // sample size K_i
	kPred int     // matching samples
	sum   float64 // Σ matching values
	sumSq float64 // Σ matching values²
	// extrema of the matching values (+Inf/-Inf when none); filled only
	// when scanLeaf is asked for them, in place of sum and sumSq
	min, max float64
}

// scanLeaf resolves a partial leaf against the query. The leaf's samples
// are sorted along its primary split dimension, so a predicate on that
// dimension reduces to a binary-searched contiguous range; when no other
// dimension is constrained, count/sum/sumSq come from two prefix lookups
// (O(log k) total, no row touched). Otherwise the range runs through the
// scan kernel a chunk at a time: the remaining constrained dimensions
// filter the chunk into the scratch's selection vector (selectRows —
// unconstrained columns are never read), then one loop folds the selected
// values in ascending store order. With extrema set the fold keeps MIN/MAX
// of the matching values instead of their sums; extrema need the values
// themselves, so that path never takes the prefix shortcut.
func (s *Synopsis) scanLeaf(leaf int, q dataset.Rect, sc *queryScratch, extrema bool) leafScan {
	st := s.store
	o, e := st.offsets[leaf], st.offsets[leaf+1]
	lo, hi := math.Inf(1), math.Inf(-1)
	empty := leafScan{k: e - o, min: lo, max: hi}
	if e == o {
		return empty
	}
	a, b, skip := o, e, -1
	if sd := st.sortDim[leaf]; sd < q.Dims() {
		if a, b = st.searchRange(leaf, q.Lo[sd], q.Hi[sd]); a >= b {
			return empty
		}
		skip = sd // certified by the binary search
	}
	if !extrema && onlyDim(sc.cd, skip) {
		n, sum, sumSq := st.rangeAgg(leaf, a, b)
		return leafScan{k: e - o, kPred: n, sum: sum, sumSq: sumSq, min: lo, max: hi}
	}
	kPred, sum, sumSq := 0, 0.0, 0.0
	for ; a < b; a += scanChunk {
		m := b - a
		if m > scanChunk {
			m = scanChunk
		}
		sel := st.selectRows(sc, q, skip, a, m)
		vals := st.values[a : a+m]
		kPred += len(sel)
		if extrema {
			for _, j := range sel {
				v := vals[j]
				if v < lo {
					lo = v
				}
				if v > hi {
					hi = v
				}
			}
			continue
		}
		for _, j := range sel {
			v := vals[j]
			sum += v
			sumSq += v * v
		}
	}
	return leafScan{k: e - o, kPred: kPred, sum: sum, sumSq: sumSq, min: lo, max: hi}
}

// frontierDiag starts a query's Result with the frontier-shape diagnostics
// of the walk in sc.ids; read and partialN are the sample tuples scanned
// and the dataset cardinality under the partial leaves.
func (s *Synopsis) frontierDiag(sc *queryScratch, read, partialN int) Result {
	return Result{
		TuplesRead:    read,
		SkippedTuples: s.n - partialN,
		VisitedNodes:  sc.ids.Visited,
		CoveredParts:  len(sc.ids.Cover),
		PartialParts:  len(sc.ids.Partial),
	}
}

// coverAgg merges the aggregates of the covered nodes, in walk order.
func coverAgg(aggs []ptree.Agg, ids []int32) ptree.Agg {
	var cover ptree.Agg
	for _, id := range ids {
		cover.Merge(aggs[id])
	}
	return cover
}

// sumCount answers SUM and COUNT queries: exact partial aggregates over
// covered partitions plus per-stratum sample estimates over partial leaves
// (Section 3.3), with strata weights w_i = 1.
func (s *Synopsis) sumCount(kind dataset.AggKind, q dataset.Rect, sc *queryScratch) Result {
	s.walk(q, false, sc)
	aggs, leafOf := s.tr.Aggs(), s.tr.LeafIDs()
	cover := coverAgg(aggs, sc.ids.Cover)
	var (
		read, partialN int
		estP, varTotal float64
		hardLoP        float64
		hardHiP        float64
		matchEstP      float64
		certain        bool
	)
	for _, id := range sc.ids.Partial {
		pa := aggs[id]
		partialN += pa.N
		ls := s.scanLeaf(int(leafOf[id]), q, sc, false)
		read += ls.k
		ni := float64(pa.N)
		if ls.k > 0 {
			matchEstP += ni * float64(ls.kPred) / float64(ls.k)
			if ls.kPred > 0 {
				certain = true
			}
			var phiMean, phiSq float64
			if kind == dataset.Sum {
				phiMean = ni * ls.sum / float64(ls.k)
				phiSq = ni * ni * ls.sumSq / float64(ls.k)
			} else {
				phiMean = ni * float64(ls.kPred) / float64(ls.k)
				phiSq = ni * ni * float64(ls.kPred) / float64(ls.k)
			}
			estP += phiMean
			phiVar := phiSq - phiMean*phiMean
			if phiVar < 0 {
				phiVar = 0
			}
			varTotal += phiVar / float64(ls.k) * stats.FPC(pa.N, ls.k)
		}
		lo, hi := partialSumBounds(kind, pa)
		hardLoP += lo
		hardHiP += hi
	}
	agg := cover.Sum
	if kind == dataset.Count {
		agg = float64(cover.N)
	}
	r := s.frontierDiag(sc, read, partialN)
	r.Estimate = agg + estP
	r.CIHalf = s.opts.Lambda * math.Sqrt(varTotal)
	r.HardLo, r.HardHi, r.HardValid = agg+hardLoP, agg+hardHiP, true
	r.Exact = len(sc.ids.Partial) == 0
	r.MatchEst = float64(cover.N) + matchEstP
	r.MatchCertain = cover.N > 0 || certain
	return r
}

// partialSumBounds returns the deterministic range of a partial leaf's
// contribution to a SUM/COUNT. For COUNT it is [0, N]. For SUM the subset
// sum lies between the sums of the most negative and most positive
// subsets, which the partition extrema bound; with all-positive values
// this reduces to the paper's [0, SUM(P_i)].
func partialSumBounds(kind dataset.AggKind, a ptree.Agg) (lo, hi float64) {
	if kind == dataset.Count {
		return 0, float64(a.N)
	}
	n := float64(a.N)
	// highest subset sum: total minus the most negative exclusions
	hi = a.Sum - n*math.Min(0, a.Min)
	if hi < 0 {
		hi = 0
	}
	if a.Min >= 0 && a.Sum < hi {
		hi = a.Sum // all positive: cannot exceed the partition total
	}
	// lowest subset sum
	lo = math.Min(0, n*a.Min)
	if v := a.Sum - n*math.Max(0, a.Max); v > lo {
		lo = v
	}
	return lo, hi
}

// avg answers AVG queries via the weighted stratified combination of
// Sections 2.2/3.3: covered strata contribute their exact averages with
// exact weights; partial strata contribute sample means with weights
// estimated from the sample predicate fraction. Covered partitions fold
// into a single stratum; only partial strata with evidence are buffered,
// in the scratch (the combination weights need the total n̂_q).
func (s *Synopsis) avg(q dataset.Rect, sc *queryScratch) Result {
	s.walk(q, !s.opts.DisableZeroVariance, sc)
	aggs, leafOf := s.tr.Aggs(), s.tr.LeafIDs()
	cover := coverAgg(aggs, sc.ids.Cover)
	var (
		read, partialN int
		// hard-bound envelope over partial partitions (Section 2.3)
		partialLo = math.Inf(1)
		partialHi = math.Inf(-1)
	)
	partials := sc.strata[:0]
	for _, id := range sc.ids.Partial {
		pa := aggs[id]
		partialN += pa.N
		ls := s.scanLeaf(int(leafOf[id]), q, sc, false)
		read += ls.k
		if pa.N > 0 {
			if pa.Min < partialLo {
				partialLo = pa.Min
			}
			if pa.Max > partialHi {
				partialHi = pa.Max
			}
		}
		if ls.k == 0 || ls.kPred == 0 {
			continue // stratum contributes nothing we can estimate
		}
		ni := float64(pa.N)
		nHat := ni * float64(ls.kPred) / float64(ls.k)
		est := ls.sum / float64(ls.kPred)
		// φ(t) = pred·(K/K_pred)·a; var over the whole leaf sample
		ratio := float64(ls.k) / float64(ls.kPred)
		phiMean := est
		phiSq := ratio * ratio * ls.sumSq / float64(ls.k)
		phiVar := phiSq - phiMean*phiMean
		if phiVar < 0 {
			phiVar = 0
		}
		vi := phiVar / float64(ls.k) * stats.FPC(pa.N, ls.k)
		partials = append(partials, stratum{est: est, nHat: nHat, vi: vi})
	}
	sc.strata = partials
	r := s.frontierDiag(sc, read, partialN)
	nq := float64(cover.N)
	for _, st := range partials {
		nq += st.nHat
	}
	// strata exist only on direct evidence (a covered partition or a
	// matching sample), so a positive weight doubles as certainty
	r.MatchEst = nq
	r.MatchCertain = nq > 0
	if nq == 0 {
		r.NoMatch = true
		return r
	}
	est, varTotal := 0.0, 0.0
	if cover.N > 0 {
		est += float64(cover.N) / nq * cover.Avg()
	}
	for _, st := range partials {
		w := st.nHat / nq
		est += w * st.est
		varTotal += w * w * st.vi
	}
	r.Estimate = est
	r.CIHalf = s.opts.Lambda * math.Sqrt(varTotal)
	r.Exact = len(partials) == 0
	// hard bounds (Section 2.3)
	lo, hi := partialLo, partialHi
	if cover.N > 0 {
		if a := cover.Avg(); a < lo {
			lo = a
		}
		if a := cover.Avg(); a > hi {
			hi = a
		}
	}
	if !math.IsInf(lo, 1) {
		r.HardLo, r.HardHi, r.HardValid = lo, hi, true
	}
	return r
}

// minMax answers MIN and MAX queries: exact extrema over covered
// partitions, sampled extrema over partial leaves, with hard bounds from
// the partial partitions' stored extrema.
func (s *Synopsis) minMax(kind dataset.AggKind, q dataset.Rect, sc *queryScratch) Result {
	s.walk(q, false, sc)
	aggs, leafOf := s.tr.Aggs(), s.tr.LeafIDs()
	cover := coverAgg(aggs, sc.ids.Cover)
	var (
		read, partialN int
		sampled        = math.Inf(1) // extremum over matching samples
		sampledAny     bool
		// partialLo/partialHi: the range any matching tuple in a partial
		// leaf could take
		partialLo  = math.Inf(1)
		partialHi  = math.Inf(-1)
		anyPartial bool
		matchEstP  float64
	)
	if kind == dataset.Max {
		sampled = math.Inf(-1)
	}
	for _, id := range sc.ids.Partial {
		pa := aggs[id]
		partialN += pa.N
		ls := s.scanLeaf(int(leafOf[id]), q, sc, true)
		read += ls.k
		if pa.N > 0 {
			anyPartial = true
			partialLo = math.Min(partialLo, pa.Min)
			partialHi = math.Max(partialHi, pa.Max)
		}
		if ls.k > 0 {
			matchEstP += float64(pa.N) * float64(ls.kPred) / float64(ls.k)
		}
		if ls.kPred > 0 {
			sampledAny = true
			if kind == dataset.Min {
				sampled = math.Min(sampled, ls.min)
			} else {
				sampled = math.Max(sampled, ls.max)
			}
		}
	}
	best := sampled
	observed := sampledAny
	if cover.N > 0 {
		observed = true
		c := cover.Min
		if kind == dataset.Max {
			c = cover.Max
		}
		if !sampledAny {
			best = c
		} else if kind == dataset.Min {
			best = math.Min(best, c)
		} else {
			best = math.Max(best, c)
		}
	}
	r := s.frontierDiag(sc, read, partialN)
	r.MatchEst = float64(cover.N) + matchEstP
	r.MatchCertain = observed
	if !observed && !anyPartial {
		r.NoMatch = true
		return r
	}
	if !observed {
		// no matching tuple seen; if any exists it lies in the partial
		// envelope — report the midpoint with the envelope as hard bounds
		r.Estimate = (partialLo + partialHi) / 2
		r.HardLo, r.HardHi, r.HardValid = partialLo, partialHi, true
		return r
	}
	r.Estimate = best
	if kind == dataset.Min {
		// best is an actual matching value, so the true minimum is at
		// most best; it can be as low as the smallest partial candidate
		lo := best
		if anyPartial {
			lo = math.Min(lo, partialLo)
		}
		r.HardLo, r.HardHi, r.HardValid = lo, best, true
	} else {
		hi := best
		if anyPartial {
			hi = math.Max(hi, partialHi)
		}
		r.HardLo, r.HardHi, r.HardValid = best, hi, true
	}
	r.Exact = len(sc.ids.Partial) == 0
	return r
}
