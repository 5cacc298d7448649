// Package merge combines per-shard partial aggregates into one answer —
// the gather half of sharded scatter-gather execution (internal/shard).
//
// PASS's stratified estimators compose across disjoint data partitions
// exactly the way they compose across strata inside one synopsis:
// SUM/COUNT partials are additive (estimates, variances and deterministic
// hard bounds all add), AVG partials combine by estimated-cardinality
// weighting, and MIN/MAX take extrema — with the caveat that only a shard
// that certainly contains a matching tuple (core.Result.MatchCertain) may
// tighten the global extremum's hard bound, since an uncertain shard's
// envelope is conditional on a match existing there at all.
//
// Confidence intervals compose deterministically because shard samples are
// independent: Var(Σ X_i) = Σ Var(X_i), and every engine in a sharded
// table shares one CI multiplier λ, so the λ factor distributes over the
// root-sum-of-squares of the per-shard half-widths.
//
// The package's one primitive is the Merger: it folds partials one at a
// time in O(1) state per aggregate kind. The scatter layer collects the
// shards' partials and folds them in shard order, which keeps the answer
// bitwise independent of completion order; Groups folds per group key; a
// sync.Pool (Get/Put) recycles accumulators on the query hot path. Degrade
// widens a merged answer for shards that never delivered a partial.
package merge

import (
	"math"
	"sync"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/obs"
)

// Merger is the accumulator for one query's partial results. Add folds
// one shard's partial in O(1) time and state; Result finalizes the merged
// answer. The fold is lossless — additive estimates/variances/hard bounds
// for SUM/COUNT, cardinality-weighted combination for AVG,
// MatchCertain-guarded bound tightening for MIN/MAX — and the finalized
// answer is independent of fold order up to floating-point associativity.
// Partials reporting NoMatch contribute only diagnostics; if every
// partial reports NoMatch (or none was folded) the result is NoMatch.
//
// A Merger is not safe for concurrent use. Obtain one with Get and return
// it with Put; Reset re-arms it for a new query.
type Merger struct {
	kind dataset.AggKind
	live int

	// diagnostics aggregate over every partial, matches or not
	tuplesRead, skippedTuples, visitedNodes, coveredParts, partialParts int

	matchEst     float64
	matchCertain bool
	exact        bool
	hardValid    bool

	// additive state (SUM/COUNT)
	est, varSum, hardLo, hardHi float64

	// weighted state (AVG): Σn̂, Σn̂·est, Σ(n̂·ci)², and the unweighted
	// Σest / Σci² twins for the equal-weight fallback when no shard
	// reports cardinality evidence
	total, wEst, wVar, sumEst, sumVar float64

	// envelope (AVG hard bounds and MIN/MAX union envelope)
	envLo, envHi float64

	// extremum state (MIN/MAX)
	certEst, certBound, extEst float64
	anyCertain                 bool
}

// Reset re-arms the accumulator for a new query of the given kind,
// discarding all folded state.
func (m *Merger) Reset(kind dataset.AggKind) {
	*m = Merger{kind: kind, exact: true, hardValid: true}
	m.envLo, m.envHi = math.Inf(1), math.Inf(-1)
	if kind == dataset.Max {
		m.certEst, m.certBound, m.extEst = math.Inf(-1), math.Inf(-1), math.Inf(-1)
	} else {
		m.certEst, m.certBound, m.extEst = math.Inf(1), math.Inf(1), math.Inf(1)
	}
}

// Kind reports the aggregate kind the accumulator was armed for.
func (m *Merger) Kind() dataset.AggKind { return m.kind }

// Add folds one shard's partial result into the accumulator. Partials
// reporting NoMatch contribute only diagnostics.
func (m *Merger) Add(p core.Result) {
	m.tuplesRead += p.TuplesRead
	m.skippedTuples += p.SkippedTuples
	m.visitedNodes += p.VisitedNodes
	m.coveredParts += p.CoveredParts
	m.partialParts += p.PartialParts
	if p.NoMatch {
		return
	}
	m.live++
	m.matchEst += p.MatchEst
	m.matchCertain = m.matchCertain || p.MatchCertain
	m.exact = m.exact && p.Exact
	m.hardValid = m.hardValid && p.HardValid
	switch m.kind {
	case dataset.Sum, dataset.Count:
		m.est += p.Estimate
		m.varSum += p.CIHalf * p.CIHalf
		m.hardLo += p.HardLo
		m.hardHi += p.HardHi
	case dataset.Avg:
		m.total += p.MatchEst
		m.wEst += p.MatchEst * p.Estimate
		wc := p.MatchEst * p.CIHalf
		m.wVar += wc * wc
		m.sumEst += p.Estimate
		m.sumVar += p.CIHalf * p.CIHalf
		m.envLo = math.Min(m.envLo, p.HardLo)
		m.envHi = math.Max(m.envHi, p.HardHi)
	case dataset.Min:
		m.envLo = math.Min(m.envLo, p.HardLo)
		m.envHi = math.Max(m.envHi, p.HardHi)
		m.extEst = math.Min(m.extEst, p.Estimate)
		if p.MatchCertain {
			m.anyCertain = true
			m.certEst = math.Min(m.certEst, p.Estimate)
			m.certBound = math.Min(m.certBound, p.HardHi)
		}
	case dataset.Max:
		m.envLo = math.Min(m.envLo, p.HardLo)
		m.envHi = math.Max(m.envHi, p.HardHi)
		m.extEst = math.Max(m.extEst, p.Estimate)
		if p.MatchCertain {
			m.anyCertain = true
			m.certEst = math.Max(m.certEst, p.Estimate)
			m.certBound = math.Max(m.certBound, p.HardLo)
		}
	}
}

// Result finalizes the merged answer over everything folded so far. The
// accumulator is left untouched, so more partials can still be folded and
// a new Result taken (the shard layer uses this for nothing today, but
// the property falls out of keeping all state in running form).
func (m *Merger) Result() core.Result {
	out := core.Result{
		TuplesRead:    m.tuplesRead,
		SkippedTuples: m.skippedTuples,
		VisitedNodes:  m.visitedNodes,
		CoveredParts:  m.coveredParts,
		PartialParts:  m.partialParts,
	}
	if m.live == 0 {
		out.NoMatch = true
		return out
	}
	out.MatchEst = m.matchEst
	out.MatchCertain = m.matchCertain
	out.Exact, out.HardValid = m.exact, m.hardValid
	switch m.kind {
	case dataset.Sum, dataset.Count:
		out.Estimate = m.est
		out.CIHalf = math.Sqrt(m.varSum)
		if m.hardValid {
			out.HardLo, out.HardHi = m.hardLo, m.hardHi
		}
	case dataset.Avg:
		if m.total > 0 {
			// Σ (n̂_i/N̂) avg_i and Σ (n̂_i/N̂)² Var_i, kept in running
			// numerator form so the fold is O(1)
			out.Estimate = m.wEst / m.total
			out.CIHalf = math.Sqrt(m.wVar) / m.total
		} else {
			// no cardinality evidence from the inner engines (MatchEst is
			// populated by PASS and the sampling baselines, not by every
			// comparator); a live AVG partial still means matches were
			// seen, so degrade to equal weights rather than inventing a
			// NoMatch
			l := float64(m.live)
			out.Estimate = m.sumEst / l
			out.CIHalf = math.Sqrt(m.sumVar) / l
		}
		if m.hardValid {
			// the global average lies between the smallest and largest
			// per-shard value bound
			out.HardLo, out.HardHi = m.envLo, m.envHi
		}
	case dataset.Min, dataset.Max:
		if !m.anyCertain {
			if m.hardValid {
				// PASS semantics: every shard reported only an envelope,
				// so the merged answer is the union envelope's midpoint
				out.Estimate = (m.envLo + m.envHi) / 2
				out.HardLo, out.HardHi = m.envLo, m.envHi
				return out
			}
			// no certainty AND no envelopes: the inner engines report
			// neither (comparators outside internal/core); take the
			// extremum of their point estimates
			out.Estimate = m.extEst
			return out
		}
		// only a shard that surely holds a match may tighten the certain
		// side: MIN is at most every certain shard's HardHi, at least the
		// smallest HardLo across all candidates; MAX is symmetric
		out.Estimate = m.certEst
		if !m.hardValid {
			return out
		}
		if m.kind == dataset.Min {
			out.HardLo, out.HardHi = m.envLo, m.certBound
		} else {
			out.HardLo, out.HardHi = m.certBound, m.envHi
		}
	}
	return out
}

// pool recycles Mergers on the query hot path. Acquisitions and
// actual allocations are counted directly in the process-wide obs
// registry (the difference is the number of accumulator allocations the
// pool avoided) — there is no separate package-local copy of the stats.
var (
	pool = sync.Pool{New: func() any {
		poolAllocs.Inc()
		return new(Merger)
	}}
	poolGets   = obs.Default().NewCounter("pass_merge_pool_acquires_total", "merge accumulator pool Get calls")
	poolAllocs = obs.Default().NewCounter("pass_merge_pool_allocs_total", "merge accumulators actually allocated")
)

// Get returns a pooled accumulator armed for one query of the given kind.
// Return it with Put when the merged result has been taken.
func Get(kind dataset.AggKind) *Merger {
	poolGets.Inc()
	m := pool.Get().(*Merger)
	m.Reset(kind)
	return m
}

// Put recycles an accumulator obtained from Get. The caller must not use
// it afterwards.
func Put(m *Merger) {
	if m != nil {
		pool.Put(m)
	}
}

// PoolStats reports the accumulator pool's lifetime effectiveness:
// acquires is the number of Get calls, allocated the number of Mergers
// actually allocated; acquires − allocated accumulator allocations were
// avoided by reuse. Counters are process-wide and read straight from the
// obs registry — this accessor and GET /metrics share one source of
// truth.
func PoolStats() (acquires, allocated int64) {
	return poolGets.Value(), poolAllocs.Value()
}

// Degrade widens a merged result to account for shards that were dropped
// from the scatter (error or deadline): droppedRows[i] is one dropped
// shard's base cardinality (0 where unknown). The result is marked
// Degraded and its uncertainty grows by kind-specific compensation:
//
//   - COUNT: a dropped shard with n rows contributes an unknown count in
//     [0, n]. The estimate shifts by the midpoint Σn/2 and both the CI
//     half-width and the deterministic upper bound absorb the full slack
//     (CIHalf += Σn/2, HardHi += Σn), so the true count stays inside both
//     envelopes no matter what the dropped shards held.
//   - SUM/AVG/MIN/MAX: unseen tuples have unbounded values, so no finite
//     compensation exists. The estimate remains the answer over the
//     responding shards; Exact and the hard bounds are invalidated.
//
// A NoMatch result stays NoMatch only for the value aggregates; for COUNT
// the dropped shards may still hold matches, so the slack applies to an
// estimate of zero.
func Degrade(kind dataset.AggKind, out *core.Result, droppedRows []int) {
	if len(droppedRows) == 0 {
		return
	}
	out.Degraded = true
	if kind == dataset.Count {
		slack := 0.0
		for _, n := range droppedRows {
			slack += float64(n)
		}
		if out.NoMatch && slack > 0 {
			out.NoMatch = false
			out.HardValid = true
		}
		out.Estimate += slack / 2
		out.CIHalf += slack / 2
		out.HardHi += slack
		out.Exact = out.Exact && slack == 0
		return
	}
	if out.NoMatch {
		return
	}
	out.Exact = false
	out.HardValid = false
	out.HardLo, out.HardHi = 0, 0
}

// Groups combines per-shard GROUP BY outputs: parts[i] is shard i's
// GroupResult slice, all aligned on the same group-key list. Each group
// key merges independently with the Merger rules; a group NoMatch on one
// shard simply contributes nothing there. One pooled accumulator is
// recycled across all groups.
func Groups(kind dataset.AggKind, parts [][]core.GroupResult) []core.GroupResult {
	if len(parts) == 0 {
		return nil
	}
	n := len(parts[0])
	out := make([]core.GroupResult, n)
	m := Get(kind)
	for j := 0; j < n; j++ {
		m.Reset(kind)
		for _, shard := range parts {
			m.Add(shard[j].Result)
		}
		out[j] = core.GroupResult{Group: parts[0][j].Group, Result: m.Result()}
	}
	Put(m)
	return out
}
