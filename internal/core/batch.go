package core

import (
	"sync/atomic"
	"time"

	"repro/internal/dataset"
	"repro/internal/parallel"
)

// BatchQuery is one query of a batched workload.
type BatchQuery struct {
	Kind dataset.AggKind
	Rect dataset.Rect
}

// BatchResult is the answer to one BatchQuery.
type BatchResult struct {
	Result Result
	Err    error
	// Elapsed is the wall-clock time the query spent executing inside its
	// worker, for per-query latency accounting under batched execution.
	Elapsed time.Duration
}

// Unpack returns the answer and error, so a single query read as a batch
// of one returns as Query does.
func (r BatchResult) Unpack() (Result, error) { return r.Result, r.Err }

// QueryBatch answers a workload of queries, fanning them across a bounded
// worker pool (one worker per CPU, see package parallel). Each worker
// takes one query scratch for its whole share of the batch and claims
// queries from a shared counter, so a batch allocates its result slice and
// nothing per query. Results are returned in input order and are identical
// to issuing the same queries sequentially through Query.
//
// Concurrency: a built Synopsis is immutable under Query, so QueryBatch —
// and any number of concurrent Query/QueryBatch calls from different
// goroutines — are safe, provided they do not overlap with Insert or
// Delete, which mutate the synopsis and require exclusive access.
func (s *Synopsis) QueryBatch(qs []BatchQuery) []BatchResult {
	out := make([]BatchResult, len(qs))
	workers := parallel.Workers()
	if workers > len(qs) {
		workers = len(qs)
	}
	var next atomic.Int64
	parallel.For(workers, func(int) {
		sc := scratchPool.Get().(*queryScratch)
		defer scratchPool.Put(sc)
		for {
			i := int(next.Add(1)) - 1
			if i >= len(qs) {
				return
			}
			o := &out[i]
			start := time.Now()
			o.Result, o.Err = s.query(qs[i].Kind, qs[i].Rect, sc)
			o.Elapsed = time.Since(start)
		}
	})
	return out
}
