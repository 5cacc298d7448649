// Package adaptive closes the loop between the query log and the
// synopsis: PASS optimises its partition tree for an *expected* query
// workload, and this package makes that expectation empirical.
//
// It has two cooperating pieces:
//
//   - Collector: a concurrency-safe, per-table sliding window of query
//     observations (predicate ranges, aggregate kinds, selectivities,
//     exactness, latencies), recorded by the serving layer on every
//     query — session Exec/ExecBatch and the shard scatter path alike,
//     since both flow through the catalog table they resolve to.
//
//   - Reoptimizer: a background loop that scores each table's current
//     partitioning against the observed range distribution. When the
//     drift — the fraction of recent traffic hitting repeated ranges the
//     partitioning does not answer exactly — crosses a threshold, it
//     extracts the workload's hot endpoints (Boundaries) and asks the
//     serving layer to rebuild the synopsis with partition boundaries
//     forced onto them (partition.Forced via core.Options.ForceBoundaries),
//     hot-swapping the result under the catalog's table lock.
//
// A repeated predicate is answered exactly by aligning the tree of
// precomputed aggregates with it, not by storing its answer: the package
// only observes and rebuilds.
//
// The package deliberately knows nothing about engines, catalogs or
// storage: the serving layer (internal/catalog, pass.Session) feeds it
// observations and consumes its decisions through small interfaces, so
// the loop slots in front of any engine implementation.
package adaptive

import (
	"math"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/partition"
)

// Obs is one observed query: the slice of a workload the re-optimizer
// reasons over. Ranges are recorded for the partitioning dimension
// (predicate column 0); ExtraDims notes whether other columns were
// constrained too, since forced 1D boundaries cannot align those.
type Obs struct {
	// Kind is the aggregate the query computed.
	Kind dataset.AggKind
	// Lo and Hi bound the predicate on the partitioning dimension
	// (±Inf when unconstrained).
	Lo, Hi float64
	// ExtraDims reports that the predicate constrained columns beyond the
	// partitioning dimension.
	ExtraDims bool
	// Selectivity is the estimated matching fraction (MatchEst / N).
	Selectivity float64
	// Exact reports a zero-sampling-error answer; NoMatch an empty one.
	Exact, NoMatch bool
	// RelCI is CIHalf/|Estimate| for inexact answers (0 when exact or
	// the estimate is zero).
	RelCI float64
	// Elapsed is the serving-side latency of the query.
	Elapsed time.Duration
}

// TableStats summarises one table's sliding window.
type TableStats struct {
	// Window is the number of observations currently held; Total counts
	// every observation ever recorded for the table.
	Window int
	Total  int64
	// ExactFrac is the fraction of window queries answered exactly.
	ExactFrac float64
	// MeanRelCI averages RelCI over the inexact window queries.
	MeanRelCI float64
	// MeanSelectivity averages the estimated matching fraction.
	MeanSelectivity float64
	// MeanLatency averages serving-side latency over the window.
	MeanLatency time.Duration
}

// ring is one table's sliding window.
type ring struct {
	buf   []Obs
	next  int
	full  bool
	total int64
}

func (r *ring) add(o Obs) {
	r.buf[r.next] = o
	r.next++
	if r.next == len(r.buf) {
		r.next = 0
		r.full = true
	}
	r.total++
}

func (r *ring) window() []Obs {
	if !r.full {
		return append([]Obs(nil), r.buf[:r.next]...)
	}
	out := make([]Obs, 0, len(r.buf))
	out = append(out, r.buf[r.next:]...)
	return append(out, r.buf[:r.next]...)
}

// Collector records per-table query observations into fixed-size sliding
// windows. It is safe for concurrent use from any number of serving
// goroutines; recording is a mutex-guarded ring-buffer write.
type Collector struct {
	mu     sync.Mutex
	window int
	tables map[string]*ring
}

// DefaultWindow is the per-table sliding-window capacity when
// NewCollector is given a non-positive size.
const DefaultWindow = 2048

// NewCollector returns a collector keeping the last window observations
// per table.
func NewCollector(window int) *Collector {
	if window <= 0 {
		window = DefaultWindow
	}
	return &Collector{window: window, tables: make(map[string]*ring)}
}

// ObserveQuery records one served query. It satisfies the catalog's
// QueryRecorder interface: the serving layer calls it for every scalar
// query the engine answered, with the result it returned. The generation
// stamp is the auditor's and is ignored here.
func (c *Collector) ObserveQuery(table string, kind dataset.AggKind, q dataset.Rect, r core.Result, n int, elapsed time.Duration, _ uint64) {
	o := Obs{
		Kind:    kind,
		Lo:      math.Inf(-1),
		Hi:      math.Inf(1),
		Exact:   r.Exact,
		NoMatch: r.NoMatch,
		Elapsed: elapsed,
	}
	if q.Dims() > 0 {
		o.Lo, o.Hi = q.Lo[0], q.Hi[0]
	}
	for d := 1; d < q.Dims(); d++ {
		if !math.IsInf(q.Lo[d], -1) || !math.IsInf(q.Hi[d], 1) {
			o.ExtraDims = true
			break
		}
	}
	if n > 0 {
		o.Selectivity = r.MatchEst / float64(n)
	}
	if !r.Exact && r.Estimate != 0 {
		o.RelCI = r.CIHalf / math.Abs(r.Estimate)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	rg, ok := c.tables[table]
	if !ok {
		rg = &ring{buf: make([]Obs, c.window)}
		c.tables[table] = rg
	}
	rg.add(o)
}

// Window returns a copy of the table's current observations, oldest
// first (nil for unknown tables).
func (c *Collector) Window(table string) []Obs {
	c.mu.Lock()
	defer c.mu.Unlock()
	rg, ok := c.tables[table]
	if !ok {
		return nil
	}
	return rg.window()
}

// Stats summarises the table's window; ok is false when the table has
// never been observed.
func (c *Collector) Stats(table string) (TableStats, bool) {
	c.mu.Lock()
	rg, ok := c.tables[table]
	if !ok {
		c.mu.Unlock()
		return TableStats{}, false
	}
	w := rg.window()
	total := rg.total
	c.mu.Unlock()

	st := TableStats{Window: len(w), Total: total}
	if len(w) == 0 {
		return st, true
	}
	var exact, inexact int
	var relCI, sel float64
	var lat time.Duration
	for _, o := range w {
		if o.Exact {
			exact++
		} else {
			inexact++
			relCI += o.RelCI
		}
		sel += o.Selectivity
		lat += o.Elapsed
	}
	st.ExactFrac = float64(exact) / float64(len(w))
	st.MeanSelectivity = sel / float64(len(w))
	st.MeanLatency = lat / time.Duration(len(w))
	if inexact > 0 {
		st.MeanRelCI = relCI / float64(inexact)
	}
	return st, true
}

// Tables lists every table with at least one observation.
func (c *Collector) Tables() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, 0, len(c.tables))
	for t := range c.tables {
		out = append(out, t)
	}
	return out
}

// Reset empties a table's window, keeping its lifetime total. The
// re-optimizer calls it after a rebuild so the drift signal restarts
// from post-rebuild traffic.
func (c *Collector) Reset(table string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if rg, ok := c.tables[table]; ok {
		c.tables[table] = &ring{buf: make([]Obs, c.window), total: rg.total}
	}
}

// Forget discards all state for a table (dropped tables).
func (c *Collector) Forget(table string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.tables, table)
}

// minRepeat is how often a range (or endpoint) must recur inside the
// window before the re-optimizer treats it as workload structure rather
// than noise.
const minRepeat = 2

// Boundaries extracts the workload's hot partition boundaries from a
// window: the endpoints of repeated dimension-0 query ranges, weighted by
// how often they recur, capped at max boundaries (most frequent first).
// Lower bounds become before-cuts and upper bounds after-cuts, so a
// partitioning forced onto them covers each repeated range with whole
// partitions exactly (see partition.Boundary). Endpoints seen fewer than
// two times, and non-finite ones, are ignored.
func Boundaries(window []Obs, max int) []partition.Boundary {
	if max <= 0 {
		max = 16
	}
	type key struct {
		v     float64
		after bool
	}
	counts := make(map[key]int)
	for _, o := range window {
		if !math.IsInf(o.Lo, -1) && !math.IsNaN(o.Lo) {
			counts[key{o.Lo, false}]++
		}
		if !math.IsInf(o.Hi, 1) && !math.IsNaN(o.Hi) {
			counts[key{o.Hi, true}]++
		}
	}
	cands := make([]key, 0, len(counts))
	for k, n := range counts {
		if n >= minRepeat {
			cands = append(cands, k)
		}
	}
	// most frequent first; ties by value then side for determinism
	sort.Slice(cands, func(i, j int) bool {
		a, b := cands[i], cands[j]
		if counts[a] != counts[b] {
			return counts[a] > counts[b]
		}
		if a.v != b.v {
			return a.v < b.v
		}
		return !a.after && b.after
	})
	if len(cands) > max {
		cands = cands[:max]
	}
	out := make([]partition.Boundary, len(cands))
	for i, k := range cands {
		out[i] = partition.Boundary{Value: k.v, After: k.after}
	}
	return out
}

// Drift measures how misaligned the partitioning is with the observed
// workload: the fraction of window queries that hit a repeated
// dimension-0 range yet were not answered exactly. Repeated ranges are
// exactly the traffic a workload-aligned rebuild converts to exact
// answers, so drift falls to ~0 after a successful re-optimization and
// the loop self-stabilises. One-off ranges never contribute — a rebuild
// cannot help them, so they must not trigger one.
func Drift(window []Obs) float64 {
	if len(window) == 0 {
		return 0
	}
	type rng struct{ lo, hi float64 }
	counts := make(map[rng]int, len(window))
	for _, o := range window {
		counts[rng{o.Lo, o.Hi}]++
	}
	misaligned := 0
	for _, o := range window {
		if !o.Exact && !o.NoMatch && counts[rng{o.Lo, o.Hi}] >= minRepeat {
			misaligned++
		}
	}
	return float64(misaligned) / float64(len(window))
}
