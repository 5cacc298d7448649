// Package pass is the public API of the PASS reproduction —
// Precomputation-Assisted Stratified Sampling (Liang, Sintos, Shang,
// Krishnan, SIGMOD 2021), an approximate-query-processing synopsis that
// combines a tree of precomputed partition aggregates with stratified
// samples at the leaves.
//
// Typical use:
//
//	tbl := pass.NewTable([]string{"time"}, "light")
//	for _, row := range rows {
//	    tbl.Append([]float64{row.Time}, row.Light)
//	}
//	syn, err := pass.Build(tbl, pass.Options{Partitions: 64, SampleRate: 0.005})
//	ans, err := syn.Sum(pass.Range{Lo: 100, Hi: 500})
//	fmt.Println(ans.Estimate, "±", ans.CIHalf)
//
// Queries whose predicates align with the optimised partitioning are
// answered exactly; partial overlaps are estimated from the stratified
// samples with CLT confidence intervals and deterministic hard bounds.
//
// # Batched queries and concurrency
//
// A built Synopsis is immutable under queries: any number of goroutines
// may call Query (and the Sum/Count/... helpers) concurrently. QueryBatch
// exploits this, fanning a whole workload across a worker pool sized by
// GOMAXPROCS and returning per-query answers in input order:
//
//	answers := syn.QueryBatch([]pass.Request{
//	    {Agg: pass.Sum, Pred: []pass.Range{{Lo: 100, Hi: 500}}},
//	    {Agg: pass.Avg, Pred: []pass.Range{{Lo: 0, Hi: 50}}},
//	})
//
// Batched answers are identical to issuing the same queries sequentially.
// The only exclusions are Insert and Delete, which mutate the synopsis:
// they must not overlap with queries (batched or not) and require external
// synchronisation if updates and queries share a synopsis across
// goroutines.
//
// # Sessions and the capability split
//
// Session serves SQL over many named tables at once: Register a synopsis
// under a table name and Exec statements whose FROM clause resolves
// against the catalog (unknown tables are an error). Sessions batch
// multi-statement scripts per table and serialise updates behind a
// per-table RWMutex, so no external synchronisation is needed.
//
// Underneath, every AQP system in this repository implements the shared
// engine interface (internal/engine): Name, Query, QueryBatch and
// MemoryBytes. Mutation (Insert/Delete) and persistence (Save) are
// deliberately *not* part of that interface — they are optional
// capabilities (engine.Updatable, engine.Serializable) that only some
// engines provide. The PASS synopsis implements both; the sampling
// comparators are query-only, and a Session reports a clear error when a
// table's engine lacks the capability a request needs.
package pass

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/kdtree"
	"repro/internal/sqlfe"
)

// Agg identifies an aggregate function.
type Agg int

// Supported aggregates.
const (
	Sum Agg = iota
	Count
	Avg
	Min
	Max
)

func (a Agg) internal() (dataset.AggKind, error) {
	switch a {
	case Sum:
		return dataset.Sum, nil
	case Count:
		return dataset.Count, nil
	case Avg:
		return dataset.Avg, nil
	case Min:
		return dataset.Min, nil
	case Max:
		return dataset.Max, nil
	}
	return 0, fmt.Errorf("pass: unknown aggregate %d", int(a))
}

// String returns the SQL name of the aggregate.
func (a Agg) String() string {
	k, err := a.internal()
	if err != nil {
		return fmt.Sprintf("Agg(%d)", int(a))
	}
	return k.String()
}

// Range is one per-column predicate bound (inclusive on both ends).
type Range struct {
	Lo, Hi float64
}

// Table is a collection of tuples: d predicate columns and one
// aggregation column.
type Table struct {
	inner *dataset.Dataset
	dicts map[string]*dataset.Dict
}

// NewTable creates an empty table with the given predicate column names
// and aggregation column name.
func NewTable(predCols []string, aggCol string) *Table {
	d := dataset.New("table", len(predCols))
	d.ColNames = append(append([]string{}, predCols...), aggCol)
	return &Table{inner: d}
}

// Append adds one tuple; len(pred) must match the predicate column count.
func (t *Table) Append(pred []float64, agg float64) { t.inner.Append(pred, agg) }

// Len returns the number of tuples.
func (t *Table) Len() int { return t.inner.N() }

// Dims returns the number of predicate columns.
func (t *Table) Dims() int { return t.inner.Dims() }

// ReadCSV loads a table from CSV: a header row, then numeric rows whose
// last column is the aggregate. One leading byte order mark is dropped;
// an empty or a repeated column name is an error. A large input is
// parsed on every CPU.
func ReadCSV(r io.Reader) (*Table, error) {
	d, err := dataset.ReadCSV(r, "table")
	if err != nil {
		return nil, err
	}
	return &Table{inner: d}, nil
}

// WriteCSV writes the table with a header row.
func (t *Table) WriteCSV(w io.Writer) error { return t.inner.WriteCSV(w) }

// Exact computes the ground-truth aggregate by a full scan — useful for
// validating synopsis answers in tests and examples.
func (t *Table) Exact(agg Agg, pred ...Range) (float64, error) {
	kind, err := agg.internal()
	if err != nil {
		return 0, err
	}
	return t.inner.Exact(kind, toRect(pred))
}

// Demo generates one of the built-in demonstration datasets simulating
// the paper's evaluation data: "intel", "instacart", "nyctaxi",
// "adversarial", or "uniform". For "nyctaxi" use DemoTaxi for
// multi-dimensional variants.
func Demo(name string, n int, seed uint64) (*Table, error) {
	d, ok := dataset.ByName(name, n, seed)
	if !ok {
		return nil, fmt.Errorf("pass: unknown demo dataset %q", name)
	}
	return &Table{inner: d}, nil
}

// DemoTaxi generates the simulated NYC-taxi dataset with 1-5 predicate
// columns (pickup_time, pickup_date, pu_location, dropoff_date,
// dropoff_time) and trip_distance as the aggregate.
func DemoTaxi(n, dims int, seed uint64) *Table {
	return &Table{inner: dataset.GenNYCTaxi(n, dims, seed)}
}

// Partitioner selects the leaf-partitioning algorithm for 1D synopses.
type Partitioner int

// Partitioner choices.
const (
	// ADP is the paper's sampling + discretization dynamic program.
	ADP Partitioner = iota
	// EqualDepth is equal-size partitioning.
	EqualDepth
	// HillClimb is the AQP++-style heuristic.
	HillClimb
)

// Options configures synopsis construction. Partitions plus one of
// SampleRate/SampleSize are required; everything else has sensible
// defaults (99% confidence, ADP partitioning, δ = 0.01).
type Options struct {
	// Partitions is the leaf budget k: more partitions mean more
	// precomputation and higher accuracy.
	Partitions int
	// SampleRate is the stratified sample size as a fraction of the data.
	SampleRate float64
	// SampleSize is the absolute sample budget (overrides SampleRate).
	SampleSize int
	// OptimizeFor tunes the partitioning for a query type (default Sum).
	OptimizeFor Agg
	// Partitioner selects the 1D partitioning algorithm (default ADP).
	Partitioner Partitioner
	// Confidence is the CI coverage in (0, 1); default 0.99.
	Confidence float64
	// Seed makes construction deterministic.
	Seed uint64
	// Proportional allocates samples proportionally to stratum sizes.
	Proportional bool
	// IndexDims, for multi-dimensional synopses, restricts the aggregate
	// tree to the first IndexDims predicate columns while samples keep
	// the full predicate vector (workload shift; 0 = index everything).
	IndexDims int
	// BalancedTree selects the KD-US balanced expansion policy instead of
	// the default greedy max-variance KD-PASS policy (multi-d only).
	BalancedTree bool
	// Fanout is the 1D partition-tree fanout (default 2); it affects only
	// construction time and query latency, never accuracy.
	Fanout int
}

func (o Options) internal() (core.Options, error) {
	kind, err := o.OptimizeFor.internal()
	if err != nil {
		return core.Options{}, err
	}
	opts := core.Options{
		Partitions:   o.Partitions,
		SampleRate:   o.SampleRate,
		SampleSize:   o.SampleSize,
		Kind:         kind,
		Seed:         o.Seed,
		Proportional: o.Proportional,
		IndexDims:    o.IndexDims,
		Fanout:       o.Fanout,
	}
	switch o.Partitioner {
	case EqualDepth:
		opts.Partitioner = core.PartitionEqualDepth
	case HillClimb:
		opts.Partitioner = core.PartitionHillClimb
	case ADP:
		opts.Partitioner = core.PartitionADP
	default:
		return opts, fmt.Errorf("pass: unknown partitioner %d", int(o.Partitioner))
	}
	if o.Confidence != 0 {
		if o.Confidence <= 0 || o.Confidence >= 1 {
			return opts, fmt.Errorf("pass: Confidence must be in (0, 1)")
		}
		opts.Lambda = lambdaFor(o.Confidence)
	}
	if o.BalancedTree {
		opts.KDPolicy = kdtree.PolicyUniform
	}
	return opts, nil
}

// Answer is the result of one approximate query.
type Answer struct {
	// Estimate is the point estimate.
	Estimate float64
	// CIHalf is the half-width of the confidence interval.
	CIHalf float64
	// HardLo/HardHi are deterministic bounds guaranteed to contain the
	// exact answer when HardBounds is true.
	HardLo, HardHi float64
	HardBounds     bool
	// Exact reports a zero-sampling-error answer.
	Exact bool
	// TuplesRead is the number of sample tuples scanned.
	TuplesRead int
	// SkipRate is the fraction of the dataset not needed for the answer.
	SkipRate float64
	// Degraded marks a partial scatter answer: one or more shards of a
	// sharded table errored or missed the query deadline and were dropped
	// from the merge, with the uncertainty widened to compensate.
	// ShardsTotal/ShardsAnswered report the scatter fan-out (both zero for
	// unsharded execution).
	Degraded                    bool
	ShardsTotal, ShardsAnswered int
}

// ErrNoMatch is returned for AVG/MIN/MAX queries whose predicate matches
// no tuples (as far as the synopsis can tell).
var ErrNoMatch = fmt.Errorf("pass: predicate matches no tuples")

// Synopsis is a built PASS data structure.
type Synopsis struct {
	inner  *core.Synopsis
	schema sqlfe.Schema
}

// Build constructs a synopsis over a one-predicate-column table.
func Build(t *Table, opt Options) (*Synopsis, error) {
	iopt, err := opt.internal()
	if err != nil {
		return nil, err
	}
	s, err := core.Build(t.inner, iopt)
	if err != nil {
		return nil, err
	}
	return &Synopsis{inner: s, schema: t.schema()}, nil
}

// BuildAuto constructs the synopsis matching the table's dimensionality:
// Build for one predicate column, BuildMulti otherwise. It is the
// loading path the CLIs and the passd server share.
func BuildAuto(t *Table, opt Options) (*Synopsis, error) {
	if t.Dims() == 1 {
		return Build(t, opt)
	}
	return BuildMulti(t, opt)
}

// BuildMulti constructs a multi-dimensional synopsis (k-d partition tree,
// Section 4.4 of the paper).
func BuildMulti(t *Table, opt Options) (*Synopsis, error) {
	iopt, err := opt.internal()
	if err != nil {
		return nil, err
	}
	s, err := core.BuildKD(t.inner, iopt)
	if err != nil {
		return nil, err
	}
	return &Synopsis{inner: s, schema: t.schema()}, nil
}

// schema derives the SQL-resolution schema from the table's column names
// and attached dictionaries.
func (t *Table) schema() sqlfe.Schema {
	s := sqlfe.SchemaFromColNames(t.inner.ColNames)
	if len(t.dicts) > 0 {
		s.Dicts = make(map[string]*dataset.Dict, len(t.dicts))
		for k, v := range t.dicts {
			s.Dicts[k] = v
		}
	}
	return s
}

// Save writes the synopsis, 1D or multi-dimensional, exactly as it is in
// memory. Column names are not persisted; call SetSchema after
// LoadSynopsis to run SQL.
func (s *Synopsis) Save(w io.Writer) error { return s.inner.Save(w) }

// LoadSynopsis restores a synopsis written by Save. The result answers
// every query bit for bit like the saved one, and a 1D synopsis takes
// further Insert/Delete calls exactly as the saved one would have.
func LoadSynopsis(r io.Reader) (*Synopsis, error) {
	inner, err := core.Load(r)
	if err != nil {
		return nil, err
	}
	return &Synopsis{inner: inner}, nil
}

// Query answers an aggregate with per-column range predicates. Missing
// trailing ranges are unconstrained.
func (s *Synopsis) Query(agg Agg, pred ...Range) (Answer, error) {
	kind, err := agg.internal()
	if err != nil {
		return Answer{}, err
	}
	r, err := s.inner.Query(kind, toRect(pred))
	if err != nil {
		return Answer{}, err
	}
	if r.NoMatch {
		return Answer{}, ErrNoMatch
	}
	return answerFromResult(r, s.inner.N()), nil
}

// Request is one query of a batched workload: an aggregate plus per-column
// range predicates (missing trailing ranges are unconstrained).
type Request struct {
	Agg  Agg
	Pred []Range
}

// BatchAnswer is the outcome of one batched Request.
type BatchAnswer struct {
	Answer Answer
	// Err carries the per-query failure, if any (ErrNoMatch included);
	// other queries in the batch are unaffected.
	Err error
}

// QueryBatch answers a workload of queries, fanning them across a bounded
// worker pool (one worker per CPU). Answers are returned in input order
// and are identical to issuing the same queries sequentially via Query.
// See the package documentation for the concurrency guarantees.
func (s *Synopsis) QueryBatch(reqs []Request) []BatchAnswer {
	out := make([]BatchAnswer, len(reqs))
	qs := make([]core.BatchQuery, 0, len(reqs))
	idx := make([]int, 0, len(reqs))
	for i, req := range reqs {
		kind, err := req.Agg.internal()
		if err != nil {
			out[i].Err = err
			continue
		}
		qs = append(qs, core.BatchQuery{Kind: kind, Rect: toRect(req.Pred)})
		idx = append(idx, i)
	}
	for j, br := range s.inner.QueryBatch(qs) {
		i := idx[j]
		if br.Err != nil {
			out[i].Err = br.Err
			continue
		}
		if br.Result.NoMatch {
			out[i].Err = ErrNoMatch
			continue
		}
		out[i].Answer = answerFromResult(br.Result, s.inner.N())
	}
	return out
}

// Sum answers SUM(agg) WHERE pred.
func (s *Synopsis) Sum(pred ...Range) (Answer, error) { return s.Query(Sum, pred...) }

// Count answers COUNT(*) WHERE pred.
func (s *Synopsis) Count(pred ...Range) (Answer, error) { return s.Query(Count, pred...) }

// Avg answers AVG(agg) WHERE pred.
func (s *Synopsis) Avg(pred ...Range) (Answer, error) { return s.Query(Avg, pred...) }

// MinQ answers MIN(agg) WHERE pred.
func (s *Synopsis) MinQ(pred ...Range) (Answer, error) { return s.Query(Min, pred...) }

// MaxQ answers MAX(agg) WHERE pred.
func (s *Synopsis) MaxQ(pred ...Range) (Answer, error) { return s.Query(Max, pred...) }

// Insert adds one tuple to a 1D synopsis, maintaining tree statistics and
// the stratified samples via reservoir sampling.
func (s *Synopsis) Insert(pred []float64, agg float64) error {
	return s.inner.Insert(pred, agg)
}

// Delete removes one tuple from a 1D synopsis. SUM/COUNT stay exact;
// MIN/MAX bounds remain conservative.
func (s *Synopsis) Delete(pred []float64, agg float64) error {
	return s.inner.Delete(pred, agg)
}

// Leaves returns the number of leaf strata.
func (s *Synopsis) Leaves() int { return s.inner.NumLeaves() }

// Samples returns the total stored sample count.
func (s *Synopsis) Samples() int { return s.inner.TotalSamples() }

// MemoryBytes estimates synopsis storage (aggregates + samples).
func (s *Synopsis) MemoryBytes() int { return s.inner.MemoryBytes() }

// BuildSeconds reports the construction wall-clock time.
func (s *Synopsis) BuildSeconds() float64 { return s.inner.BuildTime.Seconds() }

// answerFromResult converts an internal query result to the public Answer
// shape; n is the base-table cardinality for skip-rate accounting.
func answerFromResult(r core.Result, n int) Answer {
	return Answer{
		Estimate:       r.Estimate,
		CIHalf:         r.CIHalf,
		HardLo:         r.HardLo,
		HardHi:         r.HardHi,
		HardBounds:     r.HardValid,
		Exact:          r.Exact,
		TuplesRead:     r.TuplesRead,
		SkipRate:       r.SkipRate(n),
		Degraded:       r.Degraded,
		ShardsTotal:    r.ShardsTotal,
		ShardsAnswered: r.ShardsAnswered,
	}
}

// groupAnswers converts per-group internal results, rendering labels
// through the grouping column's dictionary when present.
func groupAnswers(res []core.GroupResult, dict *dataset.Dict, n int) []GroupAnswer {
	out := make([]GroupAnswer, len(res))
	for i, gr := range res {
		ga := GroupAnswer{Group: gr.Group, NoMatch: gr.Result.NoMatch}
		if dict != nil {
			if label, err := dict.Value(gr.Group); err == nil {
				ga.Label = label
			}
		}
		if !gr.Result.NoMatch {
			ga.Answer = answerFromResult(gr.Result, n)
		}
		out[i] = ga
	}
	return out
}

func toRect(pred []Range) dataset.Rect {
	lo := make([]float64, len(pred))
	hi := make([]float64, len(pred))
	for i, p := range pred {
		lo[i], hi[i] = p.Lo, p.Hi
	}
	return dataset.Rect{Lo: lo, Hi: hi}
}
