// Package audit continuously verifies the accuracy guarantees the serving
// layer advertises: it taps a sampled fraction of completed queries,
// re-executes them against exact ground truth, and records CI-coverage
// rates, relative-error distributions, and hard-bound violations per
// (table, aggregate) onto the metrics registry. A companion SLO monitor
// turns coverage and tail latency into error budgets with breach alerts.
//
// The tap runs under the table's read lock, so the hot-path cost is one
// atomic sampling decision; everything else happens on a background
// worker fed through a bounded queue (overflow drops are counted, never
// blocked on). Ground truth is racy by nature — rows keep arriving and
// engines get swapped under the auditor — so every sample carries the
// table generation it executed at, and the exact re-execution is only
// scored when the generation still matches; anything else is counted as
// stale and skipped rather than misattributed.
package audit

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/obs"
	"repro/internal/sketch"
)

// ErrStale reports that the table's ground truth changed between the
// sampled query and the exact re-execution, so the sample cannot be
// scored soundly.
var ErrStale = errors.New("audit: ground truth changed under the sampled query")

// ExactFn re-executes one aggregate exactly against a table's ground
// truth, returning the truth and the table generation it was computed at.
// Implementations return ErrStale when the generation moved mid-read.
type ExactFn func(kind dataset.AggKind, q dataset.Rect) (truth float64, gen uint64, err error)

// SketchTruth is the exact ground truth for one sketch-family audit
// sample; only the field matching the audited kind is set.
type SketchTruth struct {
	// Distinct is the exact distinct count (KindDistinct).
	Distinct float64
	// Counts holds the exact occurrence count of each requested value,
	// aligned by index with the values passed to the SketchExactFn
	// (KindTopK).
	Counts []float64
}

// SketchExactFn re-executes one sketch-family aggregate exactly against
// a table's ground truth. For KindTopK, values lists the heavy-hitter
// values whose exact counts are requested. Implementations return
// ErrStale when the generation moved mid-read. KindQuantile is never
// requested: exact quantile truth needs a full sort of the base rows,
// too expensive for a continuous audit, so quantile answers are skipped
// under the pass_audit_sketch_skipped_total counter instead.
type SketchExactFn func(q sketch.Query, values []float64) (truth SketchTruth, gen uint64, err error)

// RelErrBuckets are the relative-error histogram bounds: 0.01% to 100%.
var RelErrBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
	0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1,
}

// Config parameterizes an Auditor.
type Config struct {
	// SampleFraction is the probability a completed query is audited
	// (clamped to [0,1]; 0 audits nothing but keeps the tap attached).
	SampleFraction float64
	// QueueSize bounds the pending-sample queue (default 256).
	QueueSize int
	// Interval is the background worker's drain cadence (default 1s).
	Interval time.Duration
	// Confidence is the nominal CI confidence level being audited
	// against, for reporting only (default 0.99).
	Confidence float64
	// Registry receives the audit instruments (nil uses obs.Default()).
	Registry *obs.Registry
}

// Key identifies one audited stream: table, aggregate kind, and whether
// the answers were degraded (partial scatter answers are scored
// separately so sound widening is visible, not averaged away).
type Key struct {
	Table    string          `json:"table"`
	Kind     dataset.AggKind `json:"-"`
	Degraded bool            `json:"degraded"`
	// Sketch is the sketch-family aggregate of a sketch stream (zero for
	// scalar streams, whose aggregate is Kind).
	Sketch sketch.Kind `json:"-"`
}

// AggLabel returns the stream's aggregate label the way SQL spells it:
// the sketch kind for sketch-family streams, the scalar kind otherwise.
func (k Key) AggLabel() string {
	if k.Sketch != 0 {
		return k.Sketch.String()
	}
	return k.Kind.String()
}

// Stat is a point-in-time snapshot of one audited stream.
type Stat struct {
	// Audited counts scored samples; Covered counts those whose exact
	// truth fell inside the estimate's confidence interval.
	Audited, Covered int64
	// HardViolations counts samples whose truth escaped the
	// deterministic hard bounds — each one disproves a guarantee.
	HardViolations int64
	// RelErrSum accumulates relative errors (mean = RelErrSum/Audited).
	RelErrSum float64
}

// Coverage returns the empirical CI-coverage rate (1 when nothing was
// audited yet, so an idle stream never looks breached).
func (s Stat) Coverage() float64 {
	if s.Audited == 0 {
		return 1
	}
	return float64(s.Covered) / float64(s.Audited)
}

// sample is one queued audit candidate. The rect is deep-copied at
// enqueue time: the caller's slices are reused by the query path.
type sample struct {
	key Key
	q   dataset.Rect
	r   core.Result
	gen uint64

	// sq/sr replace q/r for sketch-family samples (sq non-nil).
	sq *sketch.Query
	sr sketch.Result
}

// stream is the per-Key accounting plus its registry instruments.
type stream struct {
	stat     Stat
	audited  *obs.Counter
	covered  *obs.Counter
	hardViol *obs.Counter
	relErr   *obs.Histogram
}

// Auditor is the background accuracy auditor. Create with New, feed it
// completed queries via Observe (cheap, lock-safe), and either Start a
// background worker or call Flush synchronously (tests, benchmarks).
type Auditor struct {
	cfg     Config
	reg     *obs.Registry
	queue   chan sample
	seq     atomic.Uint64 // sampling-decision state
	skipped atomic.Int64  // per-auditor sketch-skip count (the registry counter is process-wide)

	mu            sync.Mutex
	sources       map[string]ExactFn
	sketchSources map[string]SketchExactFn
	streams       map[Key]*stream

	enqueued      *obs.Counter
	dropped       *obs.Counter
	stale         *obs.Counter
	sketchSkipped *obs.Counter

	started  atomic.Bool
	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
}

// New builds an Auditor; it does not start the background worker.
func New(cfg Config) *Auditor {
	if cfg.QueueSize <= 0 {
		cfg.QueueSize = 256
	}
	if cfg.Interval <= 0 {
		cfg.Interval = time.Second
	}
	if cfg.Confidence <= 0 || cfg.Confidence >= 1 {
		cfg.Confidence = 0.99
	}
	if cfg.SampleFraction < 0 {
		cfg.SampleFraction = 0
	} else if cfg.SampleFraction > 1 {
		cfg.SampleFraction = 1
	}
	reg := cfg.Registry
	if reg == nil {
		reg = obs.Default()
	}
	a := &Auditor{
		cfg:           cfg,
		reg:           reg,
		queue:         make(chan sample, cfg.QueueSize),
		sources:       make(map[string]ExactFn),
		sketchSources: make(map[string]SketchExactFn),
		streams:       make(map[Key]*stream),
		enqueued:      reg.NewCounter("pass_audit_enqueued_total", "queries sampled for accuracy auditing"),
		dropped:       reg.NewCounter("pass_audit_dropped_total", "audit samples dropped on queue overflow"),
		stale:         reg.NewCounter("pass_audit_stale_total", "audit samples skipped because ground truth moved"),
		sketchSkipped: reg.NewLabeledCounter("pass_audit_sketch_skipped_total", obs.Labels("kind", "QUANTILE"),
			"sampled sketch answers skipped because exact truth is too expensive to recompute"),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	reg.GaugeFunc("pass_audit_queue_depth", "audit samples awaiting exact re-execution",
		func() float64 { return float64(len(a.queue)) })
	return a
}

// Confidence reports the nominal CI confidence level audited against.
func (a *Auditor) Confidence() float64 { return a.cfg.Confidence }

// SampleFraction reports the configured audit sampling fraction.
func (a *Auditor) SampleFraction() float64 { return a.cfg.SampleFraction }

// RegisterSource wires a table's exact re-execution hook. Re-registering
// replaces; tables without a source are observed but never scored.
func (a *Auditor) RegisterSource(table string, fn ExactFn) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if fn == nil {
		delete(a.sources, table)
		return
	}
	a.sources[table] = fn
}

// RegisterSketchSource wires a table's exact sketch re-execution hook.
// Re-registering replaces; tables without one are observed but never
// scored.
func (a *Auditor) RegisterSketchSource(table string, fn SketchExactFn) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if fn == nil {
		delete(a.sketchSources, table)
		return
	}
	a.sketchSources[table] = fn
}

// ForgetSource detaches a table's exact re-execution hooks.
func (a *Auditor) ForgetSource(table string) {
	a.RegisterSource(table, nil)
	a.RegisterSketchSource(table, nil)
}

// Observe feeds one completed query to the auditor. Called under the
// table's read lock: the fast path is one atomic add plus a splitmix
// hash; selected samples deep-copy the rect and enqueue without
// blocking (overflow increments the dropped counter).
func (a *Auditor) Observe(table string, kind dataset.AggKind, q dataset.Rect, r core.Result, gen uint64) {
	if r.NoMatch {
		return // no defined truth to compare against
	}
	if !a.sampled() {
		return
	}
	s := sample{
		key: Key{Table: table, Kind: kind, Degraded: r.Degraded},
		q:   dataset.Rect{Lo: append([]float64(nil), q.Lo...), Hi: append([]float64(nil), q.Hi...)},
		r:   r,
		gen: gen,
	}
	select {
	case a.queue <- s:
		a.enqueued.Inc()
	default:
		a.dropped.Inc()
	}
}

// ObserveSketch feeds one completed sketch-family query to the auditor
// (same contract as Observe: called under the table's read lock, cheap
// fast path, non-blocking enqueue). QUANTILE answers are skipped under
// a labeled counter rather than mis-scored — their exact truth needs a
// full sort of the base rows, too expensive for a continuous audit.
func (a *Auditor) ObserveSketch(table string, q sketch.Query, r sketch.Result, gen uint64) {
	if !a.sampled() {
		return
	}
	if q.Kind == sketch.KindQuantile {
		a.sketchSkipped.Inc()
		a.skipped.Add(1)
		return
	}
	s := sample{
		key: Key{Table: table, Sketch: q.Kind},
		sq:  &q,
		sr:  r,
		gen: gen,
	}
	select {
	case a.queue <- s:
		a.enqueued.Inc()
	default:
		a.dropped.Inc()
	}
}

// sampled makes one audit sampling decision: a deterministic per-auditor
// hash of a sequence number, so the query path never consults a locked
// RNG.
func (a *Auditor) sampled() bool {
	f := a.cfg.SampleFraction
	if f <= 0 {
		return false
	}
	if f >= 1 {
		return true
	}
	h := splitmix64(a.seq.Add(1))
	return float64(h>>11)/(1<<53) < f
}

// Start launches the background worker draining the queue at the
// configured cadence. Call at most once.
func (a *Auditor) Start() {
	if !a.started.CompareAndSwap(false, true) {
		return
	}
	go func() {
		defer close(a.done)
		t := time.NewTicker(a.cfg.Interval)
		defer t.Stop()
		for {
			select {
			case <-a.stop:
				a.Flush()
				return
			case <-t.C:
				a.Flush()
			}
		}
	}()
}

// Stop halts the worker after a final drain. Safe to call multiple
// times, and without Start.
func (a *Auditor) Stop() {
	a.stopOnce.Do(func() { close(a.stop) })
	if a.started.Load() {
		<-a.done
	}
}

// Flush synchronously drains and scores every currently queued sample.
// Tests and benchmarks call it directly instead of Start.
func (a *Auditor) Flush() {
	for {
		select {
		case s := <-a.queue:
			a.process(s)
		default:
			return
		}
	}
}

// process scores one sample against exact ground truth.
func (a *Auditor) process(s sample) {
	if s.sq != nil {
		a.processSketch(s)
		return
	}
	a.mu.Lock()
	fn := a.sources[s.key.Table]
	a.mu.Unlock()
	if fn == nil {
		return
	}
	truth, gen, err := fn(s.key.Kind, s.q)
	if err != nil {
		a.stale.Inc()
		return
	}
	// Sound scoring requires the truth to describe the same data the
	// estimate saw: identical generation, and an even reading (odd means
	// an update was mid-flight on either side).
	if gen != s.gen || gen%2 != 0 {
		a.stale.Inc()
		return
	}
	tol := 1e-9 * max(1, absf(truth))
	covered := absf(truth-s.r.Estimate) <= s.r.CIHalf+tol
	hardViolated := s.r.HardValid && (truth < s.r.HardLo-tol || truth > s.r.HardHi+tol)
	a.score(s.key, covered, hardViolated, s.r.RelativeError(truth))
}

// processSketch scores one sketch-family sample: COUNT DISTINCT against
// its 3-sigma interval, TOPK entry counts against their hard per-entry
// error bounds.
func (a *Auditor) processSketch(s sample) {
	a.mu.Lock()
	fn := a.sketchSources[s.key.Table]
	a.mu.Unlock()
	if fn == nil {
		return
	}
	var values []float64
	if s.sq.Kind == sketch.KindTopK {
		values = make([]float64, len(s.sr.Entries))
		for i, e := range s.sr.Entries {
			values[i] = e.Value
		}
	}
	truth, gen, err := fn(*s.sq, values)
	if err != nil {
		a.stale.Inc()
		return
	}
	if gen != s.gen || gen%2 != 0 {
		a.stale.Inc()
		return
	}
	var covered, hardViolated bool
	var relErr float64
	switch s.sq.Kind {
	case sketch.KindDistinct:
		tol := 1e-9 * max(1, truth.Distinct)
		covered = truth.Distinct >= s.sr.Lo-tol && truth.Distinct <= s.sr.Hi+tol
		relErr = absf(s.sr.Value-truth.Distinct) / max(1, truth.Distinct)
	case sketch.KindTopK:
		covered = true
		for i, e := range s.sr.Entries {
			d := absf(e.Count - truth.Counts[i])
			if d > e.ErrBound+1e-9*max(1, truth.Counts[i]) {
				covered, hardViolated = false, true
			}
			if re := d / max(1, truth.Counts[i]); re > relErr {
				relErr = re
			}
		}
	default:
		return
	}
	a.score(s.key, covered, hardViolated, relErr)
}

// score folds one audited sample into its stream's accounting and
// registry instruments.
func (a *Auditor) score(key Key, covered, hardViolated bool, relErr float64) {
	st := a.streamFor(key)
	a.mu.Lock()
	st.stat.Audited++
	if covered {
		st.stat.Covered++
	}
	if hardViolated {
		st.stat.HardViolations++
	}
	st.stat.RelErrSum += relErr
	a.mu.Unlock()

	st.audited.Inc()
	if covered {
		st.covered.Inc()
	}
	if hardViolated {
		st.hardViol.Inc()
	}
	st.relErr.Observe(relErr)
}

// streamFor returns (creating on first use) the per-Key accounting and
// its labeled registry instruments.
func (a *Auditor) streamFor(k Key) *stream {
	a.mu.Lock()
	defer a.mu.Unlock()
	if st, ok := a.streams[k]; ok {
		return st
	}
	degraded := "false"
	if k.Degraded {
		degraded = "true"
	}
	labels := obs.Labels("table", k.Table, "agg", k.AggLabel(), "degraded", degraded)
	st := &stream{
		audited:  a.reg.NewLabeledCounter("pass_audit_audited_total", labels, "audited queries scored against exact truth"),
		covered:  a.reg.NewLabeledCounter("pass_audit_covered_total", labels, "audited queries whose CI contained the exact truth"),
		hardViol: a.reg.NewLabeledCounter("pass_audit_hard_violations_total", labels, "audited queries whose truth escaped the hard bounds"),
		relErr:   a.reg.NewLabeledHistogram("pass_audit_rel_error", labels, "relative error of audited estimates", RelErrBuckets),
	}
	a.streams[k] = st
	return st
}

// Stats snapshots every audited stream.
func (a *Auditor) Stats() map[Key]Stat {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make(map[Key]Stat, len(a.streams))
	for k, st := range a.streams {
		out[k] = st.stat
	}
	return out
}

// Dropped reports how many samples overflowed the queue.
func (a *Auditor) Dropped() int64 { return a.dropped.Value() }

// Stale reports how many samples were skipped as stale.
func (a *Auditor) Stale() int64 { return a.stale.Value() }

// SketchSkipped reports how many sampled sketch answers this auditor
// skipped because exact truth is too expensive to recompute (QUANTILE).
func (a *Auditor) SketchSkipped() int64 { return a.skipped.Load() }

// splitmix64 is the SplitMix64 mixing function — a full-avalanche hash
// used for the per-query sampling decision.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func absf(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
