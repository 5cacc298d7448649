package pass

// Continuous accuracy auditing: a Session with EnableAudit on taps every
// completed scalar query (the same catalog recorder hook the adaptive
// collector uses), samples a configured fraction, and re-executes the
// sampled queries exactly against the retained base rows that
// RegisterAdaptive keeps in lockstep with the serving engine. The audit
// scores CI coverage, relative error, and hard-bound violations per
// (table, aggregate, degraded) stream onto the obs registry, and an
// optional SLO monitor turns coverage plus tail latency into error
// budgets with breach alerts (see internal/audit).
//
// The tap composes with — not replaces — the adaptive collector: the
// catalog's single recorder slot receives a chain that forwards to the
// workload collector first and the auditor second, so enabling the
// auditor never perturbs statistics or answers.

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"repro/internal/audit"
	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/obs"
	"repro/internal/sketch"
)

// AuditConfig tunes the session's accuracy-audit layer. The zero value
// audits 10% of queries on a 1s cadence with no SLO objectives.
type AuditConfig struct {
	// SampleFraction is the probability a completed query is audited
	// (default 0.1; clamped to [0,1]; negative means 0 — the tap stays
	// attached, useful for measuring its idle overhead, but nothing is
	// sampled).
	SampleFraction float64
	// Interval is the background scoring cadence (default 1s).
	Interval time.Duration
	// QueueSize bounds pending samples (default 256; overflow drops).
	QueueSize int
	// Confidence is the nominal CI confidence audited against, for
	// reporting (default 0.99 — Options.Confidence's default).
	Confidence float64

	// SLOCoverage, when positive, arms the per-table coverage objective
	// (e.g. 0.95: empirical CI coverage must stay at or above 95%).
	SLOCoverage float64
	// SLOP99, when positive, arms the latency objective: at most 1% of
	// queries may run longer than this.
	SLOP99 time.Duration
	// SLOInterval is the SLO evaluation cadence (default 5s);
	// SLOWindowTicks how many evaluations the budget window spans
	// (default 60); SLOMinEvents the floor below which an objective
	// cannot breach (default 20).
	SLOInterval    time.Duration
	SLOWindowTicks int
	SLOMinEvents   int64
	// AlertLog receives one structured slo_alert JSON line per budget
	// breach/recovery transition (nil disables).
	AlertLog io.Writer

	// Manual disables the background workers: samples are scored only on
	// AuditFlush and budgets only on SLOEvaluate. For tests.
	Manual bool
}

// auditRuntime is the session's audit state.
type auditRuntime struct {
	aud *audit.Auditor
	mon *audit.Monitor // nil when no SLO objective is armed
}

// EnableAudit turns on continuous accuracy auditing (and, with a target
// configured, SLO error budgets). Enable it at boot, alongside
// EnableAdaptive — tables registered through RegisterAdaptive become
// auditable (their retained rows are the exact ground truth); other
// tables are tapped but never scored. It cannot be enabled twice.
func (s *Session) EnableAudit(cfg AuditConfig) error {
	if s.audit != nil {
		return fmt.Errorf("pass: session already has the audit layer enabled")
	}
	if cfg.SampleFraction == 0 {
		cfg.SampleFraction = 0.1
	}
	if cfg.SampleFraction < 0 {
		cfg.SampleFraction = 0
	}
	rt := &auditRuntime{
		aud: audit.New(audit.Config{
			SampleFraction: cfg.SampleFraction,
			QueueSize:      cfg.QueueSize,
			Interval:       cfg.Interval,
			Confidence:     cfg.Confidence,
		}),
	}
	if cfg.SLOCoverage > 0 || cfg.SLOP99 > 0 {
		var log *obs.JSONLog
		if cfg.AlertLog != nil {
			log = obs.NewJSONLog(cfg.AlertLog)
		}
		rt.mon = audit.NewMonitor(rt.aud, queryDuration, audit.SLOConfig{
			CoverageTarget: cfg.SLOCoverage,
			P99Target:      cfg.SLOP99,
			WindowTicks:    cfg.SLOWindowTicks,
			MinEvents:      cfg.SLOMinEvents,
			Log:            log,
		})
	}
	s.audit = rt

	// Existing tables get the tap; existing adaptive sources become
	// auditable ground truth.
	for _, tbl := range s.cat.List() {
		s.attachHooks(tbl)
	}
	if s.adaptive != nil {
		s.adaptive.mu.Lock()
		names := make([]string, 0, len(s.adaptive.sources))
		for name := range s.adaptive.sources {
			names = append(names, name)
		}
		s.adaptive.mu.Unlock()
		for _, name := range names {
			if tbl, err := s.cat.Lookup(name); err == nil {
				s.auditAttachSource(tbl)
			}
		}
	}

	if !cfg.Manual {
		rt.aud.Start()
		if rt.mon != nil {
			rt.mon.Start(cfg.SLOInterval)
		}
	}
	return nil
}

// Audited reports whether the audit layer is enabled.
func (s *Session) Audited() bool { return s.audit != nil }

// AuditFlush synchronously scores every queued audit sample — the
// deterministic alternative to waiting out the worker cadence.
func (s *Session) AuditFlush() {
	if s.audit != nil {
		s.audit.aud.Flush()
	}
}

// SLOEvaluate forces one SLO budget evaluation now (no-op without an
// armed objective).
func (s *Session) SLOEvaluate() {
	if s.audit != nil && s.audit.mon != nil {
		s.audit.mon.Evaluate()
	}
}

// SLOStatus reports the latest SLO verdict; ok is false when no SLO
// objective is armed.
func (s *Session) SLOStatus() (audit.SLOStatus, bool) {
	if s.audit == nil || s.audit.mon == nil {
		return audit.SLOStatus{}, false
	}
	return s.audit.mon.Status(), true
}

// auditStop halts the audit workers (Session.Close).
func (s *Session) auditStop() {
	if s.audit == nil {
		return
	}
	if s.audit.mon != nil {
		s.audit.mon.Stop()
	}
	s.audit.aud.Stop()
}

// attachHooks wires the catalog recorder chain under a table: the
// adaptive collector first, wrapped by the audit tap when the audit layer
// is on. Both layers are optional; with neither enabled this is a no-op.
func (s *Session) attachHooks(tbl *catalog.Table) {
	var rec catalog.QueryRecorder
	if s.adaptive != nil {
		rec = s.adaptive.col
	}
	if s.audit != nil {
		rec = &auditTap{aud: s.audit.aud, next: rec}
	}
	if rec == nil {
		return
	}
	tbl.AttachAdaptive(rec)
}

// auditTap is the per-table recorder shim: it forwards every observation
// to the adaptive collector unchanged, then offers it to the auditor
// under the generation stamp the catalog took around the engine call. It
// runs under the table's read lock — the auditor's fast path is one
// atomic hash, and a selected sample a non-blocking enqueue — so the tap
// never perturbs answers or contends with traffic.
type auditTap struct {
	aud  *audit.Auditor
	next catalog.QueryRecorder
}

func (t *auditTap) ObserveQuery(table string, kind dataset.AggKind, q dataset.Rect, r core.Result, n int, elapsed time.Duration, gen uint64) {
	if t.next != nil {
		t.next.ObserveQuery(table, kind, q, r, n, elapsed, gen)
	}
	t.aud.Observe(table, kind, q, r, gen)
}

// ObserveSketch makes the tap a catalog.SketchRecorder: sketch-family
// answers (QUANTILE, COUNT DISTINCT, TOPK) reach the auditor with the
// generation stamp the catalog took around the engine call, as for
// ObserveQuery.
func (t *auditTap) ObserveSketch(table string, q sketch.Query, r sketch.Result, gen uint64) {
	if next, ok := t.next.(catalog.SketchRecorder); ok {
		next.ObserveSketch(table, q, r, gen)
	}
	t.aud.ObserveSketch(table, q, r, gen)
}

// auditAttachSource wires a table's retained base rows as the auditor's
// exact ground truth. The re-execution races live traffic by design:
// the generation is read on both sides of the exact scan, and any
// movement (or an odd in-flight reading) reports ErrStale so the sample
// is skipped rather than misscored.
func (s *Session) auditAttachSource(tbl *catalog.Table) {
	if s.audit == nil || s.adaptive == nil {
		return
	}
	rt := s.adaptive
	rt.mu.Lock()
	src := rt.sources[strings.ToLower(tbl.Name())]
	rt.mu.Unlock()
	if src == nil {
		return
	}
	s.audit.aud.RegisterSource(tbl.Name(), func(kind dataset.AggKind, q dataset.Rect) (float64, uint64, error) {
		gen := tbl.Gen()
		if gen%2 != 0 {
			return 0, 0, audit.ErrStale
		}
		src.mu.Lock()
		truth, err := src.data.Exact(kind, q)
		src.mu.Unlock()
		if err != nil {
			return 0, 0, err
		}
		if tbl.Gen() != gen {
			return 0, 0, audit.ErrStale
		}
		return truth, gen, nil
	})
	// Sketch answers are audited exactly where that is one cheap pass
	// over the retained rows: COUNT DISTINCT (hash the column) and the
	// counts of the TOPK values the answer returned. QUANTILE never
	// reaches this hook — the auditor label-skips it (exact quantile
	// truth needs a full sort).
	s.audit.aud.RegisterSketchSource(tbl.Name(), func(q sketch.Query, values []float64) (audit.SketchTruth, uint64, error) {
		gen := tbl.Gen()
		if gen%2 != 0 {
			return audit.SketchTruth{}, 0, audit.ErrStale
		}
		var truth audit.SketchTruth
		src.mu.Lock()
		switch q.Kind {
		case sketch.KindDistinct:
			seen := make(map[float64]struct{}, 1024)
			for _, v := range src.data.Agg {
				seen[v] = struct{}{}
			}
			truth.Distinct = float64(len(seen))
		case sketch.KindTopK:
			truth.Counts = make([]float64, len(values))
			for _, v := range src.data.Agg {
				for i, want := range values {
					if v == want {
						truth.Counts[i]++
					}
				}
			}
		}
		src.mu.Unlock()
		if tbl.Gen() != gen {
			return audit.SketchTruth{}, 0, audit.ErrStale
		}
		return truth, gen, nil
	})
}

// auditForget clears a dropped table's audit state.
func (s *Session) auditForget(name string) {
	if s.audit != nil {
		s.audit.aud.ForgetSource(name)
	}
}

// AuditInfo is the per-table audit summary surfaced by Tables and
// passd's GET /tables. Degraded (partial scatter) answers are scored
// separately: their CIs are widened by design, and folding them in
// would mask a coverage regression on the healthy path.
type AuditInfo struct {
	// Audited/Covered/Coverage score non-degraded answers: how many were
	// re-executed exactly, and how often the CI contained the truth.
	Audited  int64   `json:"audited"`
	Covered  int64   `json:"covered"`
	Coverage float64 `json:"coverage"`
	// HardViolations counts answers whose exact truth escaped the
	// deterministic hard bounds — any nonzero value disproves a guarantee.
	HardViolations int64 `json:"hard_violations"`
	// MeanRelErr is the mean relative error of audited estimates.
	MeanRelErr float64 `json:"mean_rel_err"`
	// DegradedAudited/DegradedCovered score degraded answers.
	DegradedAudited int64 `json:"degraded_audited,omitempty"`
	DegradedCovered int64 `json:"degraded_covered,omitempty"`
}

// auditInfo assembles one table's AuditInfo (nil when the layer is off).
func (s *Session) auditInfo(name string) *AuditInfo {
	if s.audit == nil {
		return nil
	}
	info := &AuditInfo{Coverage: 1}
	for k, st := range s.audit.aud.Stats() {
		if k.Table != name {
			continue
		}
		if k.Degraded {
			info.DegradedAudited += st.Audited
			info.DegradedCovered += st.Covered
			continue
		}
		info.Audited += st.Audited
		info.Covered += st.Covered
		info.HardViolations += st.HardViolations
		info.MeanRelErr += st.RelErrSum
	}
	if info.Audited > 0 {
		info.Coverage = float64(info.Covered) / float64(info.Audited)
		info.MeanRelErr /= float64(info.Audited)
	} else {
		info.MeanRelErr = 0
	}
	return info
}

// AuditStream is one (table, aggregate, degraded) audit stream in an
// AuditReport.
type AuditStream struct {
	Table          string  `json:"table"`
	Agg            string  `json:"agg"`
	Degraded       bool    `json:"degraded,omitempty"`
	Audited        int64   `json:"audited"`
	Covered        int64   `json:"covered"`
	Coverage       float64 `json:"coverage"`
	HardViolations int64   `json:"hard_violations"`
	MeanRelErr     float64 `json:"mean_rel_err"`
}

// AuditReport is the full audit state surfaced by passd's GET /audit.
type AuditReport struct {
	// SampleFraction and Confidence echo the configuration; Nominal is
	// the coverage the CIs promise (== Confidence).
	SampleFraction float64 `json:"sample_fraction"`
	Confidence     float64 `json:"confidence"`
	// Dropped counts samples lost to queue overflow, Stale the ones
	// skipped because ground truth moved mid-audit, SketchSkipped the
	// sampled sketch answers (QUANTILE) whose exact truth is too
	// expensive to recompute.
	Dropped       int64 `json:"dropped"`
	Stale         int64 `json:"stale"`
	SketchSkipped int64 `json:"sketch_skipped,omitempty"`
	// Streams lists every audited stream, sorted by table/agg/degraded.
	Streams []AuditStream `json:"streams"`
	// SLO is the current budget verdict (absent without objectives).
	SLO *audit.SLOStatus `json:"slo,omitempty"`
}

// AuditReport snapshots the audit layer; ok is false when it is off.
func (s *Session) AuditReport() (AuditReport, bool) {
	if s.audit == nil {
		return AuditReport{}, false
	}
	a := s.audit.aud
	rep := AuditReport{
		SampleFraction: a.SampleFraction(),
		Confidence:     a.Confidence(),
		Dropped:        a.Dropped(),
		Stale:          a.Stale(),
		SketchSkipped:  a.SketchSkipped(),
		Streams:        []AuditStream{},
	}
	for k, st := range a.Stats() {
		stream := AuditStream{
			Table:          k.Table,
			Agg:            k.AggLabel(),
			Degraded:       k.Degraded,
			Audited:        st.Audited,
			Covered:        st.Covered,
			Coverage:       st.Coverage(),
			HardViolations: st.HardViolations,
		}
		if st.Audited > 0 {
			stream.MeanRelErr = st.RelErrSum / float64(st.Audited)
		}
		rep.Streams = append(rep.Streams, stream)
	}
	sort.Slice(rep.Streams, func(i, j int) bool {
		a, b := rep.Streams[i], rep.Streams[j]
		if a.Table != b.Table {
			return a.Table < b.Table
		}
		if a.Agg != b.Agg {
			return a.Agg < b.Agg
		}
		return !a.Degraded && b.Degraded
	})
	if st, ok := s.SLOStatus(); ok {
		rep.SLO = &st
	}
	return rep, true
}
