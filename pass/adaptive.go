package pass

// Workload-adaptive serving: a Session with EnableAdaptive on collects
// per-table query statistics (internal/adaptive.Collector) and
// re-optimizes drifted tables in the background — rebuilding the synopsis
// with partition boundaries forced onto the workload's hot query
// endpoints and hot-swapping it under the catalog's table lock, then
// persisting the new synopsis through the attached store.
//
// Rebuilds need the base rows, which a built synopsis does not retain:
// CreateTable in an adaptive session keeps a private copy of a 1-D
// table's rows, held in lockstep with the serving engine via the
// catalog's update observer, so a rebuild always starts from exactly the
// rows the engine summarises, and goes through the same builder as the
// first build. Tables registered through the plain Register paths (and
// tables warm-started from snapshots, whose rows exist only inside the
// synopsis) still get statistics, but skip re-optimization.

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/adaptive"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/partition"
)

// AdaptiveConfig tunes the session's workload-adaptive layer. The zero
// value enables statistics with manual-only re-optimization; set
// ReoptInterval for the background loop. The window size and the rebuild
// gates keep adaptive.NewCollector's and adaptive.ReoptConfig's defaults.
type AdaptiveConfig struct {
	// ReoptInterval is the background re-optimization scan period;
	// non-positive means manual triggering only (Session.Reoptimize).
	ReoptInterval time.Duration
	// Logf receives re-optimization diagnostics (default: discard).
	Logf func(format string, args ...any)
}

// adaptiveRuntime is the session's adaptive state.
type adaptiveRuntime struct {
	col   *adaptive.Collector
	reopt *adaptive.Reoptimizer

	mu      sync.Mutex
	sources map[string]*tableSource // key: lower-cased table name
}

// tableSource is the retained base data of one adaptive table, kept in
// lockstep with the serving engine through the catalog update observer.
type tableSource struct {
	mu   sync.Mutex
	data *dataset.Dataset
	// opt and shards are what the table was built with; a rebuild adds
	// the forced boundaries to opt.
	opt core.Options
	// shards is the shard count the table serves with (1 = unsharded).
	shards int
	// persisted records whether the table is in the durable store, so a
	// rebuilt engine is re-snapshotted the same way.
	persisted bool
	// capturing/deltas buffer updates that land while a rebuild is in
	// flight, applied to the new engine inside the swap (under the
	// table's exclusive lock) so no acknowledged update is lost.
	capturing bool
	deltas    []deltaOp
}

type deltaOp struct {
	point []float64
	value float64
	del   bool
}

// ObserveInsert keeps the retained rows in lockstep with the engine; it
// runs under the table's update lock (catalog.UpdateObserver).
func (src *tableSource) ObserveInsert(point []float64, value float64) {
	src.mu.Lock()
	defer src.mu.Unlock()
	src.data.Append(point, value)
	if src.capturing {
		src.deltas = append(src.deltas, deltaOp{point: append([]float64(nil), point...), value: value})
	}
}

// ObserveDelete removes the first retained row matching the tuple.
func (src *tableSource) ObserveDelete(point []float64, value float64) {
	src.mu.Lock()
	defer src.mu.Unlock()
	removeRow(src.data, point, value)
	if src.capturing {
		src.deltas = append(src.deltas, deltaOp{point: append([]float64(nil), point...), value: value, del: true})
	}
}

// removeRow deletes the first tuple equal to (point, value) by swapping
// the last row in — order is irrelevant, every build sorts.
func removeRow(d *dataset.Dataset, point []float64, value float64) {
	n := d.N()
search:
	for i := 0; i < n; i++ {
		if d.Agg[i] != value {
			continue
		}
		for c := 0; c < d.Dims() && c < len(point); c++ {
			if d.Pred[c][i] != point[c] {
				continue search
			}
		}
		last := n - 1
		for c := 0; c < d.Dims(); c++ {
			d.Pred[c][i] = d.Pred[c][last]
			d.Pred[c] = d.Pred[c][:last]
		}
		d.Agg[i] = d.Agg[last]
		d.Agg = d.Agg[:last]
		return
	}
}

// EnableAdaptive turns on the workload-adaptive layer: statistics
// collection for every current and future table, and
// (with a positive ReoptInterval) background re-optimization of 1-D
// tables created through CreateTable. Enable before registering tables
// or attaching a store; it cannot be enabled twice.
func (s *Session) EnableAdaptive(cfg AdaptiveConfig) error {
	if s.adaptive != nil {
		return fmt.Errorf("pass: session already has the adaptive layer enabled")
	}
	rt := &adaptiveRuntime{
		col:     adaptive.NewCollector(0),
		sources: make(map[string]*tableSource),
	}
	rt.reopt = adaptive.NewReoptimizer(rt.col, adaptive.ReoptConfig{
		Interval: cfg.ReoptInterval,
		Logf:     cfg.Logf,
	}, s.rebuildTable)
	s.adaptive = rt
	for _, tbl := range s.cat.List() {
		s.attachHooks(tbl)
	}
	rt.reopt.Start()
	return nil
}

// ErrBuild tags a CreateTable call that could not build a synopsis from
// the rows and options it was given — a caller's mistake, not a serving
// fault — so serving layers can map it to a client error.
var ErrBuild = errors.New("pass: cannot build synopsis")

// Adaptive reports whether the adaptive layer is enabled.
func (s *Session) Adaptive() bool { return s.adaptive != nil }

// keepRows retains data — a private copy of a 1-D table's rows — as the
// table's rebuild source, with the options and shard count it was built
// with, and keeps it in lockstep with the engine through the catalog's
// update observer.
func (s *Session) keepRows(name string, data *dataset.Dataset, opt core.Options, shards int) error {
	tbl, err := s.cat.Lookup(name)
	if err != nil {
		return err
	}
	src := &tableSource{data: data, opt: opt, shards: shards, persisted: s.store != nil}
	rt := s.adaptive
	rt.mu.Lock()
	rt.sources[strings.ToLower(name)] = src
	rt.mu.Unlock()
	tbl.AttachObserver(src)
	s.auditAttachSource(tbl)
	return nil
}

// Reoptimize forces a re-optimization decision for one table now,
// bypassing the drift threshold: if the observed window yields workload
// boundaries that differ from the last rebuild, the synopsis is rebuilt
// and hot-swapped. The outcome reports what happened either way.
func (s *Session) Reoptimize(table string) (adaptive.Outcome, error) {
	if s.adaptive == nil {
		return adaptive.Outcome{}, fmt.Errorf("pass: session has no adaptive layer (EnableAdaptive)")
	}
	tbl, err := s.cat.Lookup(table)
	if err != nil {
		return adaptive.Outcome{}, err
	}
	return s.adaptive.reopt.ReoptimizeNow(tbl.Name())
}

// rebuildTable is the Reoptimizer's rebuild hook: construct a new
// synopsis over the retained rows with the forced boundaries, apply any
// updates that landed during construction, hot-swap it under the table's
// exclusive lock, and re-persist.
func (s *Session) rebuildTable(table string, bs []partition.Boundary) error {
	rt := s.adaptive
	rt.mu.Lock()
	src := rt.sources[strings.ToLower(table)]
	rt.mu.Unlock()
	if src == nil {
		return adaptive.ErrNoSource
	}
	tbl, err := s.cat.Lookup(table)
	if err != nil {
		return err
	}

	// snapshot the rows and start capturing concurrent updates; the
	// observer keeps data in lockstep under the table's update lock, so
	// every update is either in the clone or in the delta buffer
	src.mu.Lock()
	data := src.data.Clone()
	src.capturing = true
	src.deltas = nil
	opt, shards := src.opt, src.shards
	src.mu.Unlock()
	stopCapture := func() {
		src.mu.Lock()
		src.capturing = false
		src.deltas = nil
		src.mu.Unlock()
	}

	opt.ForceBoundaries = bs
	newEng, err := buildEngine(data, opt, shards)
	if err != nil {
		stopCapture()
		return err
	}
	s.applyScatterMode(newEng)

	// swap under the exclusive lock: no update can interleave, so after
	// the captured deltas are replayed the new engine holds exactly the
	// rows the old one did
	err = tbl.SwapEngine(func(engine.Engine) (engine.Engine, error) {
		src.mu.Lock()
		defer src.mu.Unlock()
		defer func() { src.capturing = false; src.deltas = nil }()
		if len(src.deltas) > 0 {
			u, ok := engine.Underlying(newEng).(engine.Updatable)
			if !ok {
				return nil, fmt.Errorf("pass: %d updates landed during rebuild but engine %s is not updatable", len(src.deltas), newEng.Name())
			}
			for _, d := range src.deltas {
				var aerr error
				if d.del {
					aerr = u.Delete(d.point, d.value)
				} else {
					aerr = u.Insert(d.point, d.value)
				}
				if aerr != nil {
					return nil, fmt.Errorf("pass: replay update captured during rebuild: %w", aerr)
				}
			}
		}
		return newEng, nil
	})
	if err != nil {
		stopCapture()
		return err
	}

	// persist the rebuilt synopsis through the store. A crash before this
	// completes recovers the pre-rebuild snapshot + WAL — a consistent
	// (merely unoptimized) state; the re-optimizer will fire again.
	if s.store != nil && src.persisted {
		if err := s.store.SaveSharded(tbl); err != nil {
			return fmt.Errorf("pass: persist rebuilt table %q: %w", table, err)
		}
	}
	return nil
}

// AdaptiveInfo is the per-table adaptive state surfaced by Tables and
// passd's GET /tables.
type AdaptiveInfo struct {
	// WindowQueries and TotalQueries count observed queries (sliding
	// window / lifetime).
	WindowQueries int   `json:"window_queries"`
	TotalQueries  int64 `json:"total_queries"`
	// ExactFrac is the fraction of window queries answered exactly;
	// MeanRelCI the mean relative CI half-width of the inexact ones.
	ExactFrac float64 `json:"exact_frac"`
	MeanRelCI float64 `json:"mean_rel_ci"`
	// Rebuildable reports whether the table retains base data for
	// workload-driven rebuilds (CreateTable, 1D only).
	Rebuildable bool `json:"rebuildable"`
	// Rebuilds, LastReopt, LastDrift and LastOutcome summarise
	// re-optimization history.
	Rebuilds    int       `json:"rebuilds"`
	LastReopt   time.Time `json:"last_reopt,omitzero"`
	LastDrift   float64   `json:"last_drift"`
	LastOutcome string    `json:"last_outcome,omitempty"`
}

// adaptiveInfo assembles one table's AdaptiveInfo (nil when the layer is
// off).
func (s *Session) adaptiveInfo(name string) *AdaptiveInfo {
	rt := s.adaptive
	if rt == nil {
		return nil
	}
	info := &AdaptiveInfo{}
	if st, ok := rt.col.Stats(name); ok {
		info.WindowQueries = st.Window
		info.TotalQueries = st.Total
		info.ExactFrac = st.ExactFrac
		info.MeanRelCI = st.MeanRelCI
	}
	rt.mu.Lock()
	_, info.Rebuildable = rt.sources[strings.ToLower(name)]
	rt.mu.Unlock()
	st := rt.reopt.Status(name)
	info.Rebuilds = st.Rebuilds
	info.LastReopt = st.LastReopt
	info.LastDrift = st.LastDrift
	info.LastOutcome = st.LastOutcome
	return info
}

// adaptiveForget clears all adaptive state of a dropped table.
func (s *Session) adaptiveForget(name string) {
	rt := s.adaptive
	if rt == nil {
		return
	}
	rt.col.Forget(name)
	rt.reopt.Forget(name)
	rt.mu.Lock()
	delete(rt.sources, strings.ToLower(name))
	rt.mu.Unlock()
}
