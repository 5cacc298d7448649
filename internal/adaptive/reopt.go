package adaptive

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/partition"
)

// ErrNoSource is returned by a RebuildFunc for tables whose base data is
// not retained (e.g. tables warm-started from a snapshot): their
// workload is still collected, but the synopsis cannot be
// re-partitioned without the rows it summarises. The re-optimizer treats
// it as a skip, not a failure.
var ErrNoSource = errors.New("adaptive: table has no retained data source")

// RebuildFunc rebuilds one table's synopsis with the given forced
// partition boundaries and hot-swaps it into serving — the serving
// layer's side of the loop (pass.Session.rebuildTable). It must be safe
// to call concurrently with queries and updates.
type RebuildFunc func(table string, bs []partition.Boundary) error

// ReoptConfig tunes the re-optimization loop. The zero value disables
// the background goroutine but leaves manual triggering available.
type ReoptConfig struct {
	// Interval is the background scan period; non-positive disables the
	// goroutine (ReoptimizeNow still works).
	Interval time.Duration
	// MinWindow is the minimum number of observed queries before a table
	// is considered (default 64): rebuilding on a handful of queries
	// optimises for noise.
	MinWindow int
	// DriftThreshold is the Drift level that triggers a rebuild (default
	// 0.25: a quarter of recent traffic repeats ranges the partitioning
	// does not answer exactly).
	DriftThreshold float64
	// MaxBoundaries caps the forced boundaries per rebuild (default 16).
	// It should stay well under the partition budget, leaving room for
	// the equal-depth refinement between the forced cuts.
	MaxBoundaries int
	// Logf receives decision diagnostics. Default: discard.
	Logf func(format string, args ...any)
}

func (c ReoptConfig) withDefaults() ReoptConfig {
	if c.MinWindow <= 0 {
		c.MinWindow = 64
	}
	if c.DriftThreshold <= 0 {
		c.DriftThreshold = 0.25
	}
	if c.MaxBoundaries <= 0 {
		c.MaxBoundaries = 16
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// Outcome describes one re-optimization decision.
type Outcome struct {
	// Rebuilt reports whether the synopsis was rebuilt and swapped.
	Rebuilt bool `json:"rebuilt"`
	// Reason explains the decision (skip reasons included).
	Reason string `json:"reason"`
	// Drift is the measured workload drift at decision time.
	Drift float64 `json:"drift"`
	// Boundaries is how many forced boundaries the rebuild used.
	Boundaries int `json:"boundaries,omitempty"`
}

// Status is the per-table re-optimization history surfaced to operators
// (GET /tables in passd).
type Status struct {
	// Rebuilds counts completed rebuilds since startup.
	Rebuilds int `json:"rebuilds"`
	// LastReopt is when the last rebuild completed (zero if never).
	LastReopt time.Time `json:"last_reopt,omitempty"`
	// LastDrift is the drift measured at the last decision.
	LastDrift float64 `json:"last_drift"`
	// LastOutcome is the Reason of the last decision.
	LastOutcome string `json:"last_outcome,omitempty"`
}

// Reoptimizer periodically scores every observed table's partitioning
// against its query window and rebuilds the drifted ones through the
// serving layer's RebuildFunc. One rebuild runs at a time (rebuilds are
// construction-priced); decisions and history are queryable per table.
type Reoptimizer struct {
	col     *Collector
	cfg     ReoptConfig
	rebuild RebuildFunc

	mu     sync.Mutex
	status map[string]*Status
	// lastSig remembers the boundary signature last applied per table, so
	// an unchanged workload never triggers back-to-back identical rebuilds.
	lastSig map[string]string

	startOnce sync.Once
	stopOnce  sync.Once
	stop      chan struct{}
	done      chan struct{}
}

// NewReoptimizer wires a re-optimizer over a collector and the serving
// layer's rebuild hook. Call Start to launch the background loop.
func NewReoptimizer(col *Collector, cfg ReoptConfig, rebuild RebuildFunc) *Reoptimizer {
	return &Reoptimizer{
		col:     col,
		cfg:     cfg.withDefaults(),
		rebuild: rebuild,
		status:  make(map[string]*Status),
		lastSig: make(map[string]string),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
}

// Start launches the background scan loop; it is a no-op when the
// configured Interval is non-positive, and idempotent otherwise.
func (r *Reoptimizer) Start() {
	r.startOnce.Do(func() {
		if r.cfg.Interval <= 0 {
			close(r.done)
			return
		}
		go r.run()
	})
}

// Stop terminates the background loop and waits for it to exit. Safe to
// call whether or not Start ran.
func (r *Reoptimizer) Stop() {
	r.stopOnce.Do(func() { close(r.stop) })
	r.startOnce.Do(func() { close(r.done) })
	<-r.done
}

func (r *Reoptimizer) run() {
	defer close(r.done)
	ticker := time.NewTicker(r.cfg.Interval)
	defer ticker.Stop()
	for {
		select {
		case <-r.stop:
			return
		case <-ticker.C:
			for _, table := range r.col.Tables() {
				out, err := r.consider(table, false)
				switch {
				case err != nil:
					r.cfg.Logf("adaptive: re-optimize table %q: %v", table, err)
				case out.Rebuilt:
					r.cfg.Logf("adaptive: re-optimized table %q (drift %.2f, %d boundaries)",
						table, out.Drift, out.Boundaries)
				}
			}
		}
	}
}

// ReoptimizeNow forces a re-optimization decision for one table,
// bypassing the drift threshold and window minimum (passd's manual
// trigger). The error is non-nil only when a rebuild was attempted and
// failed; skips are reported through the outcome's Reason.
func (r *Reoptimizer) ReoptimizeNow(table string) (Outcome, error) {
	return r.consider(table, true)
}

// consider makes one decision for one table; force bypasses the window
// and drift gates but never the no-boundaries or unchanged-signature
// ones (a forced rebuild onto the same boundaries would be a no-op
// rebuild at full construction price). The error is non-nil only when a
// rebuild was attempted and failed.
func (r *Reoptimizer) consider(table string, force bool) (Outcome, error) {
	window := r.col.Window(table)
	drift := Drift(window)
	out := Outcome{Drift: drift}
	if !force && len(window) < r.cfg.MinWindow {
		out.Reason = fmt.Sprintf("window %d below minimum %d", len(window), r.cfg.MinWindow)
		return r.record(table, out), nil
	}
	if !force && drift < r.cfg.DriftThreshold {
		out.Reason = fmt.Sprintf("drift %.2f below threshold %.2f", drift, r.cfg.DriftThreshold)
		return r.record(table, out), nil
	}
	bs := Boundaries(window, r.cfg.MaxBoundaries)
	if len(bs) == 0 {
		out.Reason = "no repeated query endpoints in window"
		return r.record(table, out), nil
	}
	sig := signature(bs)
	r.mu.Lock()
	unchanged := r.lastSig[table] == sig
	r.mu.Unlock()
	if unchanged {
		out.Reason = "workload boundaries unchanged since last rebuild"
		return r.record(table, out), nil
	}
	if err := r.rebuild(table, bs); err != nil {
		if errors.Is(err, ErrNoSource) {
			out.Reason = "no retained data source (warm-started table?)"
			return r.record(table, out), nil
		}
		out.Reason = "rebuild failed: " + err.Error()
		return r.record(table, out), fmt.Errorf("adaptive: rebuild table %q: %w", table, err)
	}
	out.Rebuilt = true
	out.Boundaries = len(bs)
	out.Reason = fmt.Sprintf("rebuilt with %d workload boundaries (drift %.2f)", len(bs), drift)
	r.mu.Lock()
	r.lastSig[table] = sig
	r.mu.Unlock()
	// restart the drift signal from post-rebuild traffic
	r.col.Reset(table)
	return r.record(table, out), nil
}

// record folds an outcome into the table's status.
func (r *Reoptimizer) record(table string, out Outcome) Outcome {
	r.mu.Lock()
	defer r.mu.Unlock()
	st, ok := r.status[table]
	if !ok {
		st = &Status{}
		r.status[table] = st
	}
	st.LastDrift = out.Drift
	st.LastOutcome = out.Reason
	if out.Rebuilt {
		st.Rebuilds++
		st.LastReopt = time.Now()
	}
	return out
}

// Status returns the table's re-optimization history (zero value if the
// table was never considered).
func (r *Reoptimizer) Status(table string) Status {
	r.mu.Lock()
	defer r.mu.Unlock()
	if st, ok := r.status[table]; ok {
		return *st
	}
	return Status{}
}

// Forget drops per-table decision state (dropped tables).
func (r *Reoptimizer) Forget(table string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.status, table)
	delete(r.lastSig, table)
}

// signature renders a boundary set order-independently for the
// unchanged-workload check.
func signature(bs []partition.Boundary) string {
	sorted := append([]partition.Boundary(nil), bs...)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].Value != sorted[j].Value {
			return sorted[i].Value < sorted[j].Value
		}
		return !sorted[i].After && sorted[j].After
	})
	s := ""
	for _, b := range sorted {
		side := "<"
		if b.After {
			side = ">"
		}
		s += fmt.Sprintf("%s%x;", side, b.Value)
	}
	return s
}
