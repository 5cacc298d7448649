package bench

import (
	"fmt"
	"math"
	"time"

	"repro/pass"
)

// AdaptiveExp measures what re-optimization buys on a skewed
// repeated-range workload: the same hot-range workload is replayed
// against one session before and after Session.Reoptimize. The rebuild
// forces partition boundaries onto the observed query endpoints, so the
// hot ranges flip from sampled estimates to exact answers — higher
// exact-hit fraction, lower mean CI width.
//
// The experiment asserts nothing — it reports; the twin guarantees live
// in the pass and passd test suites.
func AdaptiveExp(cfg Config) []Table {
	cfg = cfg.Defaults()
	const parts = 64
	const rate = 0.005

	// a skewed workload: 80% of statements draw from a handful of hot
	// ranges, 20% are one-off random ranges
	tbl := pass.DemoTaxi(cfg.Rows, 1, cfg.Seed)
	hot := [][2]float64{{1.5, 7.25}, {9.1, 12.6}, {15.3, 19.8}, {4.4, 21.7}}
	rng := newSplitMix(cfg.Seed + 0xada)
	stmts := make([]string, 0, cfg.Queries)
	for i := 0; i < cfg.Queries; i++ {
		var lo, hi float64
		if rng.next()%10 < 8 {
			r := hot[int(rng.next()%uint64(len(hot)))]
			lo, hi = r[0], r[1]
		} else {
			a := 24 * rng.float64()
			b := 24 * rng.float64()
			lo, hi = math.Min(a, b), math.Max(a, b)
		}
		stmts = append(stmts, fmt.Sprintf("SELECT SUM(trip_distance) FROM taxi WHERE pickup_time BETWEEN %g AND %g", lo, hi))
	}

	opt := pass.Options{Partitions: parts, SampleRate: rate, Seed: cfg.Seed}
	sess := pass.NewSession()
	if err := sess.EnableAdaptive(pass.AdaptiveConfig{}); err != nil {
		panic(err)
	}
	if err := sess.RegisterAdaptive("taxi", tbl, opt, 1); err != nil {
		panic(err)
	}

	type phase struct {
		name      string
		exactFrac float64
		meanCI    float64
		wall      time.Duration
		qps       float64
	}
	run := func() phase {
		// min-of-3 timing: single sub-millisecond passes jitter
		var wall time.Duration
		var res []pass.StmtResult
		for rep := 0; rep < 3; rep++ {
			start := time.Now()
			res = sess.ExecBatch(stmts)
			if w := time.Since(start); rep == 0 || w < wall {
				wall = w
			}
		}
		var exact int
		var ci float64
		for _, sr := range res {
			if sr.Err != nil {
				continue
			}
			if sr.Result.Scalar.Exact {
				exact++
			}
			ci += sr.Result.Scalar.CIHalf
		}
		return phase{
			exactFrac: float64(exact) / float64(len(stmts)),
			meanCI:    ci / float64(len(stmts)),
			wall:      wall,
			qps:       float64(len(stmts)) / wall.Seconds(),
		}
	}

	before := run()
	before.name = "before reoptimize"
	out, err := sess.Reoptimize("taxi")
	if err != nil {
		panic(err)
	}
	after := run()
	after.name = "after reoptimize"

	t := Table{
		Title: fmt.Sprintf("Workload-adaptive serving: skewed workload (%d rows, %d queries, 80%% hot ranges)",
			tbl.Len(), cfg.Queries),
		Header: []string{"Phase", "ExactFrac", "MeanCIHalf", "Wall", "QPS"},
	}
	for _, p := range []phase{before, after} {
		t.AddRow(p.name, fmt.Sprintf("%.3f", p.exactFrac), fmt.Sprintf("%.3f", p.meanCI),
			ms(p.wall), fmt.Sprintf("%.0f", p.qps))
	}
	note := "reoptimize: " + out.Reason
	if before.meanCI > 0 {
		note += fmt.Sprintf("; CI width %.2fx tighter", before.meanCI/math.Max(after.meanCI, 1e-12))
	}
	t.Note = note
	return []Table{t}
}

// splitMix is a tiny deterministic PRNG for workload synthesis, so the
// experiment does not depend on internal/stats seeding details.
type splitMix struct{ s uint64 }

func newSplitMix(seed uint64) *splitMix { return &splitMix{s: seed} }

func (r *splitMix) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *splitMix) float64() float64 {
	return float64(r.next()>>11) / float64(1<<53)
}
