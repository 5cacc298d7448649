package bench

import (
	"fmt"
	"math"
	"sort"

	"repro/pass"
)

// AuditExp validates the continuous accuracy auditor empirically: a
// skewed hot-range workload (the AdaptiveExp shape — 80% of statements
// from four fixed ranges, SUM/COUNT/AVG mixed) runs with the audit
// fraction pinned to 1, so every answer is re-executed exactly against
// the retained base rows. The report is the auditor's own scoreboard —
// per-aggregate audited counts, empirical CI coverage against the
// nominal 1−α, mean relative error, and hard-bound violations — plus an
// ALL summary row CI gates on: coverage must reach the nominal level
// (the paper's CIs are conservative, so empirical coverage sits at or
// above it) and hard-bound violations must be zero.
func AuditExp(cfg Config) []Table {
	cfg = cfg.Defaults()
	const nominal = 0.99 // Options.Confidence default, audited against

	tbl := pass.DemoTaxi(cfg.Rows, 1, cfg.Seed)
	hot := [][2]float64{{1.5, 7.25}, {9.1, 12.6}, {15.3, 19.8}, {4.4, 21.7}}
	aggs := []string{"SUM(trip_distance)", "COUNT(*)", "AVG(trip_distance)"}
	rng := newSplitMix(cfg.Seed + 0xad17)
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
		agg := aggs[int(rng.next()%uint64(len(aggs)))]
		stmts = append(stmts, fmt.Sprintf("SELECT %s FROM taxi WHERE pickup_time BETWEEN %g AND %g", agg, lo, hi))
	}

	sess := pass.NewSession()
	if err := sess.EnableAdaptive(pass.AdaptiveConfig{}); err != nil {
		panic(err)
	}
	if err := sess.EnableAudit(pass.AuditConfig{
		SampleFraction: 1, QueueSize: cfg.Queries + 16, Manual: true,
	}); err != nil {
		panic(err)
	}
	// 128 partitions at a 10% sample keep the per-leaf variance estimates
	// honest: at thin samples (the 0.5% other experiments use) partial
	// leaves with no matching sample tuples report zero-width CIs the
	// auditor rightly scores as misses, and empirical coverage lands far
	// below nominal
	if err := sess.RegisterAdaptive("taxi", tbl,
		pass.Options{Partitions: 128, SampleRate: 0.1, Seed: cfg.Seed}, 1); err != nil {
		panic(err)
	}
	for _, sr := range sess.ExecBatch(stmts) {
		if sr.Err != nil && sr.Err != pass.ErrNoMatch {
			panic(sr.Err)
		}
	}
	sess.AuditFlush()
	rep, ok := sess.AuditReport()
	if !ok {
		panic("bench: audit report unavailable after EnableAudit")
	}

	out := Table{
		Title: fmt.Sprintf("Continuous accuracy audit: skewed workload (%d rows, %d queries, fraction 1.0)",
			tbl.Len(), cfg.Queries),
		Header: []string{"Stream", "Audited", "Coverage", "Nominal", "MeanRelErr", "HardViol"},
	}
	sort.Slice(rep.Streams, func(i, j int) bool { return rep.Streams[i].Agg < rep.Streams[j].Agg })
	var audited, covered, hardViol int64
	var relErrSum float64
	for _, st := range rep.Streams {
		out.AddRow(st.Agg, fmt.Sprintf("%d", st.Audited), ratio(st.Coverage),
			ratio(nominal), ratio(st.MeanRelErr), fmt.Sprintf("%d", st.HardViolations))
		audited += st.Audited
		covered += st.Covered
		hardViol += st.HardViolations
		relErrSum += st.MeanRelErr * float64(st.Audited)
	}
	allCov, allRel := 0.0, 0.0
	if audited > 0 {
		allCov = float64(covered) / float64(audited)
		allRel = relErrSum / float64(audited)
	}
	out.AddRow("ALL", fmt.Sprintf("%d", audited), ratio(allCov),
		ratio(nominal), ratio(allRel), fmt.Sprintf("%d", hardViol))
	out.Note = fmt.Sprintf(
		"empirical CI coverage vs nominal %.2f (conservative CIs sit at or above it); dropped=%d stale=%d",
		nominal, rep.Dropped, rep.Stale)
	return []Table{out}
}
