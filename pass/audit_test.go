package pass

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// newAuditSession builds an adaptive session with the audit layer in
// manual mode (scoring happens on AuditFlush only).
func newAuditSession(t *testing.T, fraction float64) *Session {
	t.Helper()
	sess := NewSession()
	if err := sess.EnableAdaptive(AdaptiveConfig{}); err != nil {
		t.Fatal(err)
	}
	if err := sess.EnableAudit(AuditConfig{SampleFraction: fraction, QueueSize: 8192, Manual: true}); err != nil {
		t.Fatal(err)
	}
	if err := sess.CreateTable("t", adaptiveTestTable(6000), Options{Partitions: 32, SampleRate: 0.02, Seed: 7}, 1); err != nil {
		t.Fatal(err)
	}
	return sess
}

// TestAuditTwinIdentical is the audit-path twin: an audited session must
// answer every statement bit-for-bit like an unaudited one over the same
// build — the tap must never perturb results.
func TestAuditTwinIdentical(t *testing.T) {
	audited := newAuditSession(t, 1)
	plain := NewSession()
	syn, err := Build(adaptiveTestTable(6000), Options{Partitions: 32, SampleRate: 0.02, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if err := plain.Register("t", syn); err != nil {
		t.Fatal(err)
	}

	var stmts []string
	for i := 0; i < 40; i++ {
		stmts = append(stmts, hotSQL(i))
		stmts = append(stmts, fmt.Sprintf("SELECT COUNT(*) FROM t WHERE x BETWEEN %d AND %d", i*37, i*37+900))
		stmts = append(stmts, fmt.Sprintf("SELECT AVG(v) FROM t WHERE x BETWEEN %d AND %d", i*11, i*11+1500))
	}
	got := audited.ExecBatch(stmts)
	want := plain.ExecBatch(stmts)
	for i := range stmts {
		if (got[i].Err == nil) != (want[i].Err == nil) {
			t.Fatalf("stmt %d: err %v vs %v", i, got[i].Err, want[i].Err)
		}
		if got[i].Err != nil {
			continue
		}
		g, w := got[i].Result.Scalar, want[i].Result.Scalar
		if g.Estimate != w.Estimate || g.CIHalf != w.CIHalf ||
			g.HardLo != w.HardLo || g.HardHi != w.HardHi || g.Exact != w.Exact {
			t.Fatalf("stmt %d (%s): audited %+v vs plain %+v", i, stmts[i], g, w)
		}
	}

	audited.AuditFlush()
	rep, ok := audited.AuditReport()
	if !ok {
		t.Fatal("AuditReport must be available")
	}
	var total, covered, hardViol int64
	for _, st := range rep.Streams {
		total += st.Audited
		covered += st.Covered
		hardViol += st.HardViolations
	}
	if total == 0 {
		t.Fatal("fraction-1 audit scored nothing")
	}
	if hardViol != 0 {
		t.Fatalf("hard-bound violations on a consistent table: %+v", rep.Streams)
	}
	if cov := float64(covered) / float64(total); cov < 0.9 {
		t.Fatalf("empirical coverage %.3f over %d audits, want >= 0.9 at 0.99 nominal", cov, total)
	}

	// The per-table summary surfaces on Tables too.
	infos := audited.Tables()
	if len(infos) != 1 || infos[0].Audit == nil || infos[0].Audit.Audited == 0 {
		t.Fatalf("TableInfo.Audit missing: %+v", infos)
	}
	if plainInfos := plain.Tables(); plainInfos[0].Audit != nil {
		t.Fatal("unaudited session must not report audit info")
	}
}

// TestAuditRaceUnderWritesAndSwaps hammers queries, inserts, engine
// swaps (Reoptimize), audit flushes and report reads concurrently
// (meaningful under -race). Stale samples must be skipped, never
// misscored — hard violations stay zero throughout.
func TestAuditRaceUnderWritesAndSwaps(t *testing.T) {
	sess := newAuditSession(t, 1)
	var wg sync.WaitGroup
	stopIns := make(chan struct{})
	wg.Add(4)
	go func() {
		defer wg.Done()
		for i := 0; i < 60; i++ {
			if _, err := sess.Exec(hotSQL(i)); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		defer close(stopIns)
		for i := 0; i < 300; i++ {
			if err := sess.Insert("t", []float64{float64(6000 + i)}, float64(i)); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 3; i++ {
			if _, err := sess.Reoptimize("t"); err != nil {
				t.Error(err)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()
	go func() {
		defer wg.Done()
		for {
			sess.AuditFlush()
			sess.Tables()
			if _, ok := sess.AuditReport(); !ok {
				t.Error("report vanished")
				return
			}
			select {
			case <-stopIns:
				return
			default:
			}
		}
	}()
	wg.Wait()
	sess.AuditFlush()
	rep, _ := sess.AuditReport()
	for _, st := range rep.Streams {
		if st.HardViolations != 0 {
			t.Fatalf("hard violations under concurrent writes: %+v", st)
		}
	}
}

// TestAuditSLOWiring checks the session-level SLO surface end to end
// with manual evaluation.
func TestAuditSLOWiring(t *testing.T) {
	sess := NewSession()
	if err := sess.EnableAdaptive(AdaptiveConfig{}); err != nil {
		t.Fatal(err)
	}
	if err := sess.EnableAudit(AuditConfig{
		SampleFraction: 1, QueueSize: 8192, Manual: true,
		SLOCoverage: 0.5, SLOMinEvents: 5, SLOWindowTicks: 4,
	}); err != nil {
		t.Fatal(err)
	}
	if err := sess.EnableAudit(AuditConfig{}); err == nil {
		t.Fatal("double EnableAudit must fail")
	}
	if err := sess.CreateTable("t", adaptiveTestTable(6000), Options{Partitions: 32, SampleRate: 0.02, Seed: 7}, 1); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		if _, err := sess.Exec(hotSQL(i)); err != nil {
			t.Fatal(err)
		}
	}
	sess.AuditFlush()
	sess.SLOEvaluate()
	st, ok := sess.SLOStatus()
	if !ok {
		t.Fatal("SLO armed but no status")
	}
	if st.Breached {
		t.Fatalf("healthy run breached 0.5 coverage target: %+v", st)
	}
	rep, _ := sess.AuditReport()
	if rep.SLO == nil || rep.SLO.Evaluations == 0 {
		t.Fatalf("report must carry the SLO verdict: %+v", rep.SLO)
	}
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
}

// benchSession builds a session for the overhead pair; audit < 0 means
// no audit layer at all, 0 means tap attached with sampling off.
func benchSession(tb testing.TB, auditFraction float64) *Session {
	tb.Helper()
	sess := NewSession()
	if err := sess.EnableAdaptive(AdaptiveConfig{}); err != nil {
		tb.Fatal(err)
	}
	if auditFraction >= 0 {
		f := auditFraction
		if f == 0 {
			f = -1 // explicit zero: tap attached, nothing sampled
		}
		if err := sess.EnableAudit(AuditConfig{SampleFraction: f, Manual: true}); err != nil {
			tb.Fatal(err)
		}
	}
	tbl := NewTable([]string{"x"}, "v")
	for i := 0; i < 20000; i++ {
		tbl.Append([]float64{float64(i)}, float64(i%97))
	}
	if err := sess.CreateTable("t", tbl, Options{Partitions: 64, SampleRate: 0.01, Seed: 3}, 1); err != nil {
		tb.Fatal(err)
	}
	return sess
}

const benchStmt = "SELECT SUM(v) FROM t WHERE x BETWEEN 1000 AND 18000"

func benchExec(b *testing.B, sess *Session) {
	b.Helper()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sess.Exec(benchStmt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExecAuditOff is the no-audit-layer side of the idle-tap pair,
// kept for profiling.
func BenchmarkExecAuditOff(b *testing.B) {
	benchExec(b, benchSession(b, -1))
}

// BenchmarkExecAuditIdle measures the tap on un-audited queries: audit
// layer on, sampling fraction zero. TestIdleAuditTapAllocatesNothing
// pins its allocations.
func BenchmarkExecAuditIdle(b *testing.B) {
	benchExec(b, benchSession(b, 0))
}

// TestIdleAuditTapAllocatesNothing: with the audit layer on and nothing
// sampled, Exec allocates exactly as much as without the audit layer —
// the tap's fast path is a generation load, an atomic add and a hash.
func TestIdleAuditTapAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	allocs := func(sess *Session) float64 {
		return testing.AllocsPerRun(200, func() {
			if _, err := sess.Exec(benchStmt); err != nil {
				t.Fatal(err)
			}
		})
	}
	off, idle := allocs(benchSession(t, -1)), allocs(benchSession(t, 0))
	if idle != off {
		t.Fatalf("Exec allocates %v per run with an idle audit tap, %v without the audit layer", idle, off)
	}
}

// TestAuditSketchAnswers covers the sketch-family audit path: COUNT
// DISTINCT and TOPK answers are re-executed exactly against the retained
// base rows (any hard violation would disprove a sketch guarantee),
// while QUANTILE answers are skipped under the labeled counter rather
// than mis-scored.
func TestAuditSketchAnswers(t *testing.T) {
	sess := newAuditSession(t, 1)
	stmts := []string{
		"SELECT COUNT(DISTINCT v) FROM t",
		"SELECT TOPK(v, 4) FROM t",
		"SELECT QUANTILE(v, 0.5) FROM t",
	}
	for _, sr := range sess.ExecBatch(stmts) {
		if sr.Err != nil {
			t.Fatalf("%s: %v", sr.SQL, sr.Err)
		}
		if sr.Result.Sketch == nil {
			t.Fatalf("%s: no sketch answer", sr.SQL)
		}
	}
	sess.AuditFlush()
	rep, ok := sess.AuditReport()
	if !ok {
		t.Fatal("AuditReport must be available")
	}
	byAgg := map[string]AuditStream{}
	for _, st := range rep.Streams {
		byAgg[st.Agg] = st
	}
	for _, agg := range []string{"COUNT DISTINCT", "TOPK"} {
		st, found := byAgg[agg]
		if !found {
			t.Fatalf("no %s audit stream: %+v", agg, rep.Streams)
		}
		if st.Audited != 1 || st.Covered != 1 || st.HardViolations != 0 {
			t.Fatalf("%s stream mis-scored: %+v", agg, st)
		}
	}
	if _, found := byAgg["QUANTILE"]; found {
		t.Fatal("QUANTILE must be label-skipped, never scored")
	}
	if rep.SketchSkipped != 1 {
		t.Fatalf("SketchSkipped = %d, want 1", rep.SketchSkipped)
	}
}
