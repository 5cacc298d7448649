package pass

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

// planCacheStmts is a workload of repeated shapes with varying literals —
// the case the plan cache collapses onto a handful of templates.
func planCacheStmts() []string {
	var stmts []string
	for i := 0; i < 8; i++ {
		stmts = append(stmts,
			hotSQL(i),
			"SELECT COUNT(*) FROM t WHERE x >= 900",
			"SELECT AVG(v) FROM t WHERE x BETWEEN 100 AND 4000",
			"SELECT MIN(v) FROM t WHERE x <= 2500",
			"SELECT MAX(v) FROM t WHERE x BETWEEN 9 AND 5990",
		)
	}
	return stmts
}

// comparePlans asserts two sessions answer every statement identically to
// 1e-12 — the plan-cache twin guarantee.
func comparePlans(t *testing.T, round string, cached, plain *Session, stmts []string) {
	t.Helper()
	got := cached.ExecBatch(stmts)
	want := plain.ExecBatch(stmts)
	for i := range stmts {
		if (got[i].Err == nil) != (want[i].Err == nil) {
			t.Fatalf("%s stmt %d: err %v vs %v", round, i, got[i].Err, want[i].Err)
		}
		if got[i].Err != nil {
			continue
		}
		g, w := got[i].Result.Scalar, want[i].Result.Scalar
		if math.Abs(g.Estimate-w.Estimate) > 1e-12 || math.Abs(g.CIHalf-w.CIHalf) > 1e-12 ||
			g.Exact != w.Exact || math.Abs(g.HardLo-w.HardLo) > 1e-12 || math.Abs(g.HardHi-w.HardHi) > 1e-12 {
			t.Fatalf("%s stmt %d (%s): cached %+v vs uncached %+v", round, i, stmts[i], g, w)
		}
	}
}

// TestPlanCacheTwinAcrossSwaps pins the plan cache's twin guarantee: a
// session with the cache on answers bit-for-bit (1e-12) like one with the
// cache off, over the same build — cold, warm, after writes, and across
// the engine swap a re-optimization performs (which bumps the table's
// plan generation and must invalidate every cached skeleton).
func TestPlanCacheTwinAcrossSwaps(t *testing.T) {
	cached, _ := newAdaptiveSession(t)
	plain, _ := newAdaptiveSession(t)
	plain.SetPlanCacheSize(0)

	stmts := planCacheStmts()
	comparePlans(t, "cold", cached, plain, stmts)
	comparePlans(t, "warm", cached, plain, stmts)

	st := cached.PlanCacheStats()
	if st.Hits == 0 || st.Entries == 0 {
		t.Fatalf("expected plan-cache hits on the warm pass, stats %+v", st)
	}
	if off := plain.PlanCacheStats(); off.Hits != 0 || off.Entries != 0 {
		t.Fatalf("disabled cache must stay inert, stats %+v", off)
	}

	// writes do not bump the plan generation (plans depend only on the
	// schema) — the twins must still agree through cached skeletons
	for i := 0; i < 40; i++ {
		p, v := []float64{float64(700 + i)}, float64(2000+i)
		if err := cached.Insert("t", p, v); err != nil {
			t.Fatal(err)
		}
		if err := plain.Insert("t", p, v); err != nil {
			t.Fatal(err)
		}
	}
	comparePlans(t, "post-insert", cached, plain, stmts)

	// engine swap: Reoptimize rebuilds the synopsis and swaps it in,
	// bumping the plan generation; cached skeletons must be recompiled,
	// never served stale
	if _, err := cached.Reoptimize("t"); err != nil {
		t.Fatal(err)
	}
	if _, err := plain.Reoptimize("t"); err != nil {
		t.Fatal(err)
	}
	comparePlans(t, "post-swap", cached, plain, stmts)
	comparePlans(t, "post-swap warm", cached, plain, stmts)
}

// TestPlanCacheEviction fills a tiny cache past capacity and checks the
// LRU bound holds and evictions are counted.
func TestPlanCacheEviction(t *testing.T) {
	sess := NewSession()
	sess.SetPlanCacheSize(2)
	syn, err := Build(adaptiveTestTable(2000), Options{Partitions: 16, SampleRate: 0.02, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Register("t", syn); err != nil {
		t.Fatal(err)
	}
	shapes := []string{
		"SELECT SUM(v) FROM t WHERE x >= 10",
		"SELECT COUNT(*) FROM t WHERE x <= 500",
		"SELECT AVG(v) FROM t WHERE x BETWEEN 5 AND 900",
		"SELECT MIN(v) FROM t WHERE x >= 7",
	}
	for i := 0; i < 3; i++ {
		for _, q := range shapes {
			if _, err := sess.Exec(q); err != nil {
				t.Fatal(err)
			}
		}
	}
	st := sess.PlanCacheStats()
	if st.Entries > 2 {
		t.Fatalf("cache exceeded its capacity: %+v", st)
	}
	if st.Evictions == 0 {
		t.Fatalf("4 shapes through a 2-entry cache must evict, stats %+v", st)
	}
}

// TestPreparedStatements covers the prepared-statement surface: bound
// parameters twin the equivalent SQL text, no-arg execution replays the
// original literals, and arity/type errors are reported.
func TestPreparedStatements(t *testing.T) {
	sess := NewSession()
	syn, err := Build(adaptiveTestTable(4000), Options{Partitions: 32, SampleRate: 0.02, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Register("t", syn); err != nil {
		t.Fatal(err)
	}

	ps, err := sess.Prepare("SELECT SUM(v) FROM t WHERE x BETWEEN 100 AND 2000")
	if err != nil {
		t.Fatal(err)
	}
	if ps.NumParams() != 2 {
		t.Fatalf("BETWEEN carries 2 parameters, got %d", ps.NumParams())
	}
	if !strings.Contains(ps.Text(), "?n") {
		t.Fatalf("canonical text should be parameterized, got %q", ps.Text())
	}

	// bound execution twins the equivalent text; int/float both accepted
	for _, r := range [][2]float64{{100, 2000}, {0, 3999}, {555, 777}} {
		got, err := ps.Exec(r[0], r[1])
		if err != nil {
			t.Fatal(err)
		}
		want, err := sess.Exec(hot(r[0], r[1]))
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got.Scalar.Estimate-want.Scalar.Estimate) > 1e-12 ||
			math.Abs(got.Scalar.CIHalf-want.Scalar.CIHalf) > 1e-12 {
			t.Fatalf("range %v: prepared %+v vs text %+v", r, got.Scalar, want.Scalar)
		}
	}
	if _, err := ps.Exec(int(200), int64(900)); err != nil {
		t.Fatalf("int arguments must bind to numeric placeholders: %v", err)
	}

	// no args replays the literals the statement was prepared with
	got, err := ps.Exec()
	if err != nil {
		t.Fatal(err)
	}
	want, err := sess.Exec("SELECT SUM(v) FROM t WHERE x BETWEEN 100 AND 2000")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got.Scalar.Estimate-want.Scalar.Estimate) > 1e-12 {
		t.Fatalf("no-arg exec %+v vs original text %+v", got.Scalar, want.Scalar)
	}

	if _, err := ps.Exec(1.0); err == nil {
		t.Fatal("wrong arity must fail")
	}
	if _, err := ps.Exec("low", "high"); err == nil {
		t.Fatal("string arguments on numeric placeholders must fail")
	}
	if _, err := ps.Exec(struct{}{}, 2.0); err == nil || !strings.Contains(err.Error(), "unsupported parameter type") {
		t.Fatalf("unsupported type must be reported, got %v", err)
	}

	// compile errors surface at Prepare, not execution
	if _, err := sess.Prepare("SELECT SUM(v) FROM missing WHERE x >= 1"); err == nil {
		t.Fatal("Prepare against an unknown table must fail")
	}
	if _, err := sess.Prepare("SELECT SUM(nope) FROM t WHERE x >= 1"); err == nil {
		t.Fatal("Prepare with an unknown column must fail")
	}
}

func hot(lo, hi float64) string {
	return fmt.Sprintf("SELECT SUM(v) FROM t WHERE x BETWEEN %g AND %g", lo, hi)
}

// TestPreparedSurvivesSwapAndReRegister pins the revalidation path: a
// prepared handle keeps answering correctly after an engine swap
// (re-optimization) and after its table is dropped and re-registered.
func TestPreparedSurvivesSwapAndReRegister(t *testing.T) {
	sess, _ := newAdaptiveSession(t)
	ps, err := sess.Prepare("SELECT SUM(v) FROM t WHERE x BETWEEN 100 AND 2000")
	if err != nil {
		t.Fatal(err)
	}
	check := func(round string) {
		t.Helper()
		got, err := ps.Exec(123.0, 777.0)
		if err != nil {
			t.Fatalf("%s: %v", round, err)
		}
		want, err := sess.Exec(hotSQL(0))
		if err != nil {
			t.Fatalf("%s: %v", round, err)
		}
		if math.Abs(got.Scalar.Estimate-want.Scalar.Estimate) > 1e-12 {
			t.Fatalf("%s: prepared %+v vs text %+v", round, got.Scalar, want.Scalar)
		}
	}
	check("fresh")

	// engine swap bumps the plan generation; the handle must recompile
	if _, err := sess.Reoptimize("t"); err != nil {
		t.Fatal(err)
	}
	check("post-swap")

	// dropped table: execution fails with the catalog's error...
	if err := sess.Drop("t"); err != nil {
		t.Fatal(err)
	}
	if _, err := ps.Exec(123.0, 777.0); err == nil {
		t.Fatal("execution against a dropped table must fail")
	}

	// ...and a re-register under the same name revives the handle against
	// the new table identity
	syn, err := Build(adaptiveTestTable(6000), Options{Partitions: 32, SampleRate: 0.02, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Register("t", syn); err != nil {
		t.Fatal(err)
	}
	check("re-registered")
}
