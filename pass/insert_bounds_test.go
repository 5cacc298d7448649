package pass

import (
	"fmt"
	"testing"
)

// TestInsertsStayInsideHardBounds inserts rows where no build-time leaf
// reaches: above the table's max, below its min and in the gaps between
// leaves of integer keys. Every SUM and COUNT answer around them must keep
// the truth within its hard bounds, and an exact answer must be the
// truth: in memory, after WAL replay and after a snapshot save and load,
// unsharded and at 4 shards.
func TestInsertsStayInsideHardBounds(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprint("shards=", shards), func(t *testing.T) {
			truth := NewTable([]string{"k"}, "v")
			for i := 0; i < 8000; i++ {
				truth.Append([]float64{float64(i % 2000)}, float64(i%17))
			}
			dir := t.TempDir()
			st := testStore(t, dir)
			sess := NewSession()
			if _, err := sess.AttachStore(st); err != nil {
				t.Fatal(err)
			}
			if err := sess.CreateTable("t", truth, Options{Partitions: 32, SampleRate: 0.02, Seed: 9}, shards); err != nil {
				t.Fatal(err)
			}
			var keys []float64
			for i := 0; i < 60; i++ {
				keys = append(keys, 2000+float64(i)*1.5, -1-float64(i), float64(i*33)+0.5)
			}
			for i, k := range keys {
				v := float64(i%5 + 1)
				if err := sess.Insert("t", []float64{k}, v); err != nil {
					t.Fatal(err)
				}
				truth.Append([]float64{k}, v)
			}
			ranges := [][2]float64{{-1e9, 1e9}, {2000.2, 2040.7}, {2010, 1e9}, {-30.5, -2.2}, {-1e9, -40}, {-20, 100}}
			for i := 0; i < 60; i += 7 {
				k := float64(i*33) + 0.5
				ranges = append(ranges, [2]float64{k - 0.1, k + 0.1}, [2]float64{k + 0.1, 5000}, [2]float64{k - 3, k + 0.2})
			}
			check := func(stage string, s *Session) {
				t.Helper()
				for _, r := range ranges {
					for _, agg := range []Agg{Count, Sum} {
						sql := fmt.Sprintf("SELECT %s FROM t WHERE k >= %g AND k <= %g", map[Agg]string{Count: "COUNT(*)", Sum: "SUM(v)"}[agg], r[0], r[1])
						res, err := s.Exec(sql)
						if err != nil {
							t.Fatalf("%s: %s: %v", stage, sql, err)
						}
						want, err := truth.Exact(agg, Range{Lo: r[0], Hi: r[1]})
						if err != nil {
							t.Fatal(err)
						}
						a := res.Scalar
						if !a.HardBounds || want < a.HardLo || want > a.HardHi {
							t.Errorf("%s: %s: truth %v outside hard bounds [%v, %v] (set: %v)", stage, sql, want, a.HardLo, a.HardHi, a.HardBounds)
						}
						if a.Exact && a.Estimate != want {
							t.Errorf("%s: %s: exact answer %v, truth %v", stage, sql, a.Estimate, want)
						}
					}
				}
			}
			check("in memory", sess)

			// crash: the inserts are only in the WAL
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
			replayed := NewSession()
			if _, err := replayed.AttachStore(testStore(t, dir)); err != nil {
				t.Fatal(err)
			}
			check("after WAL replay", replayed)

			// a graceful close saves the snapshot; the next open loads it
			if err := replayed.Close(); err != nil {
				t.Fatal(err)
			}
			loaded := NewSession()
			st3 := testStore(t, dir)
			if _, err := loaded.AttachStore(st3); err != nil {
				t.Fatal(err)
			}
			defer st3.Close()
			check("after save and load", loaded)
		})
	}
}
