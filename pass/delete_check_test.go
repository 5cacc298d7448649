package pass

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
)

// TestPhantomDeletesRefused: deletes that cannot be present rows — a value
// above every leaf's Max, a key below every leaf's keys — are refused with
// core.ErrNoSuchRow before they reach the WAL, so the WAL keeps its bytes
// and whole-table SUM and COUNT stay exact and true; a real row still
// deletes. Unsharded and at 4 shards, on intel light readings rounded to
// integers, so every sum is exact in float64.
func TestPhantomDeletesRefused(t *testing.T) {
	d := dataset.GenIntelWireless(20000, 3)
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprint("shards=", shards), func(t *testing.T) {
			tbl := NewTable([]string{"time"}, "light")
			sum := 0.0
			for i := 0; i < d.N(); i++ {
				v := math.Round(d.Agg[i])
				tbl.Append([]float64{d.Pred[0][i]}, v)
				sum += v
			}
			count := float64(d.N())
			dir := t.TempDir()
			sess := NewSession()
			if _, err := sess.AttachStore(testStore(t, dir)); err != nil {
				t.Fatal(err)
			}
			if err := sess.CreateTable("sensors", tbl, Options{Partitions: 64, SampleRate: 0.02, Seed: 4}, shards); err != nil {
				t.Fatal(err)
			}
			// one logged insert, so the WAL exists and has bytes to keep
			if err := sess.Insert("sensors", []float64{100.5}, 7); err != nil {
				t.Fatal(err)
			}
			sum, count = sum+7, count+1
			wal := func() []byte {
				b, err := os.ReadFile(filepath.Join(dir, "sensors.wal"))
				if err != nil {
					t.Fatal(err)
				}
				return b
			}
			before := wal()

			check := func(stage string) {
				t.Helper()
				for _, q := range []struct {
					sql  string
					want float64
				}{{"SELECT SUM(light) FROM sensors", sum}, {"SELECT COUNT(*) FROM sensors", count}} {
					res, err := sess.Exec(q.sql)
					if err != nil {
						t.Fatal(err)
					}
					if a := res.Scalar; !a.Exact || a.Estimate != q.want {
						t.Errorf("%s: %s = %v (exact %v), truth %v", stage, q.sql, a.Estimate, a.Exact, q.want)
					}
				}
			}
			for i := 0; i < 10; i++ {
				err := sess.Delete("sensors", []float64{float64(i * 1000)}, 1e6)
				if !errors.Is(err, core.ErrNoSuchRow) {
					t.Fatalf("delete of value 1e6: %v, want ErrNoSuchRow", err)
				}
			}
			if err := sess.Delete("sensors", []float64{-50}, 5); !errors.Is(err, core.ErrNoSuchRow) {
				t.Fatalf("delete below every key: %v, want ErrNoSuchRow", err)
			}
			if !bytes.Equal(wal(), before) {
				t.Fatal("refused deletes changed the WAL")
			}
			check("after refused deletes")

			i := 12345
			k, v := d.Pred[0][i], math.Round(d.Agg[i])
			if err := sess.Delete("sensors", []float64{k}, v); err != nil {
				t.Fatalf("delete of row %d: %v", i, err)
			}
			sum, count = sum-v, count-1
			if bytes.Equal(wal(), before) {
				t.Fatal("a real delete left the WAL as it was")
			}
			check("after a real delete")
		})
	}
}
