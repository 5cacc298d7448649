package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/engine"
)

// fixtureProbes is the probe set the recorded .answers files were taken
// with (testdata/import/README.md).
func fixtureProbes(t *testing.T, e engine.Engine) []string {
	t.Helper()
	var out []string
	for _, kind := range []dataset.AggKind{dataset.Sum, dataset.Count, dataset.Avg, dataset.Min, dataset.Max} {
		for _, q := range []dataset.Rect{
			dataset.Rect1(-1e18, 1e18), dataset.Rect1(-100, 50), dataset.Rect1(37.5, 412.25),
			dataset.Rect1(150, 151), dataset.Rect1(580, 900), dataset.Rect1(650, 800), dataset.Rect1(-80, -10),
		} {
			r, err := e.Query(kind, q)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, fmt.Sprintf("%v %v %+v", kind, q, r))
		}
	}
	return out
}

// loadFixture warm-starts a directory holding one table and returns its
// answers in the .answers format, header line first.
func loadFixture(t *testing.T, dir string) []string {
	t.Helper()
	st, err := Open(dir, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	loaded, err := st.LoadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded) != 1 {
		t.Fatalf("loaded %d tables, want 1", len(loaded))
	}
	header := fmt.Sprintf("table %s engine %s replayed %d", loaded[0].Name, loaded[0].Engine.Name(), loaded[0].Replayed)
	return append([]string{header}, fixtureProbes(t, loaded[0].Engine)...)
}

// TestImportOlderFilesets loads filesets written by the last commit that
// had the bare and the per-shard-WAL layouts (testdata/import): each must
// answer exactly what that commit's loader answered, leave only the
// current fileset behind, load again to the same answers, fail with
// ErrCorrupt when any of its files is damaged, and survive a crash on any
// filesystem operation of the import.
func TestImportOlderFilesets(t *testing.T) {
	for _, fx := range []struct {
		name, fileset string
		// folds: the import folds replayed records into new snapshots, so a
		// second load reads them back through the codec's fixed point
		folds bool
	}{
		{"bare_pending", "sensors.manifest sensors.s0.snap sensors.wal", false},
		{"bare_wal_behind", "sensors.manifest sensors.s0.snap sensors.wal", false},
		{"sharded_pending", "trips.manifest trips.s0.snap trips.s1.snap trips.s2.snap trips.wal", true},
		{"sharded_wal_behind", "trips.manifest trips.s0.snap trips.s1.snap trips.s2.snap trips.wal", false},
	} {
		t.Run(fx.name, func(t *testing.T) {
			src := filepath.Join("testdata", "import", fx.name)
			raw, err := os.ReadFile(src + ".answers")
			if err != nil {
				t.Fatal(err)
			}
			recorded := strings.Split(strings.TrimSpace(string(raw)), "\n")

			dir := cloneDir(t, src)
			first := loadFixture(t, dir)
			if !slices.Equal(first, recorded) {
				for i := range recorded {
					if i >= len(first) || first[i] != recorded[i] {
						t.Fatalf("answer %d:\n got %s\nwant %s", i, first[i], recorded[i])
					}
				}
			}
			if got := strings.Join(fileset(t, dir), " "); got != fx.fileset {
				t.Errorf("fileset after import = %s, want %s", got, fx.fileset)
			}
			second := loadFixture(t, dir)
			if fx.folds {
				if !strings.HasSuffix(second[0], "replayed 0") {
					t.Errorf("second load: %s, want the records folded", second[0])
				}
				sameWithinCodec(t, first[1:], second[1:], "second load")
				if third := loadFixture(t, dir); !slices.Equal(third, second) {
					t.Error("third load differs from the second")
				}
			} else if !slices.Equal(second[1:], first[1:]) {
				t.Error("second load differs from the first")
			}

			// damage: a bit flip or a torn tail in any one file fails the load
			for _, name := range fileset(t, src) {
				raw, err := os.ReadFile(filepath.Join(src, name))
				if err != nil {
					t.Fatal(err)
				}
				flipped := slices.Clone(raw)
				flipped[len(flipped)*2/3] ^= 0x40
				damage := map[string][]byte{"torn tail": raw[:len(raw)-3]}
				if !strings.HasSuffix(name, ".wal") || len(raw) > int(headerLen) {
					// a WAL's header carries no checksum of its own; its records do
					damage["bit flip"] = flipped
				}
				for what, bytes := range damage {
					bad := cloneDir(t, src)
					if err := os.WriteFile(filepath.Join(bad, name), bytes, 0o644); err != nil {
						t.Fatal(err)
					}
					st, err := Open(bad, testOpts())
					if err != nil {
						t.Fatal(err)
					}
					if _, err := st.LoadAll(); !errors.Is(err, ErrCorrupt) {
						t.Errorf("%s in %s: LoadAll = %v, want ErrCorrupt", what, name, err)
					}
					st.Close()
				}
			}

			sweepLoadCrashes(t, src, settle(t, cloneDir(t, src)))
		})
	}
}
