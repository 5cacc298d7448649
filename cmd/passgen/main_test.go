package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/catalog"
	"repro/internal/dataset"
	"repro/internal/engine/factory"
	"repro/internal/sqlfe"
	"repro/internal/store"
	"repro/pass"
)

// sameDir fails unless two data directories hold the same files with the
// same bytes.
func sameDir(t *testing.T, what, got, want string) {
	t.Helper()
	files := func(dir string) map[string][]byte {
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		out := make(map[string][]byte, len(entries))
		for _, e := range entries {
			b, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			out[e.Name()] = b
		}
		return out
	}
	g, w := files(got), files(want)
	if len(g) != len(w) {
		t.Errorf("%s: %d files, want %d", what, len(g), len(w))
	}
	for name, wb := range w {
		if gb, ok := g[name]; !ok {
			t.Errorf("%s: no %s", what, name)
		} else if !bytes.Equal(gb, wb) {
			t.Errorf("%s: %s differs (%d bytes, want %d)", what, name, len(gb), len(wb))
		}
	}
}

// TestSnapDirMatchesCreateTable: the data directory passgen -snap writes
// holds the bytes a session writes when it creates the table from the
// same rows read back from passgen's CSV, as POST /tables does, and the
// bytes the engine factory's build of the same options checkpoints.
func TestSnapDirMatchesCreateTable(t *testing.T) {
	const partitions, rate, seed = 64, 0.005, 1
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards%d", shards), func(t *testing.T) {
			tbl, err := pass.Demo("intel", 8000, seed)
			if err != nil {
				t.Fatal(err)
			}
			snap := t.TempDir()
			if err := writeDataDir(tbl, snap, "sensors", "intel", partitions, rate, seed, shards); err != nil {
				t.Fatal(err)
			}

			var csv bytes.Buffer
			if err := tbl.WriteCSV(&csv); err != nil {
				t.Fatal(err)
			}
			posted, err := pass.ReadCSV(&csv)
			if err != nil {
				t.Fatal(err)
			}
			created := t.TempDir()
			st, err := store.Open(created, store.Options{CheckpointInterval: -1})
			if err != nil {
				t.Fatal(err)
			}
			sess := pass.NewSession()
			if _, err := sess.AttachStore(st); err != nil {
				t.Fatal(err)
			}
			if err := sess.CreateTable("sensors", posted, pass.Options{Partitions: partitions, SampleRate: rate, Seed: seed}, shards); err != nil {
				t.Fatal(err)
			}
			if err := sess.Close(); err != nil {
				t.Fatal(err)
			}
			sameDir(t, "CreateTable over the CSV", created, snap)

			// the factory build, registered and checkpointed by hand
			kind := "pass"
			if shards > 1 {
				kind = fmt.Sprintf("sharded:pass:%d", shards)
			}
			d, _ := dataset.ByName("intel", 8000, seed)
			eng, err := factory.Build(kind, d, factory.Spec{Partitions: partitions, SampleRate: rate, Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			schema := sqlfe.SchemaFromColNames(d.ColNames)
			schema.Table = "sensors"
			ctab, err := catalog.New().Register("sensors", eng, schema)
			if err != nil {
				t.Fatal(err)
			}
			built := t.TempDir()
			st, err = store.Open(built, store.Options{CheckpointInterval: -1})
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			if _, err := st.AttachSharded(ctab, nil, 0); err != nil {
				t.Fatal(err)
			}
			if err := st.SaveSharded(ctab); err != nil {
				t.Fatal(err)
			}
			sameDir(t, "factory build", built, snap)
		})
	}
}
