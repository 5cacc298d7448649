// Command passgen generates the simulated evaluation datasets to CSV so
// they can be inspected, loaded into other tools, or fed to passquery —
// and, with -snap, builds a PASS synopsis over the generated data and
// checkpoints it into a data directory that passd serves directly (build
// once, serve forever).
//
// Usage:
//
//	passgen -dataset nyctaxi -rows 100000 -out taxi.csv
//	passgen -dataset nyctaxi -dims 5 -rows 100000 -out taxi5d.csv
//	passgen -dataset adversarial -rows 1000000 -out adv.csv
//	passgen -dataset intel -rows 100000 -snap data -table intel
//	passgen -dataset intel -rows 100000 -shards 4 -snap data -table intel
//
// -snap names a data DIRECTORY, in which the table is checkpointed the way
// a serving store does it: manifest, shard snapshots, WAL. With -shards 1
// (the default) that is the one-shard fileset of an unsharded synopsis;
// with -shards > 1 the synopsis is built sharded (range partitioning on the
// first predicate column, one synopsis per shard built concurrently).
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/store"
	"repro/pass"
)

func main() {
	var (
		name       = flag.String("dataset", "nyctaxi", "dataset: intel, instacart, nyctaxi, adversarial, uniform")
		rows       = flag.Int("rows", 100000, "row count")
		dims       = flag.Int("dims", 1, "predicate columns (nyctaxi only, 1-5)")
		seed       = flag.Uint64("seed", 1, "random seed")
		out        = flag.String("out", "", "output file (default stdout)")
		snap       = flag.String("snap", "", "also build a PASS synopsis and checkpoint it into this data directory (manifest + shard snapshots + WAL)")
		table      = flag.String("table", "", "table name recorded in the snapshot (default: the dataset name)")
		partitions = flag.Int("partitions", 64, "leaf partitions for -snap")
		rate       = flag.Float64("rate", 0.005, "sample rate for -snap")
		shards     = flag.Int("shards", 1, "build a sharded synopsis with this many shards for -snap (1 = unsharded)")
	)
	flag.Parse()

	var d *pass.Table
	if *name == "nyctaxi" && *dims > 1 {
		d = pass.DemoTaxi(*rows, *dims, *seed)
	} else {
		var err error
		if d, err = pass.Demo(*name, *rows, *seed); err != nil {
			fmt.Fprintf(os.Stderr, "passgen: %v\n", err)
			os.Exit(2)
		}
	}

	if *snap != "" {
		if err := writeDataDir(d, *snap, *table, *name, *partitions, *rate, *seed, *shards); err != nil {
			fmt.Fprintf(os.Stderr, "passgen: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "wrote synopsis (%d rows, %d shard(s)) into data directory %s\n", d.Len(), max(*shards, 1), *snap)
		if *out == "" {
			return // -snap without -out: don't dump CSV to the terminal
		}
	}

	w := os.Stdout
	var f *os.File
	if *out != "" {
		var err error
		f, err = os.Create(*out)
		if err != nil {
			fmt.Fprintf(os.Stderr, "passgen: %v\n", err)
			os.Exit(1)
		}
		w = f
	}
	if err := d.WriteCSV(w); err != nil {
		fmt.Fprintf(os.Stderr, "passgen: %v\n", err)
		os.Exit(1)
	}
	// Close errors matter: on a full disk the final buffered flush is what
	// fails, and ignoring it would report success for a truncated file.
	if f != nil {
		if err := f.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "passgen: close %s: %v\n", *out, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "wrote %d rows x %d predicate columns to %s\n", d.Len(), d.Dims(), *out)
	}
}

// writeDataDir creates the table in a session over a store opened in dir
// (pass.Session.CreateTable: unsharded for shards ≤ 1, range-sharded
// otherwise) and closes the session, which checkpoints it there, ready
// for a passd -data-dir warm start.
func writeDataDir(d *pass.Table, dir, table, datasetName string, partitions int, rate float64, seed uint64, shards int) error {
	if table == "" {
		table = datasetName
	}
	st, err := store.Open(dir, store.Options{CheckpointInterval: -1})
	if err != nil {
		return err
	}
	sess := pass.NewSession()
	if _, err := sess.AttachStore(st); err != nil {
		st.Close()
		return err
	}
	err = sess.CreateTable(table, d, pass.Options{Partitions: partitions, SampleRate: rate, Seed: seed}, shards)
	if cerr := sess.Close(); err == nil {
		err = cerr
	}
	return err
}
