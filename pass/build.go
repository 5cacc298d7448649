package pass

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/shard"
	"repro/internal/sqlfe"
)

// buildEngine is the one path from rows to a served PASS engine: one
// synopsis over d for shards ≤ 1, a range-sharded engine otherwise.
func buildEngine(d *dataset.Dataset, opt core.Options, shards int) (engine.Engine, error) {
	if shards > 1 {
		return buildSharded(d, opt, shards)
	}
	return buildSynopsis(d, opt)
}

// buildSynopsis builds the 1-D synopsis for one predicate column and the
// k-d one for more.
func buildSynopsis(d *dataset.Dataset, opt core.Options) (engine.Engine, error) {
	build := core.Build
	if d.Dims() > 1 {
		build = core.BuildKD
	}
	syn, err := build(d, opt)
	if err != nil {
		return nil, err
	}
	return syn, nil
}

// buildSharded range-partitions d on its first predicate column into the
// given number of shards and builds one synopsis per shard concurrently
// on the worker pool, every one with all of opt except the budget: the
// whole-table k and K (K resolved from SampleRate over all of d) are
// split by row share, and each shard gets a seed of its own
// (shard.Budget.Share). The result is a sharded engine even for one
// shard.
func buildSharded(d *dataset.Dataset, opt core.Options, shards int) (engine.Engine, error) {
	k, err := opt.SampleBudget(d.N())
	if err != nil {
		return nil, err
	}
	whole := shard.Budget{Partitions: opt.Partitions, SampleSize: k, Seed: opt.Seed}
	total := d.N()
	eng, err := shard.Build(d, shard.Range, 0, shards, func(i int, sd *dataset.Dataset) (engine.Engine, error) {
		b := whole.Share(i, sd.N(), total)
		per := opt
		per.Partitions, per.SampleSize, per.Seed = b.Partitions, b.SampleSize, b.Seed
		return buildSynopsis(sd, per)
	})
	if err != nil {
		return nil, err
	}
	return eng, nil
}

// BuildShardedEngine constructs a sharded PASS engine over the table the
// way Session.CreateTable does for shards > 1 (see buildSharded); queries
// execute by scatter-gather with per-shard pruning (internal/shard).
// Register the result with Session.RegisterEngine.
func BuildShardedEngine(t *Table, opt Options, shards int) (engine.Engine, sqlfe.Schema, error) {
	if shards < 1 {
		return nil, sqlfe.Schema{}, fmt.Errorf("pass: shard count must be positive, got %d", shards)
	}
	iopt, err := opt.internal()
	if err != nil {
		return nil, sqlfe.Schema{}, err
	}
	eng, err := buildSharded(t.inner, iopt, shards)
	if err != nil {
		return nil, sqlfe.Schema{}, err
	}
	return eng, t.schema(), nil
}

// CreateTable builds a PASS engine over the table's rows — 1-D or k-d by
// its predicate columns, range-sharded when shards > 1 — and registers it
// under name; with a store attached the table is persisted as it enters
// the catalog. In an adaptive session a 1-D table also keeps a copy of
// its rows in lockstep with the engine, so the re-optimizer can rebuild
// it against the observed workload and the auditor can re-execute its
// queries exactly. A table that cannot be built — no rows, or options no
// synopsis takes — fails with an error wrapping ErrBuild.
func (s *Session) CreateTable(name string, t *Table, opt Options, shards int) error {
	if t == nil || t.Len() == 0 {
		return fmt.Errorf("%w: table %q has no rows", ErrBuild, name)
	}
	iopt, err := opt.internal()
	if err != nil {
		return fmt.Errorf("%w: %w", ErrBuild, err)
	}
	eng, err := buildEngine(t.inner, iopt, shards)
	if err != nil {
		return fmt.Errorf("%w: %w", ErrBuild, err)
	}
	if err := s.RegisterEngine(name, eng, t.schema()); err != nil {
		return err
	}
	if s.adaptive != nil && t.Dims() == 1 {
		return s.keepRows(name, t.inner.Clone(), iopt, max(shards, 1))
	}
	return nil
}
