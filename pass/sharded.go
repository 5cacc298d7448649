package pass

import (
	"fmt"

	"repro/internal/engine"
	"repro/internal/engine/factory"
	"repro/internal/sqlfe"
)

// BuildShardedEngine constructs a sharded PASS engine over the table: the
// data is range-partitioned on the first predicate column into the given
// number of shards, one synopsis is built per shard concurrently on the
// worker pool, and queries execute by scatter-gather with per-shard
// pruning (internal/shard). The construction budget (Partitions,
// SampleRate/SampleSize) is the whole-table budget, divided across shards
// in proportion to their cardinality.
//
// Register the result with Session.RegisterEngine; with a store attached
// the table persists as a manifest, one snapshot per shard and one WAL
// for the whole table, and updates route to the owning shard under
// per-shard locks.
func BuildShardedEngine(t *Table, opt Options, shards int) (engine.Engine, sqlfe.Schema, error) {
	if shards < 1 {
		return nil, sqlfe.Schema{}, fmt.Errorf("pass: shard count must be positive, got %d", shards)
	}
	iopt, err := opt.internal()
	if err != nil {
		return nil, sqlfe.Schema{}, err
	}
	sp := factory.Spec{
		Partitions: iopt.Partitions,
		SampleRate: iopt.SampleRate,
		SampleSize: iopt.SampleSize,
		Lambda:     iopt.Lambda,
		Seed:       iopt.Seed,
	}
	eng, err := factory.Build(fmt.Sprintf("sharded:pass:%d", shards), t.inner, sp)
	if err != nil {
		return nil, sqlfe.Schema{}, err
	}
	return eng, t.schema(), nil
}
