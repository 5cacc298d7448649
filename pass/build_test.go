package pass

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/engine/factory"
	"repro/internal/shard"
	"repro/internal/sqlfe"
)

// savedShards returns a table's synopses exactly as a checkpoint saves
// them: the routing info and one payload per shard.
func savedShards(t *testing.T, sess *Session, name string) (engine.ShardInfo, [][]byte) {
	t.Helper()
	tbl, err := sess.cat.Lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	var info engine.ShardInfo
	var payloads [][]byte
	err = tbl.CheckpointShards(func(i engine.ShardInfo, _ string, _ sqlfe.Schema, p [][]byte, _ []int, _ int) error {
		info, payloads = i, p
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return info, payloads
}

func sameShards(t *testing.T, what string, gotInfo, wantInfo engine.ShardInfo, got, want [][]byte) {
	t.Helper()
	if fmt.Sprint(gotInfo) != fmt.Sprint(wantInfo) {
		t.Errorf("%s: routing %+v, want %+v", what, gotInfo, wantInfo)
	}
	if len(got) != len(want) {
		t.Fatalf("%s: %d shards, want %d", what, len(got), len(want))
	}
	for i := range got {
		if !bytes.Equal(got[i], want[i]) {
			t.Errorf("%s: shard %d saves %d bytes unlike the reference's %d", what, i, len(got[i]), len(want[i]))
		}
	}
}

// TestCreateTableMatchesFactory holds the one build path to the engine
// factory's bytes for the options passd sends (leaves, a sample rate or
// size, a seed), 1-D and 3-D, unsharded and with four shards:
// CreateTable, BuildShardedEngine and factory.Build("pass" or
// "sharded:pass:4") save the same synopses.
func TestCreateTableMatchesFactory(t *testing.T) {
	for _, dims := range []int{1, 3} {
		tbl := DemoTaxi(12000, dims, 5)
		for _, opt := range []Options{
			{Partitions: 64, SampleRate: 0.005, Seed: 1},
			{Partitions: 24, SampleSize: 700, Seed: 9},
		} {
			sp := factory.Spec{Partitions: opt.Partitions, SampleRate: opt.SampleRate, SampleSize: opt.SampleSize, Seed: opt.Seed}
			for _, shards := range []int{1, 4} {
				what := fmt.Sprintf("%d-D, %+v, %d shard(s)", dims, opt, shards)
				kind := "pass"
				if shards > 1 {
					kind = fmt.Sprintf("sharded:pass:%d", shards)
				}
				ref, err := factory.Build(kind, tbl.inner, sp)
				if err != nil {
					t.Fatal(err)
				}
				wantInfo, _, want, _, err := engine.SnapshotShards(ref)
				if err != nil {
					t.Fatal(err)
				}
				sess := NewSession()
				if err := sess.CreateTable("t", tbl, opt, shards); err != nil {
					t.Fatal(err)
				}
				gotInfo, got := savedShards(t, sess, "t")
				sameShards(t, "CreateTable "+what, gotInfo, wantInfo, got, want)
				if shards == 1 {
					continue
				}
				eng, _, err := BuildShardedEngine(tbl, opt, shards)
				if err != nil {
					t.Fatal(err)
				}
				gotInfo, _, got, _, err = engine.SnapshotShards(eng)
				if err != nil {
					t.Fatal(err)
				}
				sameShards(t, "BuildShardedEngine "+what, gotInfo, wantInfo, got, want)
			}
		}
	}
}

// TestShardedBuildHonoursOptions: every option reaches every shard's
// synopsis. Each shard saves the bytes of a core build over that shard's
// rows with the same options and the shard's part of the budget — k and K
// by row share, never below 1, and the shard's own seed.
func TestShardedBuildHonoursOptions(t *testing.T) {
	for _, tc := range []struct {
		tbl *Table
		opt Options
	}{
		{DemoTaxi(12000, 1, 3), Options{Partitions: 32, SampleRate: 0.01, Seed: 3, Fanout: 4, Partitioner: EqualDepth, OptimizeFor: Avg}},
		{DemoTaxi(12000, 2, 3), Options{Partitions: 32, SampleRate: 0.01, Seed: 3, OptimizeFor: Count, IndexDims: 1, BalancedTree: true}},
	} {
		const shards = 4
		eng, _, err := BuildShardedEngine(tc.tbl, tc.opt, shards)
		if err != nil {
			t.Fatal(err)
		}
		_, _, got, _, err := engine.SnapshotShards(eng)
		if err != nil {
			t.Fatal(err)
		}
		parts, _, err := shard.Split(tc.tbl.inner, shard.Range, 0, shards)
		if err != nil {
			t.Fatal(err)
		}
		if len(parts) != len(got) {
			t.Fatalf("%d shards, want %d", len(got), len(parts))
		}
		iopt, err := tc.opt.internal()
		if err != nil {
			t.Fatal(err)
		}
		total := tc.tbl.Len()
		k := int(tc.opt.SampleRate * float64(total))
		for i, part := range parts {
			per := iopt
			per.Partitions = max(int(float64(iopt.Partitions)*float64(part.N())/float64(total)), 1)
			per.SampleSize = max(int(float64(k)*float64(part.N())/float64(total)), 1)
			per.Seed = iopt.Seed + uint64(i+1)*0x9e3779b97f4a7c15
			build := core.Build
			if part.Dims() > 1 {
				build = core.BuildKD
			}
			syn, err := build(part, per)
			if err != nil {
				t.Fatal(err)
			}
			var want bytes.Buffer
			if err := syn.Save(&want); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got[i], want.Bytes()) {
				t.Errorf("%d-D %+v: shard %d is not the core build of its rows with these options", tc.tbl.Dims(), tc.opt, i)
			}
		}
	}
}

// TestCreateTableRefusesAtEveryShardCount: options no synopsis takes are
// refused with ErrBuild whatever the shard count, and nothing is
// registered.
func TestCreateTableRefusesAtEveryShardCount(t *testing.T) {
	tbl := adaptiveTestTable(500)
	for _, opt := range []Options{
		{Partitions: -5, SampleRate: 0.01},
		{Partitions: 8, SampleRate: 2},
		{Partitions: 8},
	} {
		for _, shards := range []int{0, 1, 4} {
			sess := NewSession()
			if err := sess.CreateTable("t", tbl, opt, shards); !errors.Is(err, ErrBuild) {
				t.Errorf("%+v, %d shards: err = %v, want ErrBuild", opt, shards, err)
			}
			if n := len(sess.Tables()); n != 0 {
				t.Errorf("%+v, %d shards: %d tables registered after a refused build", opt, shards, n)
			}
		}
	}
	if err := NewSession().CreateTable("t", NewTable([]string{"x"}, "v"), Options{Partitions: 8, SampleRate: 0.1}, 1); !errors.Is(err, ErrBuild) {
		t.Errorf("empty table: err = %v, want ErrBuild", err)
	}
}

// TestAdaptiveShardedRebuildBudget: a sharded table's rebuild resolves
// its sample budget over the whole table, as its first build does, so
// forcing no boundaries rebuilds the very same synopses.
func TestAdaptiveShardedRebuildBudget(t *testing.T) {
	sess := NewSession()
	if err := sess.EnableAdaptive(AdaptiveConfig{}); err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if err := sess.CreateTable("t", adaptiveTestTable(6001), Options{Partitions: 30, SampleRate: 0.013, Seed: 4, Partitioner: EqualDepth}, 3); err != nil {
		t.Fatal(err)
	}
	firstInfo, first := savedShards(t, sess, "t")
	if err := sess.rebuildTable("t", nil); err != nil {
		t.Fatal(err)
	}
	gotInfo, got := savedShards(t, sess, "t")
	sameShards(t, "rebuild", gotInfo, firstInfo, got, first)
}
