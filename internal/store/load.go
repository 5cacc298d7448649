package store

import (
	"bytes"
	"fmt"
	"path/filepath"
	"regexp"
	"sort"
	"strings"

	"repro/internal/engine"
	"repro/internal/engine/factory"
	"repro/internal/shard"
	"repro/internal/sqlfe"
)

// LoadedTable is one table restored from disk: the rebuilt engine, its
// schema, and how many journaled updates were replayed on top of the
// snapshots.
type LoadedTable struct {
	Name     string
	Engine   engine.Engine
	Schema   sqlfe.Schema
	Replayed int
}

// shardFilePattern matches the per-shard suffix of snapshot files
// ("<key>.s<i>.snap").
var shardFilePattern = regexp.MustCompile(`\.s\d+\.snap$`)

// LoadAll restores every table in the data directory from its manifest,
// shard snapshots and WAL, with each engine rebuilt through the factory
// loader registry. Corrupt snapshots, manifests or logs fail the whole
// load with a clear error — a durable store must never silently serve
// partial state — and so does a file of an older layout (see
// olderLayout), which this loader no longer reads. Results are sorted by
// table name.
func (s *Store) LoadAll() ([]LoadedTable, error) {
	entries, err := s.fs.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("store: read data dir: %w", err)
	}
	names := make(map[string]bool, len(entries))
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if olderLayout(e.Name()) {
			return nil, fmt.Errorf("store: %s belongs to an older data-directory layout (a bare <table>.snap or a per-shard <table>.s<i>.wal), which is no longer read; convert the directory by opening it once with passd built at commit bdd8d50, the last version that imports it",
				filepath.Join(s.dir, e.Name()))
		}
		names[e.Name()] = true
	}
	var out []LoadedTable
	seen := make(map[string]bool)
	for name := range names {
		if !strings.HasSuffix(name, ".manifest") {
			continue
		}
		lt, err := s.loadTable(filepath.Join(s.dir, name))
		if err != nil {
			return nil, err
		}
		out = append(out, lt)
		seen[fileKey(lt.Name)] = true
	}
	// shard snapshots and logs whose manifest is gone (a crash mid-Remove)
	// are unreconstructible — every shard of a table records the same
	// table name — so surface them but do not fail the warm start
	for name := range names {
		key := shardFilePattern.ReplaceAllString(name, "")
		if key == name {
			key = strings.TrimSuffix(name, ".wal")
		}
		if key != name && !seen[key] {
			s.opts.Logf("store: ignoring orphan %s (no manifest)", name)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}

// olderLayout reports whether a file name belongs to a layout nothing
// writes any more: a bare single-file <table>.snap, or a per-shard
// <table>.s<i>.wal. Loading around such a file would make its table
// vanish, so LoadAll refuses the directory instead.
func olderLayout(name string) bool {
	if strings.HasSuffix(name, ".snap") {
		return !shardFilePattern.MatchString(name)
	}
	wal, ok := strings.CutSuffix(name, ".wal")
	return ok && reservedSuffix.MatchString(wal)
}

// loadTable restores one table: manifest → shard snapshots → engine
// reassembly → replay of the table's single WAL, in arrival order, through
// the assembled engine (so the routing bounds grow exactly as they did
// before the crash).
//
// A checkpoint stamps every snapshot with the WAL's generation + 1 and
// truncates the log to that number last, so a crash inside one leaves
// some shards one generation ahead of the log. Such a shard has folded
// every record of the log: replay skips a record iff the shard it routes
// to is ahead. Routing is a pure function of the point and the manifest's
// immutable policy and cuts, which is why records carry no shard index. A
// shard BEHIND the log means a snapshot file was replaced: corruption.
//
// A table that comes up with any shard ahead of the log is rolled forward
// before it is returned: no record is ever appended to a log older than a
// snapshot.
func (s *Store) loadTable(manifestPath string) (LoadedTable, error) {
	m, err := ReadManifestFileFS(s.fs, manifestPath)
	if err != nil {
		return LoadedTable{}, err
	}
	if m.Name == "" {
		return LoadedTable{}, fmt.Errorf("store: manifest %s carries no table name: %w", manifestPath, ErrCorrupt)
	}
	load, ok := factory.Loader(m.Engine)
	if !ok {
		return LoadedTable{}, fmt.Errorf("store: manifest %s: no loader for engine %q (have %s)",
			manifestPath, m.Engine, strings.Join(factory.LoaderKinds(), ", "))
	}
	inners := make([]engine.Engine, m.Shards)
	gens := make([]uint64, m.Shards)
	var schema sqlfe.Schema
	for i := range inners {
		snap, err := ReadSnapshotFileFS(s.fs, s.shardSnapPath(m.Name, i))
		if err != nil {
			return LoadedTable{}, fmt.Errorf("store: table %q shard %d: %w", m.Name, i, err)
		}
		if snap.Engine != m.Engine {
			return LoadedTable{}, fmt.Errorf("store: table %q shard %d: snapshot engine %q != manifest engine %q: %w",
				m.Name, i, snap.Engine, m.Engine, ErrCorrupt)
		}
		if i == 0 {
			schema = snap.Schema
		}
		gens[i] = snap.Gen
		if inners[i], err = load(bytes.NewReader(snap.Payload)); err != nil {
			return LoadedTable{}, fmt.Errorf("store: restore shard %d of table %q: %w", i, m.Name, err)
		}
	}
	// the one sharded/unsharded branch: an empty policy is an unsharded
	// engine stored as its own single shard
	eng, route := inners[0], func([]float64) (int, error) { return 0, nil }
	if m.Policy != "" {
		sh, err := shard.New(inners, m.Info())
		if err != nil {
			return LoadedTable{}, fmt.Errorf("store: reassemble sharded table %q: %w", m.Name, err)
		}
		eng, route = sh, sh.Route
	} else if m.Shards != 1 {
		return LoadedTable{}, fmt.Errorf("store: manifest %s: %d shards without a routing policy: %w", manifestPath, m.Shards, ErrCorrupt)
	}

	wal, recs, err := OpenWALFS(s.fs, s.walPath(m.Name), !s.opts.NoSync)
	if err != nil {
		return LoadedTable{}, err
	}
	replayed, ahead := 0, false
	u, _ := engine.Updater(eng)
	apply := func(rec Record) error {
		if u == nil {
			return fmt.Errorf("store: table %q has journaled updates but engine %s is not updatable", m.Name, eng.Name())
		}
		replayed++
		if rec.Op == OpDelete {
			return u.Delete(rec.Point, rec.Value)
		}
		return u.Insert(rec.Point, rec.Value)
	}
	fail := func(err error) (LoadedTable, error) {
		wal.Close()
		return LoadedTable{}, err
	}
	for i, g := range gens {
		if g < wal.Gen() {
			return fail(logAhead(m.Name, i, wal.Gen(), g))
		}
		ahead = ahead || g > wal.Gen()
	}
	for j, rec := range recs {
		i, err := route(rec.Point)
		if err == nil && gens[i] == wal.Gen() {
			err = apply(rec)
		}
		if err != nil {
			return fail(fmt.Errorf("store: table %q: replay WAL record %d/%d: %w", m.Name, j+1, len(recs), err))
		}
	}
	ts := &tableState{name: m.Name, wal: wal}
	if ahead {
		s.opts.Logf("store: table %q: rolling an interrupted checkpoint forward (WAL generation %d, snapshot generations %v)",
			m.Name, wal.Gen(), gens)
		if err := s.rollForward(ts, eng, schema, gens); err != nil {
			return fail(err)
		}
	}
	s.mu.Lock()
	s.tables[strings.ToLower(m.Name)] = ts
	s.mu.Unlock()
	return LoadedTable{Name: m.Name, Engine: eng, Schema: schema, Replayed: replayed}, nil
}

// logAhead is the error for a log newer than the snapshot it is paired
// with: checkpoints write snapshots before they truncate, so only a
// replaced snapshot file can be behind.
func logAhead(table string, shard int, walGen, snapGen uint64) error {
	return fmt.Errorf("store: table %q shard %d: WAL generation %d is ahead of snapshot generation %d (snapshot file replaced?): %w",
		table, shard, walGen, snapGen, ErrCorrupt)
}

// rollForward completes what a crash interrupted by checkpointing the
// freshly loaded engine: manifest with the replayed bounds, every shard
// snapshot, one truncation. The new generation exceeds every one on disk,
// so if this crashes too, each shard it has rewritten reads as ahead of
// the log and the next load skips the same records again.
func (s *Store) rollForward(ts *tableState, eng engine.Engine, schema sqlfe.Schema, gens []uint64) error {
	info, inner, payloads, shardRows, err := engine.SnapshotShards(eng)
	if err != nil {
		return fmt.Errorf("store: table %q: %w", ts.name, err)
	}
	gen, rows := ts.wal.Gen(), 0
	for i, g := range gens {
		gen = max(gen, g)
		rows += shardRows[i]
	}
	return s.publish(ts, gen+1, info, inner, schema, payloads, shardRows, rows)
}
