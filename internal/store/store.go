package store

import (
	"context"
	"errors"
	"fmt"
	"net/url"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/retry"
	"repro/internal/sqlfe"
	"repro/internal/vfs"
)

// ErrDegraded tags writes rejected because the table is in read-only
// degraded mode: a WAL append or checkpoint hit an I/O failure, so the
// store can no longer promise durability for new updates. Queries keep
// serving from the in-memory synopsis; writes fail with this sentinel
// (the original I/O cause stays in the chain). The table recovers on a
// successful explicit checkpoint (SaveSharded) or on restart.
var ErrDegraded = errors.New("table is in read-only degraded mode")

// ShardCheckpointable is the view of a live catalog table the store needs
// to snapshot it: a name plus a CheckpointShards method that, under the
// table's exclusive lock, hands the store a consistent cut of the engine
// as N ≥ 1 shard payloads with the routing info for the manifest. It is
// satisfied structurally by *catalog.Table, keeping the catalog free of
// store imports.
type ShardCheckpointable interface {
	Name() string
	CheckpointShards(flush func(info engine.ShardInfo, innerEngine string, schema sqlfe.Schema, payloads [][]byte, shardRows []int, rows int) error) error
}

// Options configures a Store.
type Options struct {
	// WALThreshold is the journaled-record count past which the background
	// checkpointer snapshots a table and truncates its log. Default 4096.
	WALThreshold int
	// CheckpointInterval is how often the background checkpointer scans
	// attached tables. Default 5s; negative disables the goroutine
	// (Checkpoint/CheckpointAll remain available).
	CheckpointInterval time.Duration
	// NoSync disables the per-append WAL fsync. Faster, but a machine
	// crash (not just a process crash) can lose the tail of the journal.
	NoSync bool
	// Logf receives diagnostics (checkpoints, recovery notes). Default: discard.
	Logf func(format string, args ...any)
	// FS is the filesystem the store runs on. Default vfs.OS(); tests and
	// chaos runs substitute a vfs.FaultFS to inject I/O failures.
	FS vfs.FS
	// Retry bounds the backoff loop wrapped around checkpoint file writes
	// when they fail with a transient (ErrIO) error. Zero value = retry
	// defaults (3 attempts, 5ms base).
	Retry retry.Policy
}

func (o Options) withDefaults() Options {
	if o.WALThreshold <= 0 {
		o.WALThreshold = 4096
	}
	if o.CheckpointInterval == 0 {
		o.CheckpointInterval = 5 * time.Second
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
	if o.FS == nil {
		o.FS = vfs.OS()
	}
	return o
}

// transientIO is the retry classifier: only failures tagged ErrIO are
// worth another attempt — corruption and validation errors never are.
func transientIO(err error) bool {
	return errors.Is(err, ErrIO) && !errors.Is(err, ErrCorrupt)
}

// tableState is the store's per-table bookkeeping: the table's one open
// WAL and, once the table is attached, the live source to checkpoint
// from. opMu orders checkpoints against Remove so a background checkpoint
// racing a drop cannot recreate the files of a removed table; removed
// marks the state dead once Remove has won.
type tableState struct {
	name string
	wal  *WAL

	opMu    sync.Mutex
	src     ShardCheckpointable // nil until AttachSharded
	removed bool

	// degMu guards degraded — the read-only-mode cause, nil when healthy.
	// It is its own (tiny) lock because the journal hot path checks it on
	// every write while checkpoints hold opMu for whole file writes.
	degMu    sync.Mutex
	degraded error
}

// degrade moves the table into read-only degraded mode, keeping the first
// cause (later failures do not overwrite it).
func (ts *tableState) degrade(cause error) {
	ts.degMu.Lock()
	defer ts.degMu.Unlock()
	if ts.degraded == nil {
		ts.degraded = cause
	}
}

// recover clears degraded mode after durability has been re-established.
func (ts *tableState) recover() {
	ts.degMu.Lock()
	defer ts.degMu.Unlock()
	ts.degraded = nil
}

// degradedErr returns nil when the table is healthy, or an ErrDegraded-
// tagged error carrying the original I/O cause when it is not.
func (ts *tableState) degradedErr() error {
	ts.degMu.Lock()
	defer ts.degMu.Unlock()
	if ts.degraded == nil {
		return nil
	}
	return fmt.Errorf("store: table %q: %w: %w", ts.name, ErrDegraded, ts.degraded)
}

// Store manages a data directory of durable tables. Every table, sharded
// or not, is one fileset (the unsharded engine is the one-shard case):
//
//	<table>.manifest   shard count, routing policy, cuts and bounds
//	<table>.s<i>.snap  one snapshot per shard, i < N, N ≥ 1
//	<table>.wal        the one write-ahead log of the whole table
//
// Open → LoadAll (warm start) → AttachSharded/SaveSharded per table →
// background checkpoints → Close. All methods are safe for concurrent use.
type Store struct {
	dir  string
	opts Options
	fs   vfs.FS

	mu     sync.Mutex
	tables map[string]*tableState // key: lower-cased table name
	closed bool

	stop chan struct{}
	done chan struct{}
}

// Open prepares a data directory (creating it if needed) and starts the
// background checkpointer.
func Open(dir string, opts Options) (*Store, error) {
	opts = opts.withDefaults()
	if err := opts.FS.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: create data dir: %w", err)
	}
	s := &Store{
		dir:    dir,
		opts:   opts,
		fs:     opts.FS,
		tables: make(map[string]*tableState),
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	if s.opts.CheckpointInterval > 0 {
		go s.run()
	} else {
		close(s.done)
	}
	return s, nil
}

// Dir returns the data directory path.
func (s *Store) Dir() string { return s.dir }

// fileKey maps a table name to its on-disk basename: lower-cased (table
// names are case-insensitive) and path-escaped so arbitrary HTTP-supplied
// names cannot traverse out of the data directory. Names ending in
// ".s<i>" are rejected by ValidateTableName before any file is created:
// fileKey does not escape dots, so such a name would collide with the
// per-shard files of a sharded table with the prefix name.
func fileKey(name string) string {
	return url.PathEscape(strings.ToLower(name))
}

// reservedSuffix matches table names that would collide with sharded
// per-shard file naming.
var reservedSuffix = regexp.MustCompile(`\.s\d+$`)

// ValidateTableName rejects names whose on-disk files would collide with
// the per-shard files of another table — "logs.s0" would be
// indistinguishable from shard 0 of a sharded table "logs", making it
// vanish at warm start and be deleted by the other table's Remove.
func ValidateTableName(name string) error {
	if reservedSuffix.MatchString(strings.ToLower(name)) {
		return fmt.Errorf("store: table name %q collides with per-shard file naming (<table>.s<i>); choose another name", name)
	}
	return nil
}

func (s *Store) manifestPath(name string) string {
	return filepath.Join(s.dir, fileKey(name)+".manifest")
}

func (s *Store) shardSnapPath(name string, i int) string {
	return filepath.Join(s.dir, fmt.Sprintf("%s.s%d.snap", fileKey(name), i))
}

func (s *Store) walPath(name string) string { return filepath.Join(s.dir, fileKey(name)+".wal") }

// state returns (creating if needed) the per-table bookkeeping, opening
// the table's WAL on first use.
func (s *Store) state(name string) (*tableState, error) {
	if err := ValidateTableName(name); err != nil {
		return nil, err
	}
	key := strings.ToLower(name)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, fmt.Errorf("store: closed")
	}
	if ts, ok := s.tables[key]; ok {
		return ts, nil
	}
	// a table being created anew owns its name: whatever a crashed drop
	// left under it must not pair with the files of this table's first
	// checkpoint
	if err := s.unlink(s.tableFiles(name)); err != nil {
		return nil, err
	}
	wal, _, err := OpenWALFS(s.fs, s.walPath(name), !s.opts.NoSync)
	if err != nil {
		return nil, err
	}
	ts := &tableState{name: name, wal: wal}
	s.tables[key] = ts
	return ts, nil
}

// AttachSharded connects a live table, sharded or not, to its journal:
// the returned log implements the catalog's Journal interface, so every
// Insert/Delete on the table is appended to the WAL before the in-memory
// apply. The store also remembers the table as a checkpoint source.
//
// The names AttachSharded, SaveSharded and ShardedTableLog and this
// signature are pinned by the benchmark module (benchmark/ladder), which
// cannot change in the same PR as the code it measures. The router and
// shard count are no longer consulted — WAL records carry no shard index,
// replay routes them — so dropping the "Sharded" from the three names and
// the two arguments is a mechanical follow-up for the next benchmark PR.
func (s *Store) AttachSharded(t ShardCheckpointable, _ any, _ int) (*ShardedTableLog, error) {
	ts, err := s.state(t.Name())
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	ts.src = t
	s.mu.Unlock()
	return &ShardedTableLog{ts: ts}, nil
}

// SaveSharded checkpoints an attached table now: the manifest, every
// shard snapshot, then the one log truncation — the journaled updates are
// folded into the snapshots.
func (s *Store) SaveSharded(t ShardCheckpointable) error {
	s.mu.Lock()
	ts := s.tables[strings.ToLower(t.Name())]
	s.mu.Unlock()
	if ts == nil {
		return fmt.Errorf("store: table %q has no journal attached (AttachSharded first)", t.Name())
	}
	return s.saveShardedState(ts, t)
}

// saveShardedState checkpoints through an existing tableState. Taking opMu
// for the duration excludes Remove, so a concurrent drop cannot interleave
// with the file writes; a state Remove already won on is left untouched.
//
// The payloads are captured under the table's exclusive lock and stamped
// with the WAL's generation + 1 (see publish). Holding the table lock
// across the file writes trades some query tail latency during
// checkpoints for a protocol with no lost-update windows; the WAL
// threshold keeps checkpoints infrequent.
//
// Transient (ErrIO) write failures are retried with bounded backoff; if
// the retries are exhausted the table degrades to read-only mode, and a
// later successful save — durability re-established — recovers it.
func (s *Store) saveShardedState(ts *tableState, t ShardCheckpointable) error {
	ts.opMu.Lock()
	defer ts.opMu.Unlock()
	if ts.removed {
		return nil
	}
	start := time.Now()
	err := t.CheckpointShards(func(info engine.ShardInfo, innerEngine string, schema sqlfe.Schema, payloads [][]byte, shardRows []int, rows int) error {
		return s.publish(ts, ts.wal.Gen()+1, info, innerEngine, schema, payloads, shardRows, rows)
	})
	switch {
	case err == nil:
		checkpointSecs.ObserveDuration(time.Since(start))
		checkpointTotal.Inc()
		ts.recover()
	case transientIO(err):
		ts.degrade(err)
	}
	return err
}

// publish writes one checkpoint of a table at generation gen, which must
// exceed the WAL's: the manifest, then every shard snapshot stamped gen,
// then the one log truncation to gen.
//
// The manifest goes FIRST for the sake of the routing bounds: an insert
// outside a shard's bounding rectangle grows the bounds in memory, and
// the grown bounds must be on disk before any snapshot folds that insert
// in — otherwise a crash between snapshot and manifest would restore
// stale-narrow bounds while skipping the WAL record that grew them, and
// the warm-started router would prune the shard that owns the key.
// Manifest bounds are conservative (only ever widen) and its generation
// list is informational, so a crash at any point leaves every shard
// either level with the log or in the detectable snapshot-ahead state the
// loader resolves (skip the folded records, roll the checkpoint forward).
func (s *Store) publish(ts *tableState, gen uint64, info engine.ShardInfo, innerEngine string, schema sqlfe.Schema, payloads [][]byte, shardRows []int, rows int) error {
	if len(payloads) != info.Shards {
		return fmt.Errorf("store: table %q: %d shard payloads for %d shards", ts.name, len(payloads), info.Shards)
	}
	m := &ShardManifest{
		Name:   ts.name,
		Engine: innerEngine,
		Policy: info.Policy,
		Dim:    info.Dim,
		Cuts:   info.Cuts,
		Bounds: info.Bounds,
		Shards: info.Shards,
		Rows:   rows,
		Gens:   make([]uint64, info.Shards),
	}
	for i := range m.Gens {
		m.Gens[i] = gen
	}
	if err := retry.Do(context.Background(), s.opts.Retry, transientIO, func() error {
		return WriteManifestFileFS(s.fs, s.manifestPath(ts.name), m)
	}); err != nil {
		return err
	}
	for i, payload := range payloads {
		snap := &Snapshot{
			Name:    ts.name,
			Engine:  innerEngine,
			Gen:     gen,
			Rows:    shardRows[i],
			Schema:  schema,
			Payload: payload,
		}
		if err := retry.Do(context.Background(), s.opts.Retry, transientIO, func() error {
			return WriteSnapshotFileFS(s.fs, s.shardSnapPath(ts.name, i), snap)
		}); err != nil {
			return err
		}
	}
	return ts.wal.Truncate(gen)
}

// Checkpoint snapshots every attached table whose WAL has grown past the
// threshold. The background checkpointer calls it on a timer; it is also
// safe to call directly.
func (s *Store) Checkpoint() error {
	return s.checkpointWhere(func(pending int) bool { return pending >= s.opts.WALThreshold })
}

// CheckpointAll snapshots every attached table with any journaled updates
// — the final flush on graceful shutdown.
func (s *Store) CheckpointAll() error {
	return s.checkpointWhere(func(pending int) bool { return pending > 0 })
}

func (s *Store) checkpointWhere(needed func(pending int) bool) error {
	// src is captured with the state under s.mu, which AttachSharded writes
	// it under
	type due struct {
		ts  *tableState
		src ShardCheckpointable
	}
	s.mu.Lock()
	var work []due
	for _, ts := range s.tables {
		if ts.degradedErr() != nil {
			// a degraded table's storage is already known-bad: the periodic
			// checkpointer leaves it alone instead of hammering a failing
			// disk; recovery is an explicit SaveSharded or restart
			continue
		}
		if ts.src != nil && needed(ts.wal.Records()) {
			work = append(work, due{ts, ts.src})
		}
	}
	s.mu.Unlock()
	var firstErr error
	for _, d := range work {
		ts := d.ts
		// checkpoint through the captured state, never through state():
		// a table dropped since the scan must not have its files recreated
		if err := s.saveShardedState(ts, d.src); err != nil {
			s.opts.Logf("store: checkpoint %s: %v", ts.name, err)
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		s.opts.Logf("store: checkpointed table %s", ts.name)
	}
	return firstErr
}

// shardFiles lists the files in the data directory named
// "<table>.s<i>.snap". Shard files are discovered from the directory
// rather than from a shard count: a crash may have left files the current
// manifest does not describe. The match is anchored on the whole basename
// — a bare prefix test would also catch "<name>.staging.s0.snap", the
// shard files of a DIFFERENT table extending this name.
func (s *Store) shardFiles(name string) []string {
	own := regexp.MustCompile(`^` + regexp.QuoteMeta(fileKey(name)) + `\.s\d+\.snap$`)
	var out []string
	if entries, err := s.fs.ReadDir(s.dir); err == nil {
		for _, e := range entries {
			if !e.IsDir() && own.MatchString(e.Name()) {
				out = append(out, filepath.Join(s.dir, e.Name()))
			}
		}
	}
	return out
}

// tableFiles lists every file a table can have in the data directory, in
// the order a drop must unlink them: the manifest, which a load starts
// from, goes first, so a drop cut short leaves either the whole table or
// orphans LoadAll logs and ignores, never a manifest whose shard files are
// missing, which would fail every boot.
func (s *Store) tableFiles(name string) []string {
	return append([]string{s.manifestPath(name), s.walPath(name)}, s.shardFiles(name)...)
}

// unlink removes files in order (missing ones are fine) and, if any was
// there, makes the unlinks durable, so a machine crash cannot resurrect
// them at the next boot. It stops at the first file it fails to remove:
// the files after it must outlive it (see tableFiles).
func (s *Store) unlink(paths []string) error {
	var err error
	removed := false
	for _, p := range paths {
		if err = s.fs.Remove(p); err == nil {
			removed = true
		} else if !os.IsNotExist(err) {
			break
		}
		err = nil
	}
	if removed {
		if serr := syncDir(s.fs, s.dir); err == nil {
			err = serr
		}
	}
	return err
}

// Remove deletes a table's persisted files — manifest, shard snapshots
// and WAL — so a dropped table cannot resurrect on the next boot; the
// manifest goes before the files it names (see tableFiles), so a crash or
// failure part-way cannot fail the next boot either. Taking the state's
// opMu waits out any
// in-flight checkpoint of the table and marks the state removed, so a
// later checkpoint attempt is a no-op instead of recreating the files.
func (s *Store) Remove(name string) error {
	key := strings.ToLower(name)
	s.mu.Lock()
	ts := s.tables[key]
	delete(s.tables, key)
	s.mu.Unlock()
	if ts != nil {
		ts.opMu.Lock()
		ts.removed = true
		ts.wal.Close()
		ts.opMu.Unlock()
	}
	return s.unlink(s.tableFiles(name))
}

// Degraded reports whether a table is in read-only degraded mode, and if
// so, the ErrDegraded-tagged cause.
func (s *Store) Degraded(name string) (bool, error) {
	s.mu.Lock()
	ts := s.tables[strings.ToLower(name)]
	s.mu.Unlock()
	if ts == nil {
		return false, nil
	}
	if err := ts.degradedErr(); err != nil {
		return true, err
	}
	return false, nil
}

// DegradedTables lists the tables currently in degraded mode, sorted.
func (s *Store) DegradedTables() []string {
	s.mu.Lock()
	var out []string
	for _, ts := range s.tables {
		if ts.degradedErr() != nil {
			out = append(out, ts.name)
		}
	}
	s.mu.Unlock()
	sort.Strings(out)
	return out
}

// Close stops the background checkpointer and closes every WAL. It does
// not checkpoint; call CheckpointAll first for a clean shutdown.
func (s *Store) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	if s.opts.CheckpointInterval > 0 {
		close(s.stop)
		<-s.done
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	var firstErr error
	for _, ts := range s.tables {
		if err := ts.wal.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	s.tables = make(map[string]*tableState)
	return firstErr
}

// run is the background checkpointer loop.
func (s *Store) run() {
	defer close(s.done)
	ticker := time.NewTicker(s.opts.CheckpointInterval)
	defer ticker.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-ticker.C:
			if err := s.Checkpoint(); err != nil {
				s.opts.Logf("store: background checkpoint: %v", err)
			}
		}
	}
}

// ShardedTableLog is one table's journaling handle, satisfying the
// catalog's Journal interface: appends happen before the in-memory apply,
// and Rollback undoes the last append when that apply fails. The catalog
// serializes all three behind the table's write lock. Whatever shards a
// batch routes to, it is one group commit on the table's one WAL — one
// write, one fsync, all-or-nothing across a crash.
//
// An append that fails with an I/O error (as opposed to a validation
// error) degrades the table to read-only mode — the WAL could not be
// extended, so accepting more writes would silently drop durability.
// Every later write is rejected with ErrDegraded until the table
// recovers (explicit checkpoint or restart).
type ShardedTableLog struct {
	ts *tableState
}

// append journals records through the degraded-mode gate.
func (l *ShardedTableLog) append(recs []Record) error {
	if err := l.ts.degradedErr(); err != nil {
		return err
	}
	err := l.ts.wal.AppendGroup(recs)
	if err != nil && transientIO(err) {
		l.ts.degrade(err)
	}
	return err
}

// Insert journals an insert.
func (l *ShardedTableLog) Insert(point []float64, value float64) error {
	return l.append([]Record{{Op: OpInsert, Point: point, Value: value}})
}

// Delete journals a delete.
func (l *ShardedTableLog) Delete(point []float64, value float64) error {
	return l.append([]Record{{Op: OpDelete, Point: point, Value: value}})
}

// InsertMany journals a batch of inserts as one group commit.
func (l *ShardedTableLog) InsertMany(points [][]float64, values []float64) error {
	recs := make([]Record, len(points))
	for i := range points {
		recs[i] = Record{Op: OpInsert, Point: points[i], Value: values[i]}
	}
	return l.append(recs)
}

// Rollback undoes the most recent append.
func (l *ShardedTableLog) Rollback() error { return l.ts.wal.Rollback() }
