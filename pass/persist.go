package pass

import (
	"fmt"

	"repro/internal/engine"
	"repro/internal/sqlfe"
	"repro/internal/store"
)

// Durable sessions: a Session with a store.Store attached persists its
// catalog — every registered table is snapshotted to the store's data
// directory (one manifest plus one snapshot per shard, an unsharded table
// being the one-shard case), every Insert/Delete is journaled to the
// table's one write-ahead log before the in-memory apply, and dropping a
// table removes its files.
// Reattaching a store to a fresh session (a passd restart) restores the
// whole catalog from snapshots + WAL replay, with no synopsis rebuilt.

// AttachStore wires a durable store under the session: every table
// already persisted in the store's data directory is loaded into the
// catalog (snapshot decode + WAL replay — the warm-start path), and all
// subsequent Register/Insert/Delete/Drop calls are persisted. It returns
// the number of tables restored.
func (s *Session) AttachStore(st *store.Store) (int, error) {
	if s.store != nil {
		return 0, fmt.Errorf("pass: session already has a store attached")
	}
	loaded, err := st.LoadAll()
	if err != nil {
		return 0, err
	}
	for _, lt := range loaded {
		s.applyScatterMode(lt.Engine)
		tbl, err := s.cat.Register(lt.Name, lt.Engine, lt.Schema)
		if err != nil {
			return 0, fmt.Errorf("pass: warm start table %q: %w", lt.Name, err)
		}
		// warm-started tables join the adaptive and audit layers too
		// (statistics + tap; no rebuilds and no exact ground
		// truth — the base rows live only in the synopsis)
		s.attachHooks(tbl)
		j, err := st.AttachSharded(tbl, nil, 0)
		if err != nil {
			return 0, err
		}
		tbl.AttachJournal(j)
	}
	s.store = st
	return len(loaded), nil
}

// Persistent reports whether the session has a durable store attached.
func (s *Session) Persistent() bool { return s.store != nil }

// RegisterEngine registers an arbitrary engine under a table name with an
// explicit schema — the path for engines built outside the pass API, by
// the engine factory (passquery) or BuildShardedEngine. With a store
// attached it persists like Register.
func (s *Session) RegisterEngine(name string, eng engine.Engine, schema sqlfe.Schema) error {
	if eng == nil {
		return fmt.Errorf("pass: nil engine")
	}
	schema.Table = name
	return s.register(name, eng, schema, s.store != nil)
}

// RegisterEngineEphemeral registers an arbitrary engine that is
// intentionally NOT persisted, even with a store attached — the
// RegisterEphemeral counterpart of RegisterEngine.
func (s *Session) RegisterEngineEphemeral(name string, eng engine.Engine, schema sqlfe.Schema) error {
	if eng == nil {
		return fmt.Errorf("pass: nil engine")
	}
	schema.Table = name
	return s.register(name, eng, schema, false)
}

// register adds the engine to the catalog and, on the persist path,
// attaches its journal and snapshots it — in that order: any insert that
// sneaks in between registration and the snapshot is either journaled (and
// truncated when the snapshot folds it in) or captured by the snapshot
// itself, so no acknowledged update can miss both. A table that was
// promised durability but cannot be
// persisted (engine.ErrNotSerializable, disk errors) is rolled back out
// of the catalog and the store — callers choose explicitly between
// failing and RegisterEphemeral, never a silent skip.
func (s *Session) register(name string, eng engine.Engine, schema sqlfe.Schema, persist bool) error {
	s.applyScatterMode(eng)
	tbl, err := s.cat.Register(name, eng, schema)
	if err != nil {
		return err
	}
	s.attachHooks(tbl)
	if !persist {
		return nil
	}
	rollback := func() {
		_ = s.cat.Drop(name)
		_ = s.store.Remove(name)
	}
	j, err := s.store.AttachSharded(tbl, nil, 0)
	if err != nil {
		rollback()
		return fmt.Errorf("pass: attach journal for table %q: %w", name, err)
	}
	tbl.AttachJournal(j)
	if err := s.store.SaveSharded(tbl); err != nil {
		rollback()
		return fmt.Errorf("pass: persist table %q: %w", name, err)
	}
	return nil
}

// Checkpoint snapshots every table with journaled updates and truncates
// the corresponding logs. No-op without a store.
func (s *Session) Checkpoint() error {
	if s.store == nil {
		return nil
	}
	return s.store.CheckpointAll()
}

// Close stops the background re-optimizer and audit workers (if those
// layers are on), performs a final checkpoint, and releases the attached
// store's files. Without a store only the worker shutdowns remain.
func (s *Session) Close() error {
	if s.adaptive != nil {
		s.adaptive.reopt.Stop()
	}
	s.auditStop()
	if s.store == nil {
		return nil
	}
	err := s.store.CheckpointAll()
	if cerr := s.store.Close(); err == nil {
		err = cerr
	}
	return err
}
