package store

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/vfs"
)

var wholeKeyRange = dataset.Rect1(-1e18, 1e18)

// TestCrashUnderConcurrentWritesAndCheckpoints runs two InsertMany writers,
// a reader and a CheckpointAll loop on a synced store until a crash fault
// fires at the k-th WAL sync, snapshot write or WAL truncate. Journal
// appends and checkpoint file I/O run outside the table's state lock, so
// this is where a checkpoint truncating a journaled but unapplied record,
// or a reader seeing rows the log then drops, would show. After a restart
// the table must hold every acked row, plus at most the rows of the
// batches that failed in flight; the reader's COUNT must never go down.
func TestCrashUnderConcurrentWritesAndCheckpoints(t *testing.T) {
	const initial, batch = 600, 4
	for _, target := range []struct {
		what string
		op   vfs.Op
		path string
		ks   []int
	}{
		{"WAL sync", vfs.OpSync, ".wal", []int{0, 5, 17}},
		{"snapshot write", vfs.OpWrite, ".snap", []int{0, 2, 5}},
		{"WAL truncate", vfs.OpTruncate, ".wal", []int{0, 2, 5}},
	} {
		for _, k := range target.ks {
			t.Run(fmt.Sprintf("%s %d", target.what, k), func(t *testing.T) {
				dir := t.TempDir()
				fsys := vfs.NewFaultFS(vfs.OS())
				st, err := Open(dir, faultOpts(fsys))
				if err != nil {
					t.Fatal(err)
				}
				tbl, _ := buildTable(t, "sensors", initial, 3)
				persist(t, st, tbl)
				fsys.Inject(&vfs.Fault{Op: target.op, Path: target.path, After: k, Crash: true})

				var acked, inFlight atomic.Int64
				var writers sync.WaitGroup
				for w := range 2 {
					writers.Add(1)
					go func() {
						defer writers.Done()
						for i := 0; i < 20000 && !fsys.Crashed(); i++ {
							points, values := make([][]float64, batch), make([]float64, batch)
							for r := range points {
								points[r] = []float64{float64((w*batch + r + i) % 24)}
								values[r] = float64(i)
							}
							if _, err := tbl.InsertMany(points, values); err != nil {
								inFlight.Add(batch)
								return
							}
							acked.Add(batch)
						}
					}()
				}
				writing, reading := make(chan struct{}), make(chan struct{})
				go func() {
					writers.Wait()
					close(writing)
				}()
				go func() {
					defer close(reading)
					last := -1.0
					for {
						select {
						case <-writing:
							return
						default:
						}
						r, err := tbl.Query(dataset.Count, wholeKeyRange)
						if err != nil {
							t.Error(err)
							return
						}
						if r.Estimate < last {
							t.Errorf("reader COUNT went down from %v to %v", last, r.Estimate)
						}
						last = r.Estimate
					}
				}()
			checkpoints:
				for !fsys.Crashed() {
					select {
					case <-writing:
						break checkpoints
					default:
					}
					_ = st.CheckpointAll() // fails once the filesystem has crashed
				}
				<-writing
				<-reading
				if !fsys.Crashed() {
					t.Fatalf("the %s fault never fired", target.what)
				}
				st.Close() // releases descriptors; the crashed filesystem flushes nothing

				fsys.Revive()
				st2, err := Open(dir, testOpts())
				if err != nil {
					t.Fatal(err)
				}
				defer st2.Close()
				loaded, err := st2.LoadAll()
				if err != nil {
					t.Fatal(err)
				}
				r, err := loaded[0].Engine.Query(dataset.Count, wholeKeyRange)
				if err != nil {
					t.Fatal(err)
				}
				lo, hi := initial+acked.Load(), initial+acked.Load()+inFlight.Load()
				if n := int64(r.Estimate); n < lo || n > hi {
					t.Errorf("recovered COUNT %d, want within [%d, %d] (%d acked, %d in flight)", n, lo, hi, acked.Load(), inFlight.Load())
				}
			})
		}
	}
}

// TestReadersPassCheckpointIO: a query returns while CheckpointAll is
// still inside a slow snapshot write, before the checkpoint has reached
// its WAL truncate. A checkpoint that held the table's exclusive lock
// across its file I/O would make the query wait for all of it.
func TestReadersPassCheckpointIO(t *testing.T) {
	dir := t.TempDir()
	fsys := vfs.NewFaultFS(vfs.OS())
	st, err := Open(dir, faultOpts(fsys))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	tbl, _ := buildTable(t, "sensors", 600, 3)
	persist(t, st, tbl)
	if _, err := tbl.InsertMany([][]float64{{1}, {2}}, []float64{1, 2}); err != nil {
		t.Fatal(err)
	}
	fsys.Inject(&vfs.Fault{Op: vfs.OpWrite, Path: ".snap", Count: 1, Delay: 300 * time.Millisecond})
	truncates := fsys.OpCount(vfs.OpTruncate)
	ckpt := make(chan error, 1)
	go func() { ckpt <- st.CheckpointAll() }()
	for fsys.Fired() == 0 {
		runtime.Gosched()
	}
	r, err := tbl.Query(dataset.Count, wholeKeyRange)
	if err != nil || r.Estimate != 602 {
		t.Errorf("COUNT during the checkpoint = %v, %v; want 602", r.Estimate, err)
	}
	if fsys.OpCount(vfs.OpTruncate) != truncates {
		t.Error("the query returned only after the checkpoint's file I/O")
	}
	if err := <-ckpt; err != nil {
		t.Fatal(err)
	}
	if fsys.OpCount(vfs.OpTruncate) == truncates {
		t.Fatal("the checkpoint never truncated the WAL; the test is not seeing it")
	}
}
