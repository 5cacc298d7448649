package catalog

import (
	"bytes"
	"context"
	"fmt"
	"regexp"
	"runtime"
	"slices"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/sqlfe"
)

// The lock-split interleavings: journal appends and checkpoint flushes run
// under the write-order lock alone, so readers pass them while writers and
// engine swaps queue behind them. Each test holds a journal append or a
// flush open on a channel and checks who gets past it. None sleeps: a
// call that should wait is seen parked on a lock in a goroutine dump, and
// one that should not is failed the moment it parks on one.

// gatedJournal records appended values in order. With entered set, every
// append announces itself there; with release set, it then waits until
// release is closed.
type gatedJournal struct {
	mu      sync.Mutex
	log     []float64
	entered chan struct{}
	release chan struct{}
}

func (j *gatedJournal) append(values ...float64) error {
	j.mu.Lock()
	j.log = append(j.log, values...)
	j.mu.Unlock()
	if j.entered != nil {
		j.entered <- struct{}{}
	}
	if j.release != nil {
		<-j.release
	}
	return nil
}

func (j *gatedJournal) Insert(_ []float64, v float64) error { return j.append(v) }
func (j *gatedJournal) Delete(_ []float64, v float64) error { return j.append(-v) }
func (j *gatedJournal) InsertMany(_ [][]float64, vs []float64) error {
	return j.append(vs...)
}
func (j *gatedJournal) Rollback() error { return fmt.Errorf("gatedJournal: no rollback") }

func newGatedJournal() *gatedJournal {
	return &gatedJournal{entered: make(chan struct{}), release: make(chan struct{})}
}

// applyLog is an UpdateObserver recording applied values in order.
type applyLog struct {
	mu  sync.Mutex
	log []float64
}

func (a *applyLog) ObserveInsert(_ []float64, v float64) {
	a.mu.Lock()
	a.log = append(a.log, v)
	a.mu.Unlock()
}

func (a *applyLog) ObserveDelete(_ []float64, v float64) {
	a.mu.Lock()
	a.log = append(a.log, -v)
	a.mu.Unlock()
}

// lockWait matches a goroutine parked on a sync.Mutex or sync.RWMutex —
// the table locks. On the Go this module requires, those waits report
// their own reasons; a bare "semacquire" is a runtime semaphore (a GC
// start, or the stop-the-world of this file's own runtime.Stack dumps)
// that any allocating reader can pass through, not a table lock.
var lockWait = regexp.MustCompile(`^goroutine \d+ \[sync\.(RW)?Mutex\.R?Lock`)

// parkedIn counts the goroutines with frame on their stack that are
// parked on a lock.
func parkedIn(frame string) int {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	n := 0
	for _, g := range bytes.Split(buf, []byte("\n\n")) {
		if lockWait.Match(g) && bytes.Contains(g, []byte(frame)) {
			n++
		}
	}
	return n
}

// parks waits until n goroutines with frame on their stack are parked on
// a lock, and reports false if ev fires first. An event sent before a
// goroutine parked is always seen.
func parks(frame string, n int, ev <-chan struct{}) bool {
	for {
		parked := parkedIn(frame) >= n
		select {
		case <-ev:
			return false
		default:
		}
		if parked {
			return true
		}
		runtime.Gosched()
	}
}

// passes runs fn on its own goroutine and fails the test if that goroutine
// parks on a lock inside frame before fn returns.
func passes(t *testing.T, frame string, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn()
	}()
	if parks(frame, 1, done) {
		t.Fatalf("%s waits on a table lock", frame)
	}
}

var wholeTable = dataset.Rect1(-1, 1e9)

func countOf(t *testing.T, tbl *Table) float64 {
	t.Helper()
	r, err := tbl.Query(dataset.Count, wholeTable)
	if err != nil {
		t.Fatal(err)
	}
	return r.Estimate
}

// readersSee checks that both read entry points pass any write-order
// holder and answer the whole-table COUNT want.
func readersSee(t *testing.T, tbl *Table, want float64) {
	t.Helper()
	passes(t, "(*Table).QueryCtx", func() {
		if r, err := tbl.QueryCtx(context.Background(), dataset.Count, wholeTable); err != nil || r.Estimate != want {
			t.Errorf("QueryCtx COUNT = %v, %v; want %v", r.Estimate, err, want)
		}
	})
	passes(t, "(*Table).QueryBatchCtx", func() {
		out := tbl.QueryBatchCtx(context.Background(), []core.BatchQuery{{Kind: dataset.Count, Rect: wholeTable}})
		if out[0].Err != nil || out[0].Result.Estimate != want {
			t.Errorf("QueryBatchCtx COUNT = %v, %v; want %v", out[0].Result.Estimate, out[0].Err, want)
		}
	})
}

// TestReadersPassJournalAppend (a): while a journaled InsertMany is inside
// its append, queries answer the pre-insert COUNT. Fails if the append
// runs under the exclusive state lock.
func TestReadersPassJournalAppend(t *testing.T) {
	tbl, _ := registerAdaptiveTable(t, 1000)
	j := newGatedJournal()
	tbl.AttachJournal(j)
	done := make(chan error, 1)
	go func() {
		_, err := tbl.InsertMany([][]float64{{1}, {2}, {3}}, []float64{1, 2, 3})
		done <- err
	}()
	<-j.entered
	readersSee(t, tbl, 1000)
	close(j.release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if got := countOf(t, tbl); got != 1003 {
		t.Fatalf("COUNT after the insert = %v, want 1003", got)
	}
}

// TestCheckpointFlushBlocksWritersNotReaders (b): while a CheckpointShards
// flush is open, queries answer, and an Insert started meanwhile reaches
// the journal only after the flush returns. The reader half fails if
// flush runs under the exclusive state lock, the writer half if it runs
// outside the write-order lock.
func TestCheckpointFlushBlocksWritersNotReaders(t *testing.T) {
	tbl, _ := registerAdaptiveTable(t, 1000)
	j := newGatedJournal()
	close(j.release)
	tbl.AttachJournal(j)
	inFlush, release := make(chan struct{}), make(chan struct{})
	ckpt := make(chan error, 1)
	go func() {
		ckpt <- tbl.CheckpointShards(func(_ engine.ShardInfo, _ string, _ sqlfe.Schema, _ [][]byte, _ []int, rows int) error {
			if rows != 1000 {
				t.Errorf("checkpoint cut holds %d rows, want 1000", rows)
			}
			close(inFlush)
			<-release
			return nil
		})
	}()
	<-inFlush
	readersSee(t, tbl, 1000)

	ins := make(chan error, 1)
	go func() { ins <- tbl.Insert([]float64{5}, 7) }()
	waited := parks("(*Table).update", 1, j.entered)
	close(release)
	if waited {
		<-j.entered
	}
	if err := <-ckpt; err != nil {
		t.Fatal(err)
	}
	if err := <-ins; err != nil {
		t.Fatal(err)
	}
	if !waited {
		t.Fatal("Insert reached the journal during the checkpoint flush")
	}
	if got := countOf(t, tbl); got != 1001 {
		t.Fatalf("COUNT after the insert = %v, want 1001", got)
	}
}

// TestJournalOrderIsApplyOrder (c): the journal's record order equals the
// observer's apply order. First deterministically: a writer queued behind
// another's journal append must not reach the journal until the first has
// applied, even while a reader holds the state lock. Then under load, with
// 8 concurrent journaled writers. Fails if update releases the
// write-order lock between append and apply.
func TestJournalOrderIsApplyOrder(t *testing.T) {
	tbl, _ := registerAdaptiveTable(t, 1000)
	j := &gatedJournal{entered: make(chan struct{}, 2), release: make(chan struct{})}
	tbl.AttachJournal(j)
	applied := &applyLog{}
	tbl.AttachObserver(applied)

	first, second := make(chan error, 1), make(chan error, 1)
	go func() { first <- tbl.Insert([]float64{1}, 1) }()
	<-j.entered
	go func() { second <- tbl.Insert([]float64{2}, 2) }()
	parks("(*Table).update", 1, nil) // queued behind the first append
	tbl.mu.RLock()                   // a query in flight
	close(j.release)
	ordered := parks("(*Table).update", 2, j.entered)
	tbl.mu.RUnlock()
	for _, c := range []chan error{first, second} {
		if err := <-c; err != nil {
			t.Fatal(err)
		}
	}
	if !ordered {
		t.Fatal("a second writer reached the journal before the first had applied")
	}

	j.entered, j.release = nil, nil
	const writers, each = 8, 40
	var wg sync.WaitGroup
	for w := range writers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range each {
				v := float64(w*each + i + 10)
				var err error
				switch i % 3 {
				case 0:
					err = tbl.Insert([]float64{v}, v)
				case 1:
					_, err = tbl.InsertMany([][]float64{{v}, {v}}, []float64{v, v + 0.5})
				default: // the row inserted two steps back
					err = tbl.Delete([]float64{v - 2}, v-2)
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if len(j.log) < writers*each || !slices.Equal(j.log, applied.log) {
		t.Fatalf("journal order differs from apply order:\njournal %v\napplied %v", j.log, applied.log)
	}
}

// TestSwapEngineWaitsForJournaledUpdate (d): SwapEngine started while a
// journaled Insert is inside its append runs only after that insert has
// been applied, to the engine being replaced. Fails if SwapEngine skips
// the write-order lock.
func TestSwapEngineWaitsForJournaledUpdate(t *testing.T) {
	tbl, _ := registerAdaptiveTable(t, 1000)
	j := newGatedJournal()
	tbl.AttachJournal(j)
	ins := make(chan error, 1)
	go func() { ins <- tbl.Insert([]float64{5}, 7) }()
	<-j.entered

	inPrep := make(chan struct{})
	swapped := make(chan error, 1)
	go func() {
		swapped <- tbl.SwapEngine(func(old engine.Engine) (engine.Engine, error) {
			close(inPrep)
			if r, err := old.Query(dataset.Count, wholeTable); err != nil || r.Estimate != 1001 {
				t.Errorf("prep saw COUNT %v, %v on the old engine; want the in-flight insert applied (1001)", r.Estimate, err)
			}
			return old, nil
		})
	}()
	waited := parks("(*Table).SwapEngine", 1, inPrep)
	close(j.release)
	if err := <-ins; err != nil {
		t.Fatal(err)
	}
	if err := <-swapped; err != nil {
		t.Fatal(err)
	}
	if !waited {
		t.Fatal("SwapEngine ran while a journaled update was in flight")
	}
	if got := countOf(t, tbl); got != 1001 {
		t.Fatalf("COUNT after the swap = %v, want 1001", got)
	}
}
