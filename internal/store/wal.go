package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"sync"
	"time"

	"repro/internal/binenc"
	"repro/internal/obs"
	"repro/internal/vfs"
)

// Durability instruments, recorded per group commit: one append latency
// observation covers the framed write plus the (optional) fsync, and the
// fsync histogram isolates the device-flush cost inside it.
var (
	walAppends      = obs.Default().NewCounter("pass_wal_appends_total", "WAL group commits")
	walRecords      = obs.Default().NewCounter("pass_wal_records_total", "update records journaled")
	walAppendSecs   = obs.Default().NewHistogram("pass_wal_append_seconds", "WAL group-commit latency (write+fsync)", nil)
	walFsyncSecs    = obs.Default().NewHistogram("pass_wal_fsync_seconds", "WAL fsync latency within a group commit", nil)
	checkpointSecs  = obs.Default().NewHistogram("pass_checkpoint_seconds", "snapshot checkpoint latency", nil)
	checkpointTotal = obs.Default().NewCounter("pass_checkpoints_total", "snapshot checkpoints completed")
)

// Write-ahead log format:
//
//	magic      u64 varint  ("PWAL")
//	version    u64 varint
//	generation u64 LE (fixed 8 bytes, rewritten in place by Truncate)
//	record*
//
// record = [len uvarint][payload][crc32(payload) u32 LE-as-uvarint]
// payload = [op u8][dims uvarint][point f64 × dims][value f64]
//
// Every record is appended with a single write(2) call, so a crash leaves
// at most one torn record at the tail — which the scanner rejects with a
// clear ErrCorrupt error rather than silently dropping state.
//
// The generation pairs the log with its snapshot: a checkpoint writes the
// snapshot stamped generation G+1 and then truncates the WAL to G+1, so a
// crash between the two leaves snapshot G+1 over WAL G — recovery sees
// the mismatch and discards the already-folded records instead of
// replaying them twice.
const (
	walMagic   = 0x5057414C // "PWAL"
	walVersion = 1
)

// Op tags a WAL record.
type Op byte

// WAL record operations.
const (
	OpInsert Op = 1
	OpDelete Op = 2
)

// Record is one journaled update.
type Record struct {
	Op    Op
	Point []float64
	Value float64
}

// WAL is one table's append-only update journal. Appends and truncations
// are already serialized by the catalog table's write-order lock, but the
// background checkpointer polls Records concurrently, so the WAL guards
// its state with its own mutex.
type WAL struct {
	mu   sync.Mutex
	path string
	f    vfs.File
	// size is the current valid end offset; prevSize is the offset before
	// the most recent append (single or group), enabling rollback after a
	// failed in-memory apply.
	size, prevSize int64
	// records counts the valid records currently in the log; prevRecords
	// is the count before the most recent append.
	records, prevRecords int
	// gen is the checkpoint generation this log continues from.
	gen uint64
	// sync forces an fsync after every append (durable but slower).
	sync bool
}

// headerLen is the encoded length of magic+version+generation.
var headerLen = func() int64 {
	var buf bytes.Buffer
	w := binenc.NewWriter(&buf)
	w.U64(walMagic)
	w.U64(walVersion)
	_ = w.Flush()
	return int64(buf.Len()) + 8 // + fixed-width generation
}()

// encodeHeader renders the full WAL header for a generation.
func encodeHeader(gen uint64) []byte {
	var buf bytes.Buffer
	w := binenc.NewWriter(&buf)
	w.U64(walMagic)
	w.U64(walVersion)
	_ = w.Flush()
	var g [8]byte
	binary.LittleEndian.PutUint64(g[:], gen)
	return append(buf.Bytes(), g[:]...)
}

// OpenWAL opens (or creates) a table's write-ahead log on the real
// filesystem.
func OpenWAL(path string, syncAppends bool) (*WAL, []Record, error) {
	return OpenWALFS(vfs.OS(), path, syncAppends)
}

// OpenWALFS opens (or creates) a table's write-ahead log, scans and
// returns the journaled records, and positions the file for appending. A
// torn or corrupt record makes the open fail with an error wrapping
// ErrCorrupt — recovery must be explicit, never silent.
func OpenWALFS(fsys vfs.FS, path string, syncAppends bool) (*WAL, []Record, error) {
	f, err := fsys.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("store: open WAL: %w", err)
	}
	w := &WAL{path: path, f: f, sync: syncAppends}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("store: stat WAL: %w", err)
	}
	if st.Size() == 0 {
		// fresh log: write the header at generation 0
		if _, err := f.Write(encodeHeader(0)); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("store: init WAL: %w", err)
		}
		w.size, w.prevSize = headerLen, headerLen
		return w, nil, nil
	}
	recs, gen, end, err := scanWAL(f, st.Size())
	if err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("store: WAL %s: %w", path, err)
	}
	if _, err := f.Seek(end, io.SeekStart); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("store: seek WAL: %w", err)
	}
	w.size, w.prevSize = end, end
	w.records = len(recs)
	w.gen = gen
	return w, recs, nil
}

// maxRecordBytes bounds one record's encoded payload; anything larger is
// corruption, not data.
const maxRecordBytes = 1 << 20

// scanWAL reads the whole log and parses it (parseWAL). WALs are
// truncated at every checkpoint, so they stay small by construction.
func scanWAL(f vfs.File, fileSize int64) ([]Record, uint64, int64, error) {
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return nil, 0, 0, err
	}
	raw := make([]byte, fileSize)
	if _, err := io.ReadFull(f, raw); err != nil {
		return nil, 0, 0, fmt.Errorf("read WAL: %w", err)
	}
	return parseWAL(raw)
}

// parseWAL validates the header and every record of raw, returning the
// records, the generation, and the end offset of the last valid record.
// Any input it refuses fails with an error wrapping ErrCorrupt, and it
// allocates no more than a small multiple of len(raw).
func parseWAL(raw []byte) ([]Record, uint64, int64, error) {
	pos := 0
	magic, n := binary.Uvarint(raw[pos:])
	if n <= 0 || magic != walMagic {
		return nil, 0, 0, fmt.Errorf("not a WAL file (bad magic): %w", ErrCorrupt)
	}
	pos += n
	version, n := binary.Uvarint(raw[pos:])
	if n <= 0 {
		return nil, 0, 0, fmt.Errorf("truncated WAL header: %w", ErrCorrupt)
	}
	if version != walVersion {
		return nil, 0, 0, fmt.Errorf("unsupported WAL version %d: %w", version, ErrCorrupt)
	}
	pos += n
	if pos+8 > len(raw) {
		return nil, 0, 0, fmt.Errorf("truncated WAL header: %w", ErrCorrupt)
	}
	gen := binary.LittleEndian.Uint64(raw[pos : pos+8])
	pos += 8
	var recs []Record
	for pos < len(raw) {
		start := pos
		plen, n := binary.Uvarint(raw[pos:])
		if n <= 0 || plen > maxRecordBytes {
			return nil, 0, 0, fmt.Errorf("torn record header at offset %d (crash mid-append or truncated file): %w", start, ErrCorrupt)
		}
		pos += n
		if pos+int(plen) > len(raw) {
			return nil, 0, 0, fmt.Errorf("torn record at offset %d: %d payload bytes declared, %d present: %w",
				start, plen, len(raw)-pos, ErrCorrupt)
		}
		payload := raw[pos : pos+int(plen)]
		pos += int(plen)
		crc, n := binary.Uvarint(raw[pos:])
		if n <= 0 {
			return nil, 0, 0, fmt.Errorf("torn record checksum at offset %d: %w", start, ErrCorrupt)
		}
		pos += n
		if uint64(crc32.ChecksumIEEE(payload)) != crc {
			return nil, 0, 0, fmt.Errorf("record CRC mismatch at offset %d (file damaged): %w", start, ErrCorrupt)
		}
		rec, err := decodeRecord(payload)
		if err != nil {
			return nil, 0, 0, err
		}
		recs = append(recs, rec)
	}
	return recs, gen, int64(pos), nil
}

// decodeRecord parses one record payload: the varints appendRecord
// writes, read straight off the slice. Bytes after the value are
// ignored.
func decodeRecord(payload []byte) (Record, error) {
	ok := true
	next := func() uint64 {
		v, n := binary.Uvarint(payload)
		if n <= 0 {
			ok = false
			return 0
		}
		payload = payload[n:]
		return v
	}
	op := next()
	dims := next()
	// every coordinate and the value take a byte at least, so a point
	// longer than the payload is refused before it is allocated
	if !ok || (op != uint64(OpInsert) && op != uint64(OpDelete)) || dims > 1<<10 || dims >= uint64(len(payload)) {
		return Record{}, fmt.Errorf("malformed record payload: %w", ErrCorrupt)
	}
	rec := Record{Op: Op(op), Point: make([]float64, dims)}
	for i := range rec.Point {
		rec.Point[i] = math.Float64frombits(next())
	}
	rec.Value = math.Float64frombits(next())
	if !ok {
		return Record{}, fmt.Errorf("malformed record payload: %w", ErrCorrupt)
	}
	return rec, nil
}

// appendRecord appends one framed record (length prefix + payload + CRC)
// to dst, reusing scratch for the payload. The varint encoding matches
// binenc bit for bit, but avoids per-record writer allocations on the
// group-commit hot path.
func appendRecord(dst, scratch []byte, rec Record) (newDst, newScratch []byte, err error) {
	for _, c := range rec.Point {
		if math.IsNaN(c) {
			return dst, scratch, fmt.Errorf("store: WAL record with NaN coordinate")
		}
	}
	payload := scratch[:0]
	payload = binary.AppendUvarint(payload, uint64(rec.Op))
	payload = binary.AppendUvarint(payload, uint64(len(rec.Point)))
	for _, c := range rec.Point {
		payload = binary.AppendUvarint(payload, math.Float64bits(c))
	}
	payload = binary.AppendUvarint(payload, math.Float64bits(rec.Value))
	dst = binary.AppendUvarint(dst, uint64(len(payload)))
	dst = append(dst, payload...)
	dst = binary.AppendUvarint(dst, uint64(crc32.ChecksumIEEE(payload)))
	return dst, payload, nil
}

// Append journals one update with a single write call, fsyncing when the
// WAL was opened in sync mode.
func (w *WAL) Append(rec Record) error {
	return w.AppendGroup([]Record{rec})
}

// AppendGroup journals a batch of updates as one write and (in sync mode)
// one fsync — group commit. Rollback afterwards undoes the whole group.
// A failed write or fsync rolls the file back before returning, so an
// update that was reported failed is never replayed at the next boot.
func (w *WAL) AppendGroup(recs []Record) error {
	if len(recs) == 0 {
		return nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	var framed, scratch []byte
	var err error
	for _, rec := range recs {
		framed, scratch, err = appendRecord(framed, scratch, rec)
		if err != nil {
			return err
		}
	}
	undo := func() {
		// best effort: restore the pre-append length so the log never
		// carries records the caller was told failed
		_ = w.f.Truncate(w.size)
		_, _ = w.f.Seek(w.size, io.SeekStart)
	}
	start := time.Now()
	n, err := w.f.Write(framed)
	if err != nil {
		undo()
		return ioErr("WAL append", err)
	}
	if w.sync {
		syncStart := time.Now()
		if err := w.f.Sync(); err != nil {
			undo()
			return ioErr("WAL sync", err)
		}
		walFsyncSecs.ObserveDuration(time.Since(syncStart))
	}
	walAppendSecs.ObserveDuration(time.Since(start))
	walAppends.Inc()
	walRecords.Add(int64(len(recs)))
	w.prevSize, w.prevRecords = w.size, w.records
	w.size += int64(n)
	w.records += len(recs)
	return nil
}

// Rollback undoes the most recent Append or AppendGroup — used when the
// in-memory apply fails after the records were journaled, keeping log and
// engine in step.
func (w *WAL) Rollback() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.prevSize == w.size {
		return fmt.Errorf("store: WAL rollback without a preceding append")
	}
	if err := w.f.Truncate(w.prevSize); err != nil {
		return fmt.Errorf("store: WAL rollback: %w", err)
	}
	if _, err := w.f.Seek(w.prevSize, io.SeekStart); err != nil {
		return fmt.Errorf("store: WAL rollback seek: %w", err)
	}
	w.size, w.records = w.prevSize, w.prevRecords
	return nil
}

// Truncate discards all journaled records and stamps the log with the
// generation of the snapshot that folded them in — called only after that
// snapshot has been atomically published.
func (w *WAL) Truncate(gen uint64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.f.Truncate(0); err != nil {
		return ioErr("WAL truncate", err)
	}
	if _, err := w.f.WriteAt(encodeHeader(gen), 0); err != nil {
		return ioErr("WAL truncate header", err)
	}
	if _, err := w.f.Seek(headerLen, io.SeekStart); err != nil {
		return ioErr("WAL truncate seek", err)
	}
	w.size, w.prevSize = headerLen, headerLen
	w.records, w.prevRecords = 0, 0
	w.gen = gen
	if w.sync {
		if err := w.f.Sync(); err != nil {
			return ioErr("WAL truncate sync", err)
		}
	}
	return nil
}

// Gen reports the checkpoint generation the log continues from.
func (w *WAL) Gen() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.gen
}

// Records reports the number of journaled updates currently in the log.
func (w *WAL) Records() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.records
}

// Size reports the log's byte size.
func (w *WAL) Size() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.size
}

// Close closes the underlying file.
func (w *WAL) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.f.Close()
}
