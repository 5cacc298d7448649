package obs

import (
	"encoding/json"
	"io"
	"strconv"
	"sync"
	"time"

	"repro/internal/jsonenc"
)

// JSONLog writes one JSON object per line to an io.Writer, serialized by
// a mutex so concurrent emitters never interleave bytes. It backs both
// the slow-query log and passd's per-request log.
type JSONLog struct {
	mu  sync.Mutex
	w   io.Writer
	now func() time.Time // swappable for tests
	buf []byte           // EmitHTTPRequest's line, reused under mu
}

// NewJSONLog wraps w as a line-oriented JSON log. A nil w yields a nil
// *JSONLog, whose Emit is a no-op — callers can wire the log
// unconditionally and let configuration decide.
func NewJSONLog(w io.Writer) *JSONLog {
	if w == nil {
		return nil
	}
	return &JSONLog{w: w, now: time.Now}
}

// Emit writes fields as one JSON line, adding a "ts" RFC3339Nano
// timestamp and an "event" tag. Marshal failures drop the record rather
// than corrupt the stream; fields must therefore be JSON-encodable.
func (l *JSONLog) Emit(event string, fields map[string]any) {
	if l == nil {
		return
	}
	rec := make(map[string]any, len(fields)+2)
	for k, v := range fields {
		rec[k] = v
	}
	rec["event"] = event
	l.mu.Lock()
	rec["ts"] = l.now().UTC().Format(time.RFC3339Nano)
	b, err := json.Marshal(rec)
	if err == nil {
		b = append(b, '\n')
		l.w.Write(b)
	}
	l.mu.Unlock()
}

// maxKeptLine bounds the line buffer a JSONLog keeps between lines.
const maxKeptLine = 4 << 10

// EmitHTTPRequest writes one "http_request" line with the request's
// method, path, status, duration and response bytes: the bytes Emit
// writes for those fields (keys in json.Marshal's sorted order, strings
// HTML-escaped), built by appending rather than through a map. It is the
// line passd writes for every request.
func (l *JSONLog) EmitHTTPRequest(method, path string, status int, durationMS float64, bytes int64) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	b := strconv.AppendInt(append(l.buf[:0], `{"bytes":`...), bytes, 10)
	b, err := jsonenc.AppendFloat(append(b, `,"duration_ms":`...), durationMS)
	if err != nil {
		return // as Emit drops a record it cannot marshal
	}
	b = jsonenc.AppendString(append(b, `,"event":"http_request","method":`...), method, true)
	b = jsonenc.AppendString(append(b, `,"path":`...), path, true)
	b = strconv.AppendInt(append(b, `,"status":`...), int64(status), 10)
	// an RFC 3339 UTC time holds nothing JSON escapes
	b = l.now().UTC().AppendFormat(append(b, `,"ts":"`...), time.RFC3339Nano)
	b = append(b, "\"}\n"...)
	l.w.Write(b)
	if cap(b) <= maxKeptLine {
		l.buf = b
	}
}
