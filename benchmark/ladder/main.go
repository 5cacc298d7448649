// Command ladder is the traced half of the benchmark: it rebuilds one
// workload's table in process, from the same generated inputs the harness
// loaded into passd, and executes the same operations at every layer
// boundary — the public functions of sqlfe, pass.Session, catalog, shard,
// merge, core and store — each call wrapped in a span. A layer's self time
// is its span minus the rungs below it. The harness builds and runs it
// when given -trace 1; README.md in the parent directory explains the
// output.
//
// It is a program of its own because it is the only part of the benchmark
// that touches the repository's internal packages: if a refactoring moves
// one of these functions, the end-to-end half still builds and runs.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/jsonout"
	"repro/internal/merge"
	"repro/internal/sqlfe"
	"repro/internal/store"
	"repro/pass"
)

// input is what the harness hands over: files it generated from the seed
// and the build settings it gave passd.
type input struct {
	Workload   string  `json:"workload"`
	TableCSV   string  `json:"table_csv"`
	Table      string  `json:"table"`
	Partitions int     `json:"partitions"`  // 0: passd's default
	SampleRate float64 `json:"sample_rate"` // 0: passd's default
	Shards     int     `json:"shards"`
	Durable    bool    `json:"durable"`
	Statements string  `json:"statements"` // one SQL statement per line
	Inserts    string  `json:"inserts"`    // one POST /tables/{t}/rows body per line
	ScratchDir string  `json:"scratch_dir"`
	TraceOut   string  `json:"trace_out"`
	MetricsOut string  `json:"metrics_out"`
}

const (
	// passd's defaults, which the harness leaves in place
	defaultPartitions = 64
	defaultSampleRate = 0.005
	buildSeed         = 1

	chunk     = 100  // operations per span on the statement rungs
	batchSize = 64   // statements per batched call on the batch rungs
	allocOps  = 2000 // operations behind each allocation count
	// underWriteOps is how many statements the reader-under-a-writer rung
	// replays.
	underWriteOps = 4000
)

func main() {
	inPath := flag.String("input", "", "JSON file written by the harness")
	flag.Parse()
	if err := run(*inPath); err != nil {
		fmt.Fprintln(os.Stderr, "ladder:", err)
		os.Exit(1)
	}
}

// op is one replayed statement, prepared outside the timed regions.
type op struct {
	sql    string
	body   []byte // the POST /query body carrying it
	kind   dataset.AggKind
	rect   dataset.Rect
	tmpl   *sqlfe.Template
	params []any // the statement's literals, as PreparedStmt.Exec takes them
}

// insertOp is one replayed insert request.
type insertOp struct {
	points [][]float64
	values []float64
}

type ladder struct {
	in      input
	tr      tracer
	metrics map[string]float64
	err     error // the first failure inside a timed region
	// rowsPerInsert is the number of rows in one insert request; the
	// engine rungs apply them one at a time.
	rowsPerInsert int
}

func (l *ladder) check(err error) {
	if err != nil && l.err == nil {
		l.err = err
	}
}

func run(inPath string) error {
	raw, err := os.ReadFile(inPath)
	if err != nil {
		return err
	}
	l := &ladder{metrics: map[string]float64{}}
	if err := json.Unmarshal(raw, &l.in); err != nil {
		return fmt.Errorf("%s: %w", inPath, err)
	}
	csv, err := os.ReadFile(l.in.TableCSV)
	if err != nil {
		return err
	}
	tbl, err := pass.ReadCSV(bytes.NewReader(csv))
	if err != nil {
		return err
	}
	l.tr.t0 = time.Now()

	// set-up rung: the build passd performs on POST /tables
	start := time.Now()
	eng, schema, err := l.build(tbl)
	if err != nil {
		return err
	}
	l.metrics["core.build_s"] = time.Since(start).Seconds()

	ops, err := l.loadOps(schema)
	if err != nil {
		return err
	}
	inserts, err := loadInserts(l.in.Inserts)
	if err != nil {
		return err
	}
	if err := l.readLadder(eng, schema, ops); err != nil {
		return err
	}
	if err := l.writeLadder(tbl, eng, ops, inserts); err != nil {
		return err
	}
	if l.err != nil {
		return l.err
	}
	l.summarise()
	if err := writeJSON(l.in.TraceOut, map[string]any{
		"workload": l.in.Workload,
		"note":     "rungs run one after another on the same operations; parent is the logical caller; request is the chunk of operations; see benchmark/README.md",
		"spans":    l.tr.spans,
	}); err != nil {
		return err
	}
	return writeJSON(l.in.MetricsOut, l.metrics)
}

func writeJSON(path string, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// build constructs the sharded engine the way passd's POST /tables does.
func (l *ladder) build(tbl *pass.Table) (engine.Engine, sqlfe.Schema, error) {
	opt := pass.Options{Partitions: l.in.Partitions, SampleRate: l.in.SampleRate, Seed: buildSeed}
	if opt.Partitions == 0 {
		opt.Partitions = defaultPartitions
	}
	if opt.SampleRate == 0 {
		opt.SampleRate = defaultSampleRate
	}
	eng, schema, err := pass.BuildShardedEngine(tbl, opt, l.in.Shards)
	schema.Table = l.in.Table
	return eng, schema, err
}

// loadOps reads the statement stream and resolves every statement to the
// forms the rungs take, untimed.
func (l *ladder) loadOps(schema sqlfe.Schema) ([]op, error) {
	f, err := os.Open(l.in.Statements)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var ops []op
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		sql := sc.Text()
		tmpl, err := sqlfe.Normalize(sql)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", sql, err)
		}
		prep, err := sqlfe.CompileTemplate(tmpl, schema)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", sql, err)
		}
		plan, err := prep.Bind(tmpl.Params())
		if err != nil {
			return nil, fmt.Errorf("%s: %w", sql, err)
		}
		body, _ := json.Marshal(map[string]string{"sql": sql})
		o := op{sql: sql, body: body, kind: plan.Agg, rect: plan.Rect, tmpl: tmpl}
		for _, p := range tmpl.Params() {
			o.params = append(o.params, p)
		}
		ops = append(ops, o)
	}
	if len(ops) == 0 {
		return nil, errors.New("no statements to replay")
	}
	return ops, sc.Err()
}

func loadInserts(path string) ([]insertOp, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []insertOp
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var req insertRequest
		if err := json.Unmarshal(sc.Bytes(), &req); err != nil {
			return nil, err
		}
		var ins insertOp
		for _, r := range req.Rows {
			ins.points, ins.values = append(ins.points, r.Point), append(ins.values, r.Value)
		}
		out = append(out, ins)
	}
	if len(out) == 0 {
		return nil, errors.New("no inserts to replay")
	}
	return out, sc.Err()
}

// The request and response shapes of passd's handlers, which live in
// package main there and cannot be imported.
type queryRequest struct {
	SQL        string   `json:"sql"`
	Statements []string `json:"statements,omitempty"`
	Prepared   string   `json:"prepared,omitempty"`
	Params     []any    `json:"params,omitempty"`
}

type stmtResult struct {
	SQL    string          `json:"sql"`
	Error  string          `json:"error,omitempty"`
	Scalar *jsonout.Answer `json:"scalar,omitempty"`
}

type queryResponse struct {
	Results []stmtResult `json:"results"`
}

type insertRequest struct {
	Rows []struct {
		Point []float64 `json:"point"`
		Value float64   `json:"value"`
	} `json:"rows"`
}

// decodeRequest is what passd's decodeJSON does with a /query body.
func decodeRequest(body []byte) (queryRequest, error) {
	var req queryRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	if err := dec.Decode(&req); err != nil {
		return req, err
	}
	if dec.More() {
		return req, errors.New("unexpected data after JSON body")
	}
	return req, nil
}

// encodeResponse is what passd's handleQuery and writeJSON do with the
// session's results: the shared jsonout wire form, indented.
func encodeResponse(w io.Writer, sqls []string, answers []pass.Answer) error {
	resp := queryResponse{Results: make([]stmtResult, len(sqls))}
	for i := range sqls {
		resp.Results[i] = stmtResult{SQL: sqls[i], Scalar: jsonout.FromAnswer(answers[i])}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(resp)
}

// relevantShards lists the shards a query scatters to and the rectangle
// each one scans: the query clipped to the shard's bounding rectangle,
// with a dimension the query covers entirely left unconstrained — what
// internal/shard does before it calls into a shard's synopsis.
func relevantShards(info engine.ShardInfo, q dataset.Rect) (shards []int, rects []dataset.Rect) {
	for si, b := range info.Bounds {
		n := min(q.Dims(), b.Dims())
		r := dataset.Rect{Lo: append([]float64(nil), q.Lo...), Hi: append([]float64(nil), q.Hi...)}
		disjoint := false
		for c := 0; c < n; c++ {
			switch {
			case q.Hi[c] < b.Lo[c] || q.Lo[c] > b.Hi[c]:
				disjoint = true
			case q.Lo[c] <= b.Lo[c] && q.Hi[c] >= b.Hi[c]:
				r.Lo[c], r.Hi[c] = math.Inf(-1), math.Inf(1)
			default:
				r.Lo[c], r.Hi[c] = math.Max(q.Lo[c], b.Lo[c]), math.Min(q.Hi[c], b.Hi[c])
			}
		}
		if !disjoint {
			shards, rects = append(shards, si), append(rects, r)
		}
	}
	return shards, rects
}

// allocsPerOp counts heap allocations per call of fn over n calls.
func allocsPerOp(n int, fn func(i int)) float64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		fn(i)
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n)
}

// readLadder runs every statement at every read boundary. Logical
// nesting, top rung first:
//
//	request                    decode, execute, encode: the handler without HTTP
//	  passd.json_decode
//	  session.exec_hit         Session.Exec on a warm plan cache
//	    sqlfe.normalize
//	    sqlfe.plancache_lookup
//	    sqlfe.bind
//	    catalog.query
//	      shard.query
//	        core.query         the synopsis of every shard the query touches
//	        merge.fold
//	  passd.json_encode
//
// and the same for 64 statements at a time (request64 … core.querybatch64).
// Rungs outside the nesting (cold and prepared execution, compile on a
// miss, a query under a concurrent writer) are reported on their own.
func (l *ladder) readLadder(eng engine.Engine, schema sqlfe.Schema, ops []op) error {
	n := len(ops)
	sharded, ok := engine.Underlying(eng).(engine.Sharded)
	if !ok {
		return fmt.Errorf("engine %s is not sharded", eng.Name())
	}
	info := sharded.ShardInfo()

	sess := pass.NewSession()
	if err := sess.RegisterEngineEphemeral(l.in.Table, eng, schema); err != nil {
		return err
	}
	cold := pass.NewSession()
	cold.SetPlanCacheSize(0)
	if err := cold.RegisterEngineEphemeral(l.in.Table, eng, schema); err != nil {
		return err
	}
	ctab, err := catalog.New().Register(l.in.Table, eng, schema)
	if err != nil {
		return err
	}
	l.metrics["core.synopsis_bytes"] = float64(ctab.MemoryBytes())

	// the plan cache as Session keeps it, filled before timing
	plans := sqlfe.NewPlanCache(pass.DefaultPlanCacheSize)
	preps := make([]*sqlfe.Prepared, n)
	for i := range ops {
		prep, hit := plans.Lookup(ops[i].tmpl.Text, ctab, ctab.PlanGen())
		if !hit {
			if prep, err = sqlfe.CompileTemplate(ops[i].tmpl, schema); err != nil {
				return err
			}
			plans.Store(ops[i].tmpl.Text, ctab, ctab.PlanGen(), prep)
		}
		preps[i] = prep
	}
	prepared := map[string]*pass.PreparedStmt{}
	for i := range ops {
		if prepared[ops[i].tmpl.Text] == nil {
			if prepared[ops[i].tmpl.Text], err = sess.Prepare(ops[i].sql); err != nil {
				return err
			}
		}
	}

	t := &l.tr
	answers := make([]pass.Answer, n)
	var encBuf bytes.Buffer
	one := make([]string, 1)
	t.add("request", "", func(i int) {
		req, err := decodeRequest(ops[i].body)
		l.check(err)
		res, err := sess.Exec(req.SQL)
		l.check(err)
		encBuf.Reset()
		one[0] = req.SQL
		l.check(encodeResponse(&encBuf, one, []pass.Answer{res.Scalar}))
	})
	t.add("passd.json_decode", "request", func(i int) {
		_, err := decodeRequest(ops[i].body)
		l.check(err)
	})
	t.add("session.exec_hit", "request", func(i int) {
		res, err := sess.Exec(ops[i].sql)
		l.check(err)
		answers[i] = res.Scalar
	})
	t.add("passd.json_encode", "request", func(i int) {
		encBuf.Reset()
		one[0] = ops[i].sql
		l.check(encodeResponse(&encBuf, one, answers[i:i+1]))
	})
	t.add("sqlfe.normalize", "session.exec_hit", func(i int) {
		_, err := sqlfe.Normalize(ops[i].sql)
		l.check(err)
	})
	t.add("sqlfe.plancache_lookup", "session.exec_hit", func(i int) {
		if _, hit := plans.Lookup(ops[i].tmpl.Text, ctab, ctab.PlanGen()); !hit {
			l.check(errors.New("plan cache miss on a filled cache"))
		}
	})
	t.add("sqlfe.bind", "session.exec_hit", func(i int) {
		_, err := preps[i].Bind(ops[i].tmpl.Params())
		l.check(err)
	})
	t.add("catalog.query", "session.exec_hit", func(i int) {
		_, err := ctab.Query(ops[i].kind, ops[i].rect)
		l.check(err)
	})
	merged := make([]core.Result, n)
	t.add("shard.query", "catalog.query", func(i int) {
		r, err := eng.Query(ops[i].kind, ops[i].rect)
		l.check(err)
		merged[i] = r
	})
	// per statement: the shards it touches and their clipped rectangles
	touched := make([][]int, n)
	rects := make([][]dataset.Rect, n)
	for i := range ops {
		touched[i], rects[i] = relevantShards(info, ops[i].rect)
	}
	parts := make([][]core.Result, n)
	t.add("core.query", "shard.query", func(i int) {
		ps := parts[i][:0]
		for j, si := range touched[i] {
			r, err := sharded.Shard(si).Query(ops[i].kind, rects[i][j])
			l.check(err)
			ps = append(ps, r)
		}
		parts[i] = ps
	})
	t.add("merge.fold", "shard.query", func(i int) {
		m := merge.Get(ops[i].kind)
		for _, p := range parts[i] {
			m.Add(p)
		}
		_ = m.Result()
		merge.Put(m)
	})

	// rungs outside the nesting
	t.add("session.exec_cold", "", func(i int) {
		_, err := cold.Exec(ops[i].sql)
		l.check(err)
	})
	t.add("session.exec_prepared", "", func(i int) {
		_, err := prepared[ops[i].tmpl.Text].Exec(ops[i].params...)
		l.check(err)
	})
	t.add("sqlfe.compile", "", func(i int) {
		_, err := sqlfe.CompileTemplate(ops[i].tmpl, schema)
		l.check(err)
	})

	t.climb(n, chunk)

	// the batch ladder: 64 statements per call
	nb := n / batchSize
	if nb == 0 {
		return fmt.Errorf("%d statements are fewer than one batch of %d", n, batchSize)
	}
	sqls := make([][]string, nb)
	bodies := make([][]byte, nb)
	queries := make([][]core.BatchQuery, nb)
	for b := 0; b < nb; b++ {
		for _, o := range ops[b*batchSize : (b+1)*batchSize] {
			sqls[b] = append(sqls[b], o.sql)
			queries[b] = append(queries[b], core.BatchQuery{Kind: o.kind, Rect: o.rect})
		}
		bodies[b], _ = json.Marshal(queryRequest{Statements: sqls[b]})
	}
	const batchChunk = 4
	batchAnswers := make([][]pass.Answer, nb)
	collect := func(b int, results []pass.StmtResult) {
		out := batchAnswers[b][:0]
		for _, r := range results {
			l.check(r.Err)
			out = append(out, r.Result.Scalar)
		}
		batchAnswers[b] = out
	}
	t.add("request64", "", func(b int) {
		req, err := decodeRequest(bodies[b])
		l.check(err)
		collect(b, sess.ExecBatch(req.Statements))
		encBuf.Reset()
		l.check(encodeResponse(&encBuf, req.Statements, batchAnswers[b]))
	})
	t.add("passd.json_decode64", "request64", func(b int) {
		_, err := decodeRequest(bodies[b])
		l.check(err)
	})
	t.add("session.batch64", "request64", func(b int) {
		collect(b, sess.ExecBatch(sqls[b]))
	})
	t.add("passd.json_encode64", "request64", func(b int) {
		encBuf.Reset()
		l.check(encodeResponse(&encBuf, sqls[b], batchAnswers[b]))
	})
	t.add("sqlfe.compile64", "session.batch64", func(b int) {
		for i := b * batchSize; i < (b+1)*batchSize; i++ {
			tmpl, err := sqlfe.Normalize(ops[i].sql)
			l.check(err)
			prep, hit := plans.Lookup(tmpl.Text, ctab, ctab.PlanGen())
			if !hit {
				l.check(errors.New("plan cache miss on a filled cache"))
				return
			}
			_, err = prep.Bind(tmpl.Params())
			l.check(err)
		}
	})
	checkBatch := func(results []core.BatchResult) {
		for _, r := range results {
			l.check(r.Err)
		}
	}
	t.add("catalog.querybatch64", "session.batch64", func(b int) {
		checkBatch(ctab.QueryBatch(queries[b]))
	})
	t.add("shard.querybatch64", "catalog.querybatch64", func(b int) {
		checkBatch(eng.QueryBatch(queries[b]))
	})
	// per batch and shard: the sub-batch of clipped queries that shard gets
	sub := make([][][]core.BatchQuery, nb)
	for b := 0; b < nb; b++ {
		sub[b] = make([][]core.BatchQuery, info.Shards)
		for i := b * batchSize; i < (b+1)*batchSize; i++ {
			for j, si := range touched[i] {
				sub[b][si] = append(sub[b][si], core.BatchQuery{Kind: ops[i].kind, Rect: rects[i][j]})
			}
		}
	}
	t.add("core.querybatch64", "shard.querybatch64", func(b int) {
		for si, qs := range sub[b] {
			if len(qs) > 0 {
				checkBatch(sharded.Shard(si).QueryBatch(qs))
			}
		}
	})

	t.climb(nb, batchChunk)

	// allocation counts, on one goroutine with nothing else running
	na := min(n, allocOps)
	l.metrics["sqlfe.normalize_allocs"] = allocsPerOp(na, func(i int) { _, _ = sqlfe.Normalize(ops[i].sql) })
	l.metrics["session.exec_allocs"] = allocsPerOp(na, func(i int) { _, _ = sess.Exec(ops[i].sql) })
	l.metrics["core.query_allocs"] = allocsPerOp(na, func(i int) {
		for j, si := range touched[i] {
			_, _ = sharded.Shard(si).Query(ops[i].kind, rects[i][j])
		}
	})

	// what the engine did, from the results the rungs returned
	var tuples, partial, visited, exact float64
	for i := range ops {
		for _, p := range parts[i] {
			tuples += float64(p.TuplesRead)
			partial += float64(p.PartialParts)
			visited += float64(p.VisitedNodes)
		}
		if merged[i].Exact {
			exact++
		}
	}
	l.metrics["core.tuples_read_per_query"] = tuples / float64(n)
	l.metrics["core.partial_leaves_per_query"] = partial / float64(n)
	l.metrics["core.visited_nodes_per_query"] = visited / float64(n)
	l.metrics["core.exact_ratio"] = exact / float64(n)
	return nil
}

// writeLadder runs insert requests at every write boundary. Logical
// nesting, top rung first, one operation being a 16-row request:
//
//	session.insert_many        Session.InsertMany on a durable session
//	  catalog.insert_many      Table.InsertMany with its journal attached
//	    store.journal          the journal alone: route, group-append, fsync per shard touched
//	    shard.insert           the sharded engine alone, row by row
//	      core.insert          the owning shard's synopsis alone
//
// Each of the three journaled rungs has a table and a data directory of
// its own. store.wal_append and store.wal_append_nosync time one 16-record
// group on a write-ahead log of its own; store.save is the first snapshot
// of the table and store.load its restore after a clean close. A
// multi-dimensional synopsis takes no inserts and cannot be serialized,
// so on such a table only the two write-ahead-log rungs run.
func (l *ladder) writeLadder(tbl *pass.Table, readEng engine.Engine, ops []op, inserts []insertOp) error {
	t := &l.tr
	n := len(inserts)
	l.rowsPerInsert = len(inserts[0].points)

	// one write-ahead log on its own: a 16-record group, without and with fsync
	records := make([][]store.Record, n)
	for i := range records {
		for r, p := range inserts[i].points {
			records[i] = append(records[i], store.Record{Op: store.OpInsert, Point: p, Value: inserts[i].values[r]})
		}
	}
	for _, w := range []struct {
		rung string
		sync bool
	}{{"store.wal_append_nosync", false}, {"store.wal_append", true}} {
		wal, _, err := store.OpenWAL(filepath.Join(l.in.ScratchDir, w.rung+".wal"), w.sync)
		if err != nil {
			return err
		}
		empty := wal.Size()
		defer func() {
			l.metrics["store.wal_bytes_per_row"] = float64(wal.Size()-empty) / float64(n*l.rowsPerInsert)
			l.check(wal.Close())
		}()
		t.add(w.rung, "", func(i int) { l.check(wal.AppendGroup(records[i])) })
	}
	if !l.in.Durable {
		t.climb(n, 10)
		return nil
	}
	noCheckpoints := store.Options{CheckpointInterval: -1}

	// session rung: a durable session like passd's
	sessEng, schema, err := l.build(tbl)
	if err != nil {
		return err
	}
	sess := pass.NewSession()
	sessDir := filepath.Join(l.in.ScratchDir, "session-store")
	sessStore, err := store.Open(sessDir, noCheckpoints)
	if err != nil {
		return err
	}
	if _, err := sess.AttachStore(sessStore); err != nil {
		return err
	}
	if err := sess.RegisterEngine(l.in.Table, sessEng, schema); err != nil {
		return err
	}
	t.add("session.insert_many", "", func(i int) {
		_, err := sess.InsertMany(l.in.Table, inserts[i].points, inserts[i].values)
		l.check(err)
	})

	// catalog and journal rungs: a table and a store each; the journal
	// rung's records are never applied to its table
	journaled := func(dir string) (*catalog.Table, *store.Store, *store.ShardedTableLog, error) {
		eng, schema, err := l.build(tbl)
		if err != nil {
			return nil, nil, nil, err
		}
		ctab, err := catalog.New().Register(l.in.Table, eng, schema)
		if err != nil {
			return nil, nil, nil, err
		}
		st, err := store.Open(filepath.Join(l.in.ScratchDir, dir), noCheckpoints)
		if err != nil {
			return nil, nil, nil, err
		}
		sharded := engine.Underlying(eng).(engine.Sharded)
		journal, err := st.AttachSharded(ctab, sharded, sharded.ShardInfo().Shards)
		return ctab, st, journal, err
	}
	ctab, catStore, journal, err := journaled("catalog-store")
	if err != nil {
		return err
	}
	defer catStore.Close()
	ctab.AttachJournal(journal)
	start := time.Now()
	if err := catStore.SaveSharded(ctab); err != nil {
		return err
	}
	l.metrics["store.save_ms"] = float64(time.Since(start).Nanoseconds()) / 1e6
	t.add("catalog.insert_many", "session.insert_many", func(i int) {
		_, err := ctab.InsertMany(inserts[i].points, inserts[i].values)
		l.check(err)
	})
	_, journalStore, journalOnly, err := journaled("journal-store")
	if err != nil {
		return err
	}
	defer journalStore.Close()
	t.add("store.journal", "catalog.insert_many", func(i int) {
		l.check(journalOnly.InsertMany(inserts[i].points, inserts[i].values))
	})

	// engine rungs, on the read ladder's engine, which nothing reads any more
	sharded := engine.Underlying(readEng).(engine.Sharded)
	shardUpd, ok := engine.Underlying(readEng).(engine.Updatable)
	if !ok {
		return fmt.Errorf("engine %s takes no inserts", readEng.Name())
	}
	t.add("shard.insert", "catalog.insert_many", func(i int) {
		for r, p := range inserts[i].points {
			l.check(shardUpd.Insert(p, inserts[i].values[r]))
		}
	})
	owners := make([][]engine.Updatable, n)
	for i := range owners {
		for _, p := range inserts[i].points {
			si, err := sharded.Route(p)
			if err != nil {
				return err
			}
			owners[i] = append(owners[i], sharded.Shard(si).(engine.Updatable))
		}
	}
	t.add("core.insert", "shard.insert", func(i int) {
		for r, p := range inserts[i].points {
			l.check(owners[i][r].Insert(p, inserts[i].values[r]))
		}
	})
	t.climb(n, 10)

	// a reader against the catalog rung's table while a writer inserts into
	// it, as in mixed_rw
	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; !stop.Load(); i++ {
			_, err := ctab.InsertMany(inserts[i%n].points, inserts[i%n].values)
			l.check(err)
		}
	}()
	t.add("catalog.query_under_write", "", func(i int) {
		_, err := ctab.Query(ops[i].kind, ops[i].rect)
		l.check(err)
	})
	t.climb(min(len(ops), underWriteOps), chunk)
	stop.Store(true)
	wg.Wait()

	// the session's clean close folds its journal into the snapshots; the
	// load that follows is passd's warm start after a clean shutdown
	if err := sess.Close(); err != nil {
		return err
	}
	start = time.Now()
	st, err := store.Open(sessDir, noCheckpoints)
	if err != nil {
		return err
	}
	if _, err := st.LoadAll(); err != nil {
		return err
	}
	l.metrics["store.load_ms"] = float64(time.Since(start).Nanoseconds()) / 1e6
	return st.Close()
}

// summarise turns the spans into the per-layer metrics.
func (l *ladder) summarise() {
	spans := l.tr.spans
	self := selfTimes(spans)
	m := l.metrics
	ns := func(name string) float64 { return perOp(spans, self, name, false) }
	selfNS := func(name string) float64 { return perOp(spans, self, name, true) }

	m["passd.json_decode_us"] = ns("passd.json_decode") / 1e3
	m["sqlfe.normalize_us"] = ns("sqlfe.normalize") / 1e3
	m["sqlfe.plancache_lookup_ns"] = ns("sqlfe.plancache_lookup")
	m["sqlfe.bind_ns"] = ns("sqlfe.bind")
	m["sqlfe.compile_us"] = ns("sqlfe.compile") / 1e3
	m["session.exec_hit_us"] = ns("session.exec_hit") / 1e3
	m["session.exec_cold_us"] = ns("session.exec_cold") / 1e3
	m["session.exec_prepared_us"] = ns("session.exec_prepared") / 1e3
	m["session.self_ns"] = selfNS("session.exec_hit")
	m["session.batch64_us"] = ns("session.batch64") / 1e3
	m["catalog.query_us"] = ns("catalog.query") / 1e3
	m["catalog.self_ns"] = selfNS("catalog.query")
	m["catalog.query_under_write_us"] = ns("catalog.query_under_write") / 1e3
	m["shard.query_us"] = ns("shard.query") / 1e3
	m["shard.self_ns"] = selfNS("shard.query")
	m["shard.querybatch64_us"] = ns("shard.querybatch64") / 1e3
	m["merge.fold_ns"] = ns("merge.fold")
	m["core.query_ns"] = ns("core.query")
	m["core.querybatch64_us"] = ns("core.querybatch64") / 1e3
	if tuples := m["core.tuples_read_per_query"]; tuples > 0 {
		m["core.ns_per_tuple"] = m["core.query_ns"] / tuples
	}
	m["passd.json_encode_us"] = ns("passd.json_encode") / 1e3

	m["core.insert_ns"] = ns("core.insert") / float64(l.rowsPerInsert)
	m["shard.insert_ns"] = ns("shard.insert") / float64(l.rowsPerInsert)
	m["store.wal_append_nosync_us"] = ns("store.wal_append_nosync") / 1e3
	m["store.wal_append_us"] = ns("store.wal_append") / 1e3
	m["catalog.insert_many_us"] = ns("catalog.insert_many") / 1e3
	m["session.insert_many_us"] = ns("session.insert_many") / 1e3

	// the check on the ladders themselves: self times of all rungs under
	// a top rung, summed, over the top rung
	m["ladder.read_self_sum_ratio"] = selfSum(selfNS, "request", "passd.json_decode", "session.exec_hit", "passd.json_encode",
		"sqlfe.normalize", "sqlfe.plancache_lookup", "sqlfe.bind", "catalog.query", "shard.query", "core.query", "merge.fold") / ns("request")
	if top := ns("session.insert_many"); top > 0 {
		m["ladder.write_self_sum_ratio"] = selfSum(selfNS, "session.insert_many", "catalog.insert_many", "store.journal",
			"shard.insert", "core.insert") / top
	}
}

func selfSum(selfNS func(string) float64, rungs ...string) float64 {
	total := 0.0
	for _, r := range rungs {
		total += selfNS(r)
	}
	return total
}
