package main

import (
	"bytes"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

const (
	verifyStatements = 1000 // answered before the window, scored against exact truth
	warmStatements   = 100  // of those, answered as part of every set-up
	probeStatements  = 200  // answered before the kill -9 and after the warm start
	// streamStatements is how many statements each reader's stream holds,
	// streamInserts how many requests each writer's; a client that gets
	// through all of them starts over.
	streamStatements = 128_000
	streamInserts    = 20_000
	// sliceLen is the length of one slice of the measured window.
	sliceLen   = time.Second
	insertPath = "/tables/" + tableName + "/rows"
)

// opts are the settings of one run, as they appear in the output header.
type opts struct {
	seed           uint64
	window, warmup time.Duration
	// setups is how often the set-up (spawn, load, verify) is repeated;
	// setup_s is the median and the last instance is the one measured.
	setups int
	trace  bool
	outDir string
}

// result is what one run of one workload measured.
type result struct {
	workload string
	metrics  map[string]float64
	samples  map[string]int // how many samples a timing metric rests on
	flags    []string       // passd's flags, for the report
	// tracePath is where a traced run's spans were written.
	tracePath string

	attempted, failed int
	failures          []string // the first few, for the report
}

func (r *result) fail(n int, format string, args ...any) {
	r.failed += n
	if len(r.failures) < 10 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// loadClient is one closed-loop client: it sends the next request of its
// stream as soon as the previous response has been read.
type loadClient struct {
	conn   *conn
	path   string
	bodies [][]byte
	// a response is good when it is a 200 holding exactly wantCount
	// copies of wantMark — cheap enough to check on every request
	// without parsing; the verification and probe sets are parsed.
	wantMark  []byte
	wantCount int

	next      int // position in the stream; carries over from warm-up to window
	acked     []int
	lat       []float64 // ms
	respBytes int64
	failed    int
	failure   string
}

func (c *loadClient) run(until time.Time) {
	for time.Now().Before(until) {
		i := c.next % len(c.bodies)
		c.next++
		t0 := time.Now()
		status, resp, err := c.conn.post(c.path, c.bodies[i])
		c.lat = append(c.lat, float64(time.Since(t0).Nanoseconds())/1e6)
		c.respBytes += int64(len(resp))
		switch {
		case err != nil:
			c.failed++
			c.failure = err.Error()
		case status != http.StatusOK || bytes.Count(resp, c.wantMark) != c.wantCount:
			c.failed++
			c.failure = fmt.Sprintf("POST %s: status %d: %.300s", c.path, status, resp)
		default:
			c.acked = append(c.acked, i)
		}
	}
}

// resetSamples drops what the client measured so far; its place in the
// stream and the rows it has had acknowledged stay.
func (c *loadClient) resetSamples() {
	c.lat, c.respBytes, c.failed, c.failure = c.lat[:0], 0, 0, ""
}

// runPhase runs all clients for d and returns how long it really took
// (the last requests finish a little after the deadline).
func runPhase(clients []*loadClient, d time.Duration) time.Duration {
	start := time.Now()
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.run(start.Add(d))
		}()
	}
	wg.Wait()
	return time.Since(start)
}

// classStats summarises one request class over the window.
type classStats struct {
	n, failed int
	sorted    []float64 // latencies, ascending, ms
	respBytes int64
	failure   string
}

func summarise(clients []*loadClient) classStats {
	var s classStats
	for _, c := range clients {
		s.n += len(c.lat)
		s.failed += c.failed
		s.sorted = append(s.sorted, c.lat...)
		s.respBytes += c.respBytes
		if c.failure != "" {
			s.failure = c.failure
		}
	}
	sort.Float64s(s.sorted)
	return s
}

// merge pools another interval's samples into s; s.sorted is left
// unsorted.
func (s *classStats) merge(o classStats) {
	s.n += o.n
	s.failed += o.failed
	s.sorted = append(s.sorted, o.sorted...)
	s.respBytes += o.respBytes
	if o.failure != "" {
		s.failure = o.failure
	}
}

// exactAll evaluates every statement over the benchmark's own rows, on
// as many goroutines as there are clients.
func exactAll(t *table, stmts []stmt) []float64 {
	out := make([]float64, len(stmts))
	var wg sync.WaitGroup
	const workers = 2
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < len(stmts); i += workers {
				v, ok := t.exact(&stmts[i])
				if !ok {
					v = math.NaN() // the generator never draws an empty range; scoring reports it
				}
				out[i] = v
			}
		}()
	}
	wg.Wait()
	return out
}

// accuracy scores answers against exact truth.
type accuracy struct {
	relErrP50, coverage float64
	estimates           int // SUM/COUNT/AVG answers behind the two figures above
	hardChecked         int
	violations          []string
}

// Hard bounds are violated when they exclude the truth by more than this,
// relative to the truth (absolute below 1). freshTolerance allows for
// floating-point summation order only. After a warm start the synopsis
// holds its sample values as restored from a snapshot, which stores them
// in fixed point at 1e-6 (internal/core, defaultSerPrecision): a restored
// MIN or MAX bound has been seen 1.8e-9 relative beyond a truth of 80.
const (
	freshTolerance    = 1e-9
	restoredTolerance = 1e-6
)

// score compares answers with truth. Relative error and CI coverage are
// taken over SUM, COUNT and AVG: MIN and MAX carry no sampling interval
// and are judged by their hard bounds alone.
func score(stmts []stmt, truth []float64, answers []answer, tolerance float64) accuracy {
	var acc accuracy
	var relErrs []float64
	covered := 0
	for i, a := range answers {
		want := truth[i]
		if math.IsNaN(want) {
			acc.violations = append(acc.violations, stmts[i].sql+": no row matches in the benchmark's copy")
			continue
		}
		tol := tolerance * math.Max(1, math.Abs(want))
		if a.HardBounds {
			acc.hardChecked++
			if want < a.HardLo-tol || want > a.HardHi+tol {
				acc.violations = append(acc.violations,
					fmt.Sprintf("%s: truth %v outside hard bounds [%v, %v]", stmts[i].sql, want, a.HardLo, a.HardHi))
			}
		}
		if stmts[i].agg == "MIN" || stmts[i].agg == "MAX" {
			continue
		}
		acc.estimates++
		diff := math.Abs(a.Estimate - want)
		relErrs = append(relErrs, diff/math.Abs(want))
		if diff <= a.CIHalf+tol {
			covered++
		}
	}
	if acc.estimates > 0 {
		acc.relErrP50 = median(relErrs)
		acc.coverage = float64(covered) / float64(acc.estimates)
	}
	return acc
}

// runWorkload generates the inputs, sets passd up, measures one window
// and checks the outputs.
func runWorkload(e *env, passdBin string, sp spec, o opts) (*result, error) {
	res := &result{workload: sp.name, metrics: map[string]float64{}, samples: map[string]int{}}
	clients := sp.readers + sp.writers
	hc := newHTTPClient(clients)
	defer hc.CloseIdleConnections()

	// inputs, all derived from the seed and the workload name
	tbl := genTable(o.seed, sp.name, sp.rows, sp.dims)
	initialRows := tbl.rows()
	tableBody := createTableBody(tbl, sp)
	verify := genStmts(newRNG(o.seed, sp.name, "verify"), verifyStatements, sp.dims, sp.aggs)
	verifyTruth := exactAll(tbl, verify)
	var readers, writers []*loadClient
	var writerRows [][]insertBatch
	for i := 0; i < sp.readers; i++ {
		stmts := genStmts(newRNG(o.seed, sp.name, fmt.Sprint("reader", i)), streamStatements, sp.dims, sp.aggs)
		c := &loadClient{path: "/query", wantMark: []byte(`"estimate":`), wantCount: sp.stmtsPerRequest}
		for len(stmts) > 0 {
			c.bodies = append(c.bodies, queryBody(stmts[:sp.stmtsPerRequest]))
			stmts = stmts[sp.stmtsPerRequest:]
		}
		readers = append(readers, c)
	}
	for i := 0; i < sp.writers; i++ {
		batches := genInserts(newRNG(o.seed, sp.name, fmt.Sprint("writer", i)), streamInserts, sp.dims)
		c := &loadClient{path: insertPath, wantMark: []byte(fmt.Sprintf(`"inserted": %d`, rowsPerInsert)), wantCount: 1}
		for _, b := range batches {
			c.bodies = append(c.bodies, b.body)
		}
		writers = append(writers, c)
		writerRows = append(writerRows, batches)
	}
	all := append(append([]*loadClient(nil), readers...), writers...)
	primary := readers
	if len(primary) == 0 {
		primary = writers
	}

	// set-up: spawn, wait for /readyz, load the table, answer the first
	// statements of the verification set (which fills the plan cache and
	// opens the connections). Repeated so that setup_s is a median.
	var (
		p        *passd
		dataDir  string
		setupSec []float64
	)
	for k := 0; k < o.setups; k++ {
		if p != nil {
			p.kill()
			os.RemoveAll(dataDir)
		}
		dataDir = ""
		if sp.durable {
			dataDir = filepath.Join(e.runDir, fmt.Sprint(sp.name, "-data-", k))
		}
		t0 := time.Now()
		var err error
		if p, err = e.startPassd(passdBin, dataDir, hc); err != nil {
			return nil, err
		}
		c := &conn{hc: hc, base: p.base}
		if err := c.createTable(tableBody, sp.durable); err != nil {
			return nil, err
		}
		if _, err := c.queryAll(verify[:warmStatements], sp.stmtsPerRequest); err != nil {
			return nil, fmt.Errorf("set-up statements: %w", err)
		}
		setupSec = append(setupSec, time.Since(t0).Seconds())
	}
	defer func() {
		p.kill()
		os.RemoveAll(dataDir) // the next workload of this invocation starts from nothing
	}()
	res.flags = p.flags
	res.metrics["setup_s"] = median(setupSec)
	res.samples["setup_s"] = len(setupSec)
	ctl := &conn{hc: hc, base: p.base}
	for _, c := range all {
		c.conn = &conn{hc: hc, base: p.base}
	}

	answers, err := ctl.queryAll(verify, sp.stmtsPerRequest)
	if err != nil {
		return nil, fmt.Errorf("verification set: %w", err)
	}
	acc := score(verify, verifyTruth, answers, freshTolerance)
	res.attempted += len(verify)
	for _, v := range acc.violations {
		res.fail(1, "verification: %s", v)
	}
	res.metrics["passd.rel_err_p50"] = acc.relErrP50
	res.metrics["ci_coverage"] = acc.coverage
	res.samples["passd.rel_err_p50"], res.samples["ci_coverage"] = acc.estimates, acc.estimates
	res.metrics["passd.hard_bound_violations"] = float64(len(acc.violations))
	res.samples["passd.hard_bound_violations"] = acc.hardChecked

	// warm-up, discarded apart from the rows it inserted
	runPhase(all, o.warmup)
	warm := summarise(all)
	res.attempted += warm.n
	if warm.failed > 0 {
		res.fail(warm.failed, "warm-up: %s", warm.failure)
	}
	for _, c := range all {
		c.resetSamples()
	}

	// the window: slices of one second each, every one summarised on its
	// own. The host this runs on slows down and speeds up by the second,
	// so a run reports the median over its slices; the pooled sample
	// gives the tail.
	before, err := ctl.scrape()
	if err != nil {
		return nil, err
	}
	pid := p.cmd.Process.Pid
	var (
		elapsed                      float64
		p50s, p90s, rpss, cpus, wp50 []float64
		prim, wr, total              classStats
	)
	for s := 0; s < int(o.window/sliceLen); s++ {
		cpuBefore, err := procCPUms(pid)
		if err != nil {
			return nil, err
		}
		took := runPhase(all, sliceLen).Seconds()
		cpuAfter, err := procCPUms(pid)
		if err != nil {
			return nil, err
		}
		sPrim, sWr, sAll := summarise(primary), summarise(writers), summarise(all)
		if sPrim.n == 0 {
			return nil, fmt.Errorf("no request completed in a %s slice", sliceLen)
		}
		elapsed += took
		p50s = append(p50s, percentile(sPrim.sorted, 50))
		p90s = append(p90s, percentile(sPrim.sorted, 90))
		rpss = append(rpss, float64(sPrim.n)/took)
		cpus = append(cpus, (cpuAfter-cpuBefore)/float64(sAll.n))
		if sWr.n > 0 {
			wp50 = append(wp50, percentile(sWr.sorted, 50))
		}
		prim.merge(sPrim)
		wr.merge(sWr)
		total.merge(sAll)
		for _, c := range all {
			c.resetSamples()
		}
	}
	after, err := ctl.scrape()
	if err != nil {
		return nil, err
	}
	delta := promDelta{before, after}
	sort.Float64s(prim.sorted)
	sort.Float64s(wr.sorted)

	res.attempted += total.n
	if total.failed > 0 {
		res.fail(total.failed, "window: %s", total.failure)
	}
	m := res.metrics
	m["latency_p50_ms"] = median(p50s)
	m["passd.latency_p90_ms"] = median(p90s)
	m["throughput_rps"] = median(rpss)
	m["cpu_ms_per_op"] = median(cpus)
	m["passd.latency_p99_ms"] = percentile(prim.sorted, 99)
	for _, name := range []string{"latency_p50_ms", "passd.latency_p90_ms", "passd.latency_p99_ms", "throughput_rps", "passd.tail_ms"} {
		res.samples[name] = prim.n
	}
	res.samples["cpu_ms_per_op"] = total.n

	tail := tailPercentile(prim.n)
	m["passd.tail_pct"] = tail
	m["passd.tail_ms"] = percentile(prim.sorted, tail)
	m["passd.handler_us"] = delta.mean("pass_http_request_duration_seconds") * 1e6
	m["passd.transport_us"] = m["latency_p50_ms"]*1e3 - m["passd.handler_us"]
	m["passd.resp_bytes"] = float64(prim.respBytes) / float64(prim.n)
	m["passd.rss_peak_mb"] = procPeakRSSMB(p.cmd.Process.Pid)
	m["passd.gc_pause_p99_ms"] = after["go_gc_pause_p99_seconds"] * 1e3
	m["passd.error_rate"] = float64(total.failed) / float64(total.n)
	if wr.n > 0 {
		m["passd.write_p50_ms"] = median(wp50)
		m["passd.write_p99_ms"] = percentile(wr.sorted, 99)
		m["passd.write_rows_s"] = float64((wr.n-wr.failed)*rowsPerInsert) / elapsed
		m["store.fsyncs_per_request"] = delta.of("pass_wal_fsync_seconds_count") / float64(wr.n)
		res.samples["passd.write_p50_ms"], res.samples["passd.write_p99_ms"] = wr.n, wr.n
	}
	hits, misses := delta.of("pass_plan_cache_hits_total"), delta.of("pass_plan_cache_misses_total")
	if hits+misses > 0 {
		m["sqlfe.plancache_hit_ratio"] = hits / (hits + misses)
	}
	scattered, pruned := delta.of("pass_shard_scatter_total"), delta.of("pass_shard_pruned_total")
	if q := delta.of("pass_queries_total"); q > 0 {
		m["shard.fanout"] = scattered / q
		m["shard.prune_ratio"] = pruned / (pruned + scattered)
	}
	m["store.wal_fsync_us"] = delta.mean("pass_wal_fsync_seconds") * 1e6
	m["store.checkpoint_ms"] = delta.mean("pass_checkpoint_seconds") * 1e3
	m["store.checkpoints"] = delta.of("pass_checkpoints_total")
	res.samples["store.wal_fsync_us"] = int(delta.of("pass_wal_fsync_seconds_count"))
	res.samples["store.checkpoint_ms"] = int(delta.of("pass_checkpoint_seconds_count"))

	if sp.durable {
		// every acknowledged row, from the warm-up on, is now part of the truth
		for i, c := range writers {
			for _, b := range c.acked {
				ib := writerRows[i][b]
				for r := range ib.values {
					tbl.appendRow(ib.points[r], ib.values[r])
				}
			}
		}
		if err := crashCheck(e, passdBin, hc, p, dataDir, sp, o, tbl, initialRows, res); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// crashCheck is the durability check of a durable table: the whole-table
// count and a probe set are checked against the initial plus acknowledged
// rows, passd is killed with SIGKILL, restarted on the same data dir, and
// both are checked again. (SIGKILL loses what the process had not
// written; it does not discard the operating system's cache, so this
// checks the write-before-acknowledge order, not the fsync itself.)
// Sampled estimates differ across the restart in their low digits,
// because the snapshot keeps sample values in fixed point; how many do is
// reported, not gated.
func crashCheck(e *env, passdBin string, hc *http.Client, p *passd, dataDir string, sp spec, o opts, tbl *table, initialRows int, res *result) error {
	m := res.metrics
	probes := genStmts(newRNG(o.seed, sp.name, "probe"), probeStatements, sp.dims, sp.aggs)
	truth := exactAll(tbl, probes)
	want := float64(tbl.rows())

	check := func(when string, c *conn, tolerance float64) ([]answer, float64, error) {
		got, err := c.countRows()
		if err != nil {
			return nil, 0, fmt.Errorf("%s: %w", when, err)
		}
		res.attempted++
		if got != want {
			res.fail(1, "%s: COUNT(*) = %v, want %d initial + %d acknowledged rows", when, got, initialRows, tbl.rows()-initialRows)
		}
		answers, err := c.queryAll(probes, 1)
		if err != nil {
			return nil, 0, fmt.Errorf("%s: probe set: %w", when, err)
		}
		res.attempted += len(probes)
		for _, v := range score(probes, truth, answers, tolerance).violations {
			res.fail(1, "%s: %s", when, v)
		}
		return answers, got, nil
	}

	beforeKill, _, err := check("before the kill", &conn{hc: hc, base: p.base}, freshTolerance)
	if err != nil {
		return err
	}
	p.kill()
	t0 := time.Now()
	p2, err := e.startPassd(passdBin, dataDir, hc)
	if err != nil {
		return fmt.Errorf("warm start: %w", err)
	}
	m["store.warm_start_ms"] = float64(time.Since(t0).Nanoseconds()) / 1e6
	afterRestart, count, err := check("after the warm start", &conn{hc: hc, base: p2.base}, restoredTolerance)
	if err != nil {
		return err
	}
	m["store.acked_rows_lost"] = want - count
	drift := 0
	for i := range probes {
		if beforeKill[i].Estimate != afterRestart[i].Estimate {
			drift++
		}
	}
	m["store.recovered_answer_drift"] = float64(drift)
	res.samples["store.recovered_answer_drift"] = len(probes)
	m["store.disk_bytes_per_row"] = float64(dirBytes(dataDir)) / want
	p2.kill()
	return nil
}
