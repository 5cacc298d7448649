// Command passd serves approximate SQL over HTTP: a pass.Session catalog
// of named tables (each a PASS synopsis), a JSON query endpoint with
// batched multi-statement execution, and CSV table loading — the serving
// layer of the repository's architecture:
//
//	sqlfe (SQL) → pass.Session / catalog → engine → synopsis
//	                       ↓
//	          internal/store (snapshots + WAL)
//
// Endpoints:
//
//	POST   /query                    {"sql": "SELECT AVG(light) FROM sensors WHERE time >= 6"}
//	                                 multi-statement scripts are batched: "SELECT ...; SELECT ..."
//	GET    /tables                   list registered tables (+ adaptive stats with -adaptive)
//	POST   /tables                   {"name": "sensors", "csv": "time,light\n1,0.5\n...", "partitions": 64}
//	POST   /tables/{name}/rows       {"rows": [{"point": [13], "value": 0.7}]} insert tuples
//	POST   /tables/{name}/reoptimize force a workload-driven rebuild decision (with -adaptive)
//	DELETE /tables/{name}            drop a table (and its persisted files)
//	GET    /healthz                  liveness probe (always 200 while serving)
//	GET    /readyz                   readiness probe (503 until warm start completes / during shutdown)
//	GET    /metrics                  Prometheus text exposition of the process metrics registry
//	/debug/pprof/*                   runtime profiles (only with -pprof)
//
// Observability: every request is logged as one structured JSON line on
// stderr (method, path, status, duration, bytes); -slow-query-ms adds a
// slow-query log of normalized statement templates (literals elided);
// EXPLAIN ANALYZE prefixed to any statement returns its execution span
// tree in the response without changing the answer; and
// -metrics-report-every emits a periodic latency self-report. See
// docs/OPERATIONS.md, "Monitoring & tracing".
//
// The serving path is hardened for operation under failure: request
// bodies are capped (-max-body-mb → 413), concurrency is bounded
// (-max-inflight → immediate 503 load shedding), every /query runs under
// a server-side deadline (-query-timeout) that sharded tables propagate
// per shard — a shard that misses the deadline is dropped from the merge
// and the answer comes back marked degraded with widened error bounds
// (or fails outright with -strict-scatter). Storage faults (failed WAL
// fsyncs, checkpoint write errors) flip the affected table into read-only
// degraded mode: queries keep serving, writes return the cause, and a
// successful checkpoint or restart recovers. -fault-schedule injects such
// faults deterministically for drills (see internal/vfs).
//
// With -adaptive the server closes the loop between the query log and the
// synopses: every query feeds a per-table sliding-window workload
// statistic, and a background re-optimizer (-reopt-every) rebuilds tables
// whose observed workload drifted from their partitioning, forcing
// partition boundaries onto the hot query endpoints so repeated ranges
// are answered exactly.
// See docs/OPERATIONS.md for the full flag and endpoint reference.
//
// With -data-dir the catalog is durable: tables are snapshotted into the
// directory, inserts and deletes are write-ahead journaled, a background
// checkpointer folds grown logs back into snapshots, and a restart against
// the same directory restores every table — synopsis bytes, schema and
// journaled updates — without rebuilding anything. SIGINT/SIGTERM trigger
// a graceful shutdown: in-flight requests drain, a final checkpoint runs,
// and the process exits 0.
//
// Quickstart:
//
//	passd -listen :8080 -data-dir ./passd-data &
//	curl -s localhost:8080/tables -d '{"name":"demo","csv":"'"$(passgen -name intel -n 10000 | tr '\n' ';' | sed 's/;/\\n/g')"'"}'
//	curl -s localhost:8080/query -d '{"sql":"SELECT COUNT(*) FROM demo"}'
//
// A demo table can be preloaded at startup with -demo.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/store"
	"repro/internal/vfs"
	"repro/pass"
)

func main() {
	var (
		listen     = flag.String("listen", ":8080", "listen address")
		demo       = flag.String("demo", "", "preload a demo dataset as table 'demo' (intel, instacart, nyctaxi, uniform, adversarial)")
		demoRows   = flag.Int("demo-rows", 60000, "demo dataset size")
		partitions = flag.Int("partitions", 64, "default leaf partitions for loaded tables")
		rate       = flag.Float64("rate", 0.005, "default sample rate for loaded tables")
		seed       = flag.Uint64("seed", 1, "default build seed")
		shards     = flag.Int("shards", 1, "default shard count for created tables (>1 = sharded scatter-gather engine)")
		dataDir    = flag.String("data-dir", "", "durable storage directory: snapshots + write-ahead logs (empty = in-memory only)")
		ckptEvery  = flag.Duration("checkpoint-every", 5*time.Second, "background checkpointer scan interval")
		walMax     = flag.Int("wal-threshold", 4096, "journaled updates per table before a background checkpoint")
		noSync     = flag.Bool("no-sync", false, "skip the per-update WAL fsync (faster, loses the journal tail on machine crash)")
		adaptive   = flag.Bool("adaptive", false, "workload-adaptive serving: query statistics and background re-optimization of drifted tables")
		reoptEvery = flag.Duration("reopt-every", 30*time.Second, "background re-optimization scan interval (with -adaptive; 0 = manual POST /tables/{name}/reoptimize only)")

		queryTimeout = flag.Duration("query-timeout", 30*time.Second, "server-side deadline per /query request; sharded tables drop shards that miss it and answer degraded (0 = none)")
		maxInflight  = flag.Int("max-inflight", 0, "concurrent request cap: excess requests get 503 immediately instead of queueing (0 = unlimited)")
		maxBodyMB    = flag.Int("max-body-mb", 32, "request body cap in MiB; oversized bodies get 413")
		httpTimeout  = flag.Duration("http-timeout", 2*time.Minute, "HTTP read/write timeouts on the listener (slow-client defense; 0 = none)")
		strictMode   = flag.Bool("strict-scatter", false, "fail sharded queries that lose any shard instead of returning degraded partial answers")
		faultSpec    = flag.String("fault-schedule", "", "inject storage faults for testing, e.g. 'op=sync,path=.wal,after=10,count=1,err=eio' (see internal/vfs)")
		planCache    = flag.Int("plan-cache-size", pass.DefaultPlanCacheSize, "prepared-plan cache capacity in distinct query shapes (0 disables plan caching)")

		pprofOn     = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/ on the listen address")
		slowQueryMS = flag.Int("slow-query-ms", -1, "log statements slower than this many milliseconds as JSON lines on stderr (0 = log every statement, negative = off)")
		reportEvery = flag.Duration("metrics-report-every", 0, "emit a periodic JSON self-report of latency histograms and headline counters to stderr (0 = off)")

		auditSample = flag.Float64("audit-sample", 0, "continuously audit this fraction of completed queries against exact ground truth (0 = off; needs -adaptive tables for scoring)")
		auditEvery  = flag.Duration("audit-every", time.Second, "audit worker scoring cadence")
		auditQueue  = flag.Int("audit-queue", 1024, "pending audit samples before overflow drops")
		sloCoverage = flag.Float64("slo-coverage", 0, "SLO: minimum empirical CI coverage per table, e.g. 0.95 (0 = objective off; implies auditing)")
		sloP99MS    = flag.Int("slo-p99-ms", 0, "SLO: at most 1% of queries may run longer than this many milliseconds (0 = objective off)")
		sloEvery    = flag.Duration("slo-every", 5*time.Second, "SLO error-budget evaluation cadence")
		sloWindow   = flag.Int("slo-window", 60, "SLO budget window in evaluation ticks")
		histLen     = flag.Int("metrics-history", obs.DefaultHistoryCapacity, "metrics history ring capacity in samples served by GET /metrics/history (0 = off)")
		histEvery   = flag.Duration("metrics-history-every", 5*time.Second, "metrics history snapshot cadence")
	)
	flag.Parse()

	sess := pass.NewSession()
	if *planCache != pass.DefaultPlanCacheSize {
		sess.SetPlanCacheSize(*planCache)
	}
	// strict mode must be set before any table registers or warm-starts so
	// every sharded engine picks it up
	sess.SetStrictScatter(*strictMode)
	if *adaptive {
		// enable before the store attaches so warm-started tables join the
		// statistics too
		if err := sess.EnableAdaptive(pass.AdaptiveConfig{
			ReoptInterval: *reoptEvery,
			Logf:          log.Printf,
		}); err != nil {
			fatal(err)
		}
		log.Printf("passd: adaptive serving on (re-optimize every %s)", *reoptEvery)
	}
	if *auditSample > 0 || *sloCoverage > 0 || *sloP99MS > 0 {
		// enable before tables register (demo, CSV loads, warm start) so
		// every table gets the tap; fraction -1 arms only the SLO monitor
		fraction := *auditSample
		if fraction <= 0 {
			fraction = -1
		}
		if err := sess.EnableAudit(pass.AuditConfig{
			SampleFraction: fraction,
			Interval:       *auditEvery,
			QueueSize:      *auditQueue,
			SLOCoverage:    *sloCoverage,
			SLOP99:         time.Duration(*sloP99MS) * time.Millisecond,
			SLOInterval:    *sloEvery,
			SLOWindowTicks: *sloWindow,
			AlertLog:       os.Stderr,
		}); err != nil {
			fatal(err)
		}
		log.Printf("passd: accuracy auditing on (sample %.2f, slo coverage %.2f, slo p99 %dms)",
			*auditSample, *sloCoverage, *sloP99MS)
	}
	if *dataDir != "" {
		opts := store.Options{
			WALThreshold:       *walMax,
			CheckpointInterval: *ckptEvery,
			NoSync:             *noSync,
			Logf:               log.Printf,
		}
		if *faultSpec != "" {
			rules, err := vfs.ParseSchedule(*faultSpec)
			if err != nil {
				fatal(fmt.Errorf("-fault-schedule: %w", err))
			}
			opts.FS = vfs.NewFaultFS(vfs.OS(), rules...)
			log.Printf("passd: FAULT INJECTION ON: %d rule(s) armed (%s)", len(rules), *faultSpec)
		}
		st, err := store.Open(*dataDir, opts)
		if err != nil {
			fatal(err)
		}
		n, err := sess.AttachStore(st)
		if err != nil {
			fatal(fmt.Errorf("warm start from %s: %w", *dataDir, err))
		}
		log.Printf("passd: warm start: restored %d table(s) from %s", n, *dataDir)
	}

	srv := newServer(sess)
	srv.buildDefaults = buildOptions{Partitions: *partitions, SampleRate: *rate, Seed: *seed, Shards: *shards}
	srv.queryTimeout = *queryTimeout
	if *maxBodyMB > 0 {
		srv.maxBody = int64(*maxBodyMB) << 20
	}
	srv.setMaxInflight(*maxInflight)
	srv.pprofOn = *pprofOn

	// observability: the structured logs share one encoder on stderr, the
	// session stats are bridged into the metrics registry for GET /metrics,
	// and the optional self-report heartbeat runs until shutdown
	stderrLog := obs.NewJSONLog(os.Stderr)
	srv.reqLog = stderrLog
	if *slowQueryMS >= 0 {
		sess.SetSlowQueryLog(os.Stderr, time.Duration(*slowQueryMS)*time.Millisecond)
		log.Printf("passd: slow-query log on (threshold %dms)", *slowQueryMS)
	}
	registerCollectors(sess)
	obs.RegisterRuntimeMetrics(nil)
	if *histLen > 0 {
		hist := obs.NewHistory(nil, *histLen)
		hist.Start(*histEvery)
		defer hist.Stop()
		srv.history = hist
	}
	reportCtx, stopReport := context.WithCancel(context.Background())
	defer stopReport()
	startSelfReport(reportCtx, *reportEvery, stderrLog)
	if *pprofOn {
		log.Printf("passd: pprof endpoints on %s/debug/pprof/", *listen)
	}

	if *demo != "" {
		if err := loadDemo(sess, *demo, *demoRows, *partitions, *rate, *seed, *shards); err != nil {
			fatal(err)
		}
	}

	// slow-client defense: bound how long a peer may dribble headers and
	// bodies, and how long a response write may hang on a stalled reader.
	// The write timeout must cover -query-timeout or the server would cut
	// off responses for queries it promised to run that long.
	writeTimeout := *httpTimeout
	if *queryTimeout > 0 && writeTimeout > 0 && writeTimeout < *queryTimeout+10*time.Second {
		writeTimeout = *queryTimeout + 10*time.Second
	}
	httpSrv := &http.Server{
		Addr:              *listen,
		Handler:           srv.handler(),
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       *httpTimeout,
		WriteTimeout:      writeTimeout,
		IdleTimeout:       2 * time.Minute,
	}
	srv.ready.Store(true)
	errCh := make(chan error, 1)
	go func() {
		log.Printf("passd: listening on %s", *listen)
		errCh <- httpSrv.ListenAndServe()
	}()

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)

	select {
	case err := <-errCh:
		fatal(err)
	case sig := <-sigCh:
		log.Printf("passd: received %s, shutting down", sig)
	}
	// flip readiness first so load balancers drain us while in-flight
	// requests finish under Shutdown below
	srv.ready.Store(false)

	// graceful shutdown: stop accepting requests and drain in-flight ones,
	// then flush every journaled update into its snapshot
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		log.Printf("passd: HTTP shutdown: %v", err)
	}
	if err := sess.Close(); err != nil {
		fatal(fmt.Errorf("final checkpoint: %w", err))
	}
	if sess.Persistent() {
		log.Printf("passd: state checkpointed; clean exit")
	}
}

// loadDemo builds and registers the -demo table, sharded when -shards > 1;
// with -data-dir it is persisted like any other table.
func loadDemo(sess *pass.Session, name string, rows, partitions int, rate float64, seed uint64, shards int) error {
	if existing := sess.Tables(); len(existing) > 0 {
		for _, t := range existing {
			if t.Name == "demo" {
				log.Printf("passd: demo table already restored from the data dir; skipping rebuild")
				return nil
			}
		}
	}
	tbl, err := pass.Demo(name, rows, seed)
	if err != nil {
		return err
	}
	opt := pass.Options{Partitions: partitions, SampleRate: rate, Seed: seed}
	if err := sess.CreateTable("demo", tbl, opt, shards); err != nil {
		return err
	}
	log.Printf("passd: loaded demo table %q (%d rows, %d shard(s), adaptive=%v, persisted=%v)", name, tbl.Len(), max(shards, 1), sess.Adaptive(), sess.Persistent())
	return nil
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "passd: %v\n", err)
	os.Exit(1)
}
