package main

// The benchmark's vocabulary: workloads and metric names. BENCHMARK.json
// at the repo root repeats these tables for the driver; a test keeps the
// two in step. README.md says what each metric means and which
// end-to-end metric each layer metric is expected to move.

// spec is one workload: the table it loads into passd and the closed-loop
// clients it runs against it.
type spec struct {
	name string
	why  string // one line, repeated in BENCHMARK.json

	dims, rows int
	// partitions and sampleRate go into the POST /tables body; zero
	// leaves passd's default (64 partitions, rate 0.005).
	partitions int
	sampleRate float64
	// durable starts passd with -data-dir. Only a 1-D table can be
	// durable: a multi-dimensional synopsis is not serializable.
	durable bool

	readers, writers int      // closed-loop clients; their sum is at most nproc
	stmtsPerRequest  int      // statements in one POST /query
	aggs             []string // rotated over the reader's statements
}

var allAggs = []string{"SUM", "COUNT", "AVG", "MIN", "MAX"}

var workloads = []spec{
	{
		name: "point_1d",
		why:  "one 1-D statement per request on plan-cache hits: HTTP, JSON, session and sqlfe do the work and core almost none",
		dims: 1, rows: 1_000_000, durable: true,
		readers: 2, stmtsPerRequest: 1, aggs: allAggs,
	},
	{
		name: "batch_kd",
		why:  "64 unaligned 3-D statements per request: HTTP is amortised and the core tree walk, leaf scan, shard scatter and merge do the work",
		dims: 3, rows: 300_000, partitions: 256, sampleRate: 0.05,
		readers: 2, stmtsPerRequest: 64, aggs: []string{"SUM", "COUNT", "AVG"},
	},
	{
		name: "ingest",
		why:  "two writers of 16-row inserts into a durable table: WAL append, fsync and checkpoints dominate; ends with kill -9 and a verified warm start",
		dims: 1, rows: 1_000_000, durable: true,
		writers: 2, stmtsPerRequest: 1, aggs: allAggs,
	},
	{
		name: "mixed_rw",
		why:  "one reader measured while one writer inserts into the same durable table: shows what the write path costs readers through locks and fsync",
		dims: 1, rows: 1_000_000, durable: true,
		readers: 1, writers: 1, stmtsPerRequest: 1, aggs: allAggs,
	},
}

func workloadByName(name string) (spec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return spec{}, false
}

// metricDef names one metric. bound is the share of the parent's median
// by which an end-to-end metric may worsen before it counts as a
// regression; layer metrics carry none.
type metricDef struct {
	name, unit, better string
	bound              float64
}

// The latency, throughput and CPU metrics describe the workload's primary
// request class: queries wherever there is a reader, inserts on ingest.
// The writer of mixed_rw is reported among the layer metrics
// (passd.write_*), because an end-to-end metric must exist on every
// workload.
//
// The bounds are what the run-to-run spread on a shared two-CPU virtual
// machine supports (README.md has the measurements): the host's speed
// drifts by the minute, so every timing gets the widest bound the driver
// allows. Tail latencies and the median relative error spread wider than
// that and are therefore reported as layer metrics, not bounded.
var e2eMetrics = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"latency_p50_ms", "ms", "lower", 0.25},
	{"throughput_rps", "1/s", "higher", 0.25},
	{"cpu_ms_per_op", "ms", "lower", 0.25},
	{"ci_coverage", "ratio", "higher", 0.05},
}

var layerMetrics = []metricDef{
	// measured from outside a real passd during the traced run's window
	{name: "passd.handler_us", unit: "us", better: "lower"},
	{name: "passd.transport_us", unit: "us", better: "lower"},
	{name: "passd.resp_bytes", unit: "bytes", better: "lower"},
	{name: "passd.rss_peak_mb", unit: "MB", better: "lower"},
	{name: "passd.gc_pause_p99_ms", unit: "ms", better: "lower"},
	{name: "passd.latency_p90_ms", unit: "ms", better: "lower"},
	{name: "passd.latency_p99_ms", unit: "ms", better: "lower"},
	{name: "passd.tail_ms", unit: "ms", better: "lower"},
	{name: "passd.tail_pct", unit: "%", better: "higher"},
	{name: "passd.write_p50_ms", unit: "ms", better: "lower"},
	{name: "passd.write_p99_ms", unit: "ms", better: "lower"},
	{name: "passd.write_rows_s", unit: "1/s", better: "higher"},
	{name: "passd.rel_err_p50", unit: "ratio", better: "lower"},
	{name: "passd.error_rate", unit: "ratio", better: "lower"},
	{name: "passd.hard_bound_violations", unit: "count", better: "lower"},
	{name: "sqlfe.plancache_hit_ratio", unit: "ratio", better: "higher"},
	{name: "shard.fanout", unit: "count", better: "lower"},
	{name: "shard.prune_ratio", unit: "ratio", better: "higher"},
	{name: "store.wal_fsync_us", unit: "us", better: "lower"},
	{name: "store.fsyncs_per_request", unit: "count", better: "lower"},
	{name: "store.checkpoint_ms", unit: "ms", better: "lower"},
	{name: "store.checkpoints", unit: "count", better: "lower"},
	{name: "store.warm_start_ms", unit: "ms", better: "lower"},
	{name: "store.disk_bytes_per_row", unit: "bytes", better: "lower"},
	{name: "store.acked_rows_lost", unit: "count", better: "lower"},
	{name: "store.recovered_answer_drift", unit: "count", better: "lower"},

	// the read ladder, in process, top rung first
	{name: "passd.json_decode_us", unit: "us", better: "lower"},
	{name: "sqlfe.normalize_us", unit: "us", better: "lower"},
	{name: "sqlfe.normalize_allocs", unit: "count", better: "lower"},
	{name: "sqlfe.plancache_lookup_ns", unit: "ns", better: "lower"},
	{name: "sqlfe.bind_ns", unit: "ns", better: "lower"},
	{name: "sqlfe.compile_us", unit: "us", better: "lower"},
	{name: "session.exec_hit_us", unit: "us", better: "lower"},
	{name: "session.exec_cold_us", unit: "us", better: "lower"},
	{name: "session.exec_prepared_us", unit: "us", better: "lower"},
	{name: "session.exec_allocs", unit: "count", better: "lower"},
	{name: "session.self_ns", unit: "ns", better: "lower"},
	{name: "session.batch64_us", unit: "us", better: "lower"},
	{name: "catalog.query_us", unit: "us", better: "lower"},
	{name: "catalog.self_ns", unit: "ns", better: "lower"},
	{name: "catalog.query_under_write_us", unit: "us", better: "lower"},
	{name: "shard.query_us", unit: "us", better: "lower"},
	{name: "shard.self_ns", unit: "ns", better: "lower"},
	{name: "shard.querybatch64_us", unit: "us", better: "lower"},
	{name: "merge.fold_ns", unit: "ns", better: "lower"},
	{name: "core.query_ns", unit: "ns", better: "lower"},
	{name: "core.query_allocs", unit: "count", better: "lower"},
	{name: "core.querybatch64_us", unit: "us", better: "lower"},
	{name: "core.tuples_read_per_query", unit: "count", better: "lower"},
	{name: "core.partial_leaves_per_query", unit: "count", better: "lower"},
	{name: "core.visited_nodes_per_query", unit: "count", better: "lower"},
	{name: "core.exact_ratio", unit: "ratio", better: "higher"},
	{name: "core.ns_per_tuple", unit: "ns", better: "lower"},
	{name: "passd.json_encode_us", unit: "us", better: "lower"},
	{name: "ladder.read_self_sum_ratio", unit: "ratio", better: "higher"},

	// the write ladder
	{name: "core.insert_ns", unit: "ns", better: "lower"},
	{name: "shard.insert_ns", unit: "ns", better: "lower"},
	{name: "store.wal_append_nosync_us", unit: "us", better: "lower"},
	{name: "store.wal_append_us", unit: "us", better: "lower"},
	{name: "store.wal_bytes_per_row", unit: "bytes", better: "lower"},
	{name: "catalog.insert_many_us", unit: "us", better: "lower"},
	{name: "session.insert_many_us", unit: "us", better: "lower"},
	{name: "store.save_ms", unit: "ms", better: "lower"},
	{name: "store.load_ms", unit: "ms", better: "lower"},
	{name: "ladder.write_self_sum_ratio", unit: "ratio", better: "higher"},

	// set-up
	{name: "core.build_s", unit: "s", better: "lower"},
	{name: "core.synopsis_bytes", unit: "bytes", better: "lower"},
}
