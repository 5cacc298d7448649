// Command benchmark is the repository's benchmark: it builds cmd/passd,
// runs the real daemon, drives it over loopback HTTP with closed-loop
// clients on four workloads, checks the answers against exact truth it
// computes from its own copy of the data, and prints end-to-end metrics
// (and, with -trace 1, per-layer metrics from outside the daemon and from
// an in-process layer ladder). README.md in this directory explains the
// workloads, the metrics and how they are expected to interact.
//
// BENCHMARK.json at the repo root runs it as
//
//	bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// and reads the JSON object on the last line of standard output.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

func main() {
	var (
		root     = flag.String("root", "", "repo checkout to benchmark (default: the directory above this package)")
		workload = flag.String("workload", "", "run one workload: point_1d, batch_kd, ingest or mixed_rw (default: all four)")
		seed     = flag.Uint64("seed", 1, "seed of every generated input: tables, statements, insert rows")
		seconds  = flag.Int("seconds", 15, "length of the measured window")
		trace    = flag.Int("trace", 0, "1: also run the in-process layer ladder, write trace_<workload>.json, and report the per-layer metrics on the last line")
		smoke    = flag.Bool("smoke", false, "quick look: 2 s window, one set-up")
		aa       = flag.Bool("aa", false, "run two alternating sets of runs on the same build and fail if the medians of any end-to-end metric differ by more than its bound")
		outDir   = flag.String("out", "", "directory for trace files (default: <root>/.bench_build/out)")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: benchmark [-workload name] [-seed n] [-seconds s] [-trace 0|1] [-smoke] [-aa]")
		os.Exit(2)
	}
	if *root == "" {
		*root = findRoot()
	}
	o := opts{
		seed:   *seed,
		window: time.Duration(*seconds) * time.Second,
		warmup: 1500 * time.Millisecond,
		setups: 3,
		trace:  *trace == 1,
		outDir: *outDir,
	}
	if *smoke {
		o.window, o.warmup, o.setups = 2*time.Second, 500*time.Millisecond, 1
	}
	if o.trace {
		o.setups = 1 // setup_s is an end-to-end metric; the traced run does not report it
	}
	selected := workloads
	if *workload != "" {
		w, ok := workloadByName(*workload)
		if !ok {
			fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *workload)
			os.Exit(2)
		}
		selected = []spec{w}
	}
	os.Exit(run(*root, selected, o, *aa))
}

// findRoot looks for the checkout from the working directory: the
// checkout itself, or benchmark/ inside it.
func findRoot() string {
	for _, dir := range []string{".", ".."} {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "passd", "main.go")); err == nil {
			return dir
		}
	}
	return "."
}

// run is main without os.Exit, so that the deferred clean-up runs on
// every return and on a panic.
func run(root string, selected []spec, o opts, aa bool) int {
	e, err := newEnv(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	defer e.close()
	if o.outDir == "" {
		o.outDir = filepath.Join(e.buildDir, "out")
	}
	passdBin, err := e.goBuild(e.root, "./cmd/passd", "passd")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	printHeader(e, o)

	suite := func() ([]*result, bool) {
		var results []*result
		ok := true
		for _, sp := range selected {
			res, err := runWorkload(e, passdBin, sp, o)
			if err == nil && o.trace {
				err = runLadder(e, sp, o, res)
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", sp.name, err)
				return results, false
			}
			report(res, o)
			ok = ok && res.failed == 0
			results = append(results, res)
		}
		return results, ok
	}

	if aa {
		// the two sides take turns, so that a drift of the host's speed
		// falls on both
		var sides [2][][]*result
		for round := 0; round < aaRounds; round++ {
			for side := range sides {
				results, ok := suite()
				if !ok {
					return 1
				}
				sides[side] = append(sides[side], results)
			}
		}
		if !compareAA(selected, sides) {
			return 1
		}
		return 0
	}
	results, ok := suite()
	if len(results) == len(selected) {
		// the contract's result line: the last workload run (the only
		// one, when the driver names it)
		fmt.Println(resultLine(results[len(results)-1], o))
	}
	if !ok {
		return 1
	}
	return 0
}

// aaRounds is how many times -aa runs each of its two sides. One run per
// side is not enough on a shared host: single runs of point_1d a minute
// apart have differed by 28 %.
const aaRounds = 3

// reported is the metric set of the run's kind: end-to-end metrics from
// a plain run, layer metrics from a traced run.
func reported(o opts) []metricDef {
	if o.trace {
		return layerMetrics
	}
	return e2eMetrics
}

// resultLine is the one-line JSON object the driver reads.
func resultLine(res *result, o opts) string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.failed == 0, res.attempted, res.failed, map[string]value{}}
	for _, d := range reported(o) {
		out.Metrics[d.name] = value{res.metrics[d.name], d.unit}
	}
	b, err := json.Marshal(out)
	if err != nil { // a NaN or Inf metric: a bug in the benchmark, not a result
		panic(err)
	}
	return string(b)
}

// report prints every metric of one workload by name, with its unit and,
// for timings, the number of samples behind it.
func report(res *result, o opts) {
	sp, _ := workloadByName(res.workload)
	fmt.Printf("\n== %s: %s\n", sp.name, sp.why)
	fmt.Printf("   %d reader(s), %d writer(s), closed loop; table %d rows x %d dim(s); passd %s\n",
		sp.readers, sp.writers, sp.rows, sp.dims, strings.Join(res.flags, " "))
	line := func(d metricDef) {
		v, ok := res.metrics[d.name]
		if !ok {
			return
		}
		extra := ""
		if n := res.samples[d.name]; n > 0 {
			extra = fmt.Sprintf("  (n=%d)", n)
		}
		if d.bound > 0 {
			extra += fmt.Sprintf("  [%s is better, bound %.0f%%]", d.better, d.bound*100)
		}
		fmt.Printf("   %-34s %14.6g %-6s%s\n", d.name, v, d.unit, extra)
	}
	fmt.Println("  end to end:")
	for _, d := range e2eMetrics {
		line(d)
	}
	fmt.Println("  per layer:")
	for _, d := range layerMetrics {
		line(d)
	}
	if res.tracePath != "" {
		fmt.Println("  trace:", res.tracePath)
	}
	fmt.Printf("  checks: %d attempted, %d failed\n", res.attempted, res.failed)
	for _, f := range res.failures {
		fmt.Println("   FAILED:", f)
	}
}

// compareAA prints, for two sets of runs of the same build, the median of
// every end-to-end metric on each side, their ratio and the bound, and
// reports whether every pair agrees within its bound.
func compareAA(selected []spec, sides [2][][]*result) bool {
	fmt.Printf("\n== A/A: two sides of %d alternating runs each, same build; medians\n", aaRounds)
	fmt.Printf("   %-10s %-16s %14s %14s %8s %7s\n", "workload", "metric", "first", "second", "ratio", "bound")
	ok := true
	for w, sp := range selected {
		for _, d := range e2eMetrics {
			var med [2]float64
			for side, rounds := range sides {
				var v []float64
				for _, results := range rounds {
					v = append(v, results[w].metrics[d.name])
				}
				med[side] = median(v)
			}
			ratio := med[1] / med[0]
			verdict := ""
			if ratio > 1+d.bound || ratio < 1/(1+d.bound) {
				verdict, ok = "  DISAGREE", false
			}
			fmt.Printf("   %-10s %-16s %14.6g %14.6g %8.3f %6.0f%%%s\n", sp.name, d.name, med[0], med[1], ratio, d.bound*100, verdict)
		}
	}
	return ok
}

// printHeader states what the numbers depend on.
func printHeader(e *env, o opts) {
	fmt.Println("PASS benchmark: a real passd over loopback HTTP")
	fmt.Printf("  commit      %s\n", commandLine(e.root, "git", "rev-parse", "--short", "HEAD"))
	fmt.Printf("  go          %s\n", commandLine(e.root, "go", "version"))
	fmt.Printf("  cpu         %s; nproc %d, GOMAXPROCS %d (load generator and passd share them)\n",
		cpuModel(), runtime.NumCPU(), runtime.GOMAXPROCS(0))
	fmt.Printf("  data dir    %s (%s); WAL fsync on every insert request (passd's default flush policy)\n", e.runDir, fsType(e.runDir))
	fmt.Printf("  seed %d, window %s after a %s discarded warm-up, %d set-up(s) per run, trace %v\n",
		o.seed, o.window, o.warmup, o.setups, o.trace)
}

// commandLine is the first line a quick command prints, or "unknown"
// (a driver checkout is not a git repository).
func commandLine(dir, name string, args ...string) string {
	cmd := exec.Command(name, args...)
	cmd.Dir = dir
	out, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(strings.SplitN(string(out), "\n", 2)[0])
}

func cpuModel() string {
	b, _ := os.ReadFile("/proc/cpuinfo")
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// fsType names the filesystem under dir, which sets what an fsync costs.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown fs"
	}
	names := map[int64]string{0xEF53: "ext4", 0x01021994: "tmpfs", 0x794C7630: "overlayfs", 0x58465342: "xfs", 0x9123683E: "btrfs"}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("fs type %#x", st.Type)
}
