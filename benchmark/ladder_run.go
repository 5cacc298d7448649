package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

const (
	// ladderStatements is how many statements of the first reader's stream
	// the ladder replays, ladderInserts how many requests of the first
	// writer's (most write rungs fsync, several times per request). A
	// workload without readers (or writers) has the stream all the same: it
	// is generated, just not sent to passd.
	ladderStatements = 20_000
	ladderInserts    = 400
)

// runLadder is the traced run's second half: it writes the workload's
// generated inputs to files, builds ./ladder and runs it on them, and adds
// the metrics it reports to res. The ladder is a program of its own — see
// ladder/main.go for why.
func runLadder(e *env, sp spec, o opts, res *result) error {
	dir := filepath.Join(e.runDir, "ladder-"+sp.name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	var (
		csvPath     = filepath.Join(dir, "table.csv")
		stmtsPath   = filepath.Join(dir, "statements.sql")
		insertsPath = filepath.Join(dir, "inserts.jsonl")
		inputPath   = filepath.Join(dir, "input.json")
		metricsPath = filepath.Join(dir, "metrics.json")
		tracePath   = filepath.Join(o.outDir, "trace_"+sp.name+".json")
	)
	input, err := json.Marshal(map[string]any{
		"workload":    sp.name,
		"table":       tableName,
		"table_csv":   csvPath,
		"partitions":  sp.partitions,
		"sample_rate": sp.sampleRate,
		"shards":      4,
		"durable":     sp.durable,
		"statements":  stmtsPath,
		"inserts":     insertsPath,
		"scratch_dir": dir,
		"trace_out":   tracePath,
		"metrics_out": metricsPath,
	})
	if err != nil {
		return err
	}
	var stmts, inserts bytes.Buffer
	for _, s := range genStmts(newRNG(o.seed, sp.name, "reader0"), ladderStatements, sp.dims, sp.aggs) {
		stmts.WriteString(s.sql)
		stmts.WriteByte('\n')
	}
	for _, ib := range genInserts(newRNG(o.seed, sp.name, "writer0"), ladderInserts, sp.dims) {
		inserts.Write(ib.body)
		inserts.WriteByte('\n')
	}
	for path, data := range map[string][]byte{
		csvPath:     genTable(o.seed, sp.name, sp.rows, sp.dims).csv(),
		stmtsPath:   stmts.Bytes(),
		insertsPath: inserts.Bytes(),
		inputPath:   input,
	} {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			return err
		}
	}

	bin, err := e.goBuild(filepath.Join(e.root, "benchmark"), "./ladder", "ladder")
	if err != nil {
		return err
	}
	if err := e.run(dir, "ladder.log", bin, "-input", inputPath); err != nil {
		return err
	}
	raw, err := os.ReadFile(metricsPath)
	if err != nil {
		return err
	}
	var metrics map[string]float64
	if err := json.Unmarshal(raw, &metrics); err != nil {
		return fmt.Errorf("ladder metrics: %w", err)
	}
	for name, v := range metrics {
		res.metrics[name] = v
	}
	res.tracePath = tracePath
	return os.RemoveAll(dir)
}
