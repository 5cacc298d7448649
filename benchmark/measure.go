package main

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
)

// percentile returns the p-th percentile (0 < p <= 100) of an ascending
// slice by the nearest-rank rule: the smallest value with at least p% of
// the samples at or below it. It is an observed sample, never an
// interpolation.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	return sorted[rank(p, len(sorted))-1]
}

// rank is the 1-based nearest rank of the p-th percentile among n
// samples. The small allowance keeps a product that is a whole number in
// exact arithmetic (99.9 % of 10000) from rounding up to the next rank.
func rank(p float64, n int) int {
	return max(1, int(math.Ceil(p/100*float64(n)-1e-9)))
}

// tailPercentiles are the candidates for "the highest percentile the
// sample supports".
var tailPercentiles = []float64{50, 90, 99, 99.9, 99.99, 99.999}

// tailPercentile picks the highest candidate percentile with at least
// ten samples beyond it; with fewer than twenty samples that is the
// median.
func tailPercentile(n int) float64 {
	best := tailPercentiles[0]
	for _, p := range tailPercentiles {
		if beyond := n - rank(p, n); beyond >= 10 {
			best = p
		}
	}
	return best
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n == 0 {
		return math.NaN()
	} else if n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// promSample is one scrape of passd's GET /metrics: series name (labels
// included, as written) to value.
type promSample map[string]float64

// parseProm reads Prometheus text exposition 0.0.4: comment and blank
// lines are skipped, every other line is "series value" with an optional
// trailing timestamp.
func parseProm(text []byte) (promSample, error) {
	out := promSample{}
	sc := bufio.NewScanner(bytes.NewReader(text))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		// the series name may contain spaces inside label values; the
		// value starts after the closing brace, or after the first space
		cut := strings.LastIndexByte(line, '}') + 1
		if cut == 0 {
			cut = strings.IndexByte(line, ' ')
		}
		if cut <= 0 || cut >= len(line) {
			return nil, fmt.Errorf("metrics: malformed line %q", line)
		}
		fields := strings.Fields(line[cut:])
		if len(fields) == 0 {
			return nil, fmt.Errorf("metrics: no value in line %q", line)
		}
		v, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics: line %q: %w", line, err)
		}
		out[strings.TrimSpace(line[:cut])] = v
	}
	return out, sc.Err()
}

// promDelta is the growth of the counters between two scrapes.
type promDelta struct{ before, after promSample }

func (d promDelta) of(series string) float64 { return d.after[series] - d.before[series] }

// mean is the average observation of a histogram over the interval, from
// its _sum and _count series; 0 when nothing was observed.
func (d promDelta) mean(histogram string) float64 {
	n := d.of(histogram + "_count")
	if n <= 0 {
		return 0
	}
	return d.of(histogram+"_sum") / n
}

// userHZ is the unit of the times in /proc/<pid>/stat. Linux reports
// them in USER_HZ, which is 100 on every architecture Go supports
// (sysconf(_SC_CLK_TCK) would say the same).
const userHZ = 100

// parseProcStatCPU extracts utime+stime from the text of
// /proc/<pid>/stat, in milliseconds. The command name (field 2) is in
// parentheses and may itself contain spaces and parentheses, so fields
// are counted from the last ')': utime and stime are fields 14 and 15.
func parseProcStatCPU(stat string) (ms float64, err error) {
	rest := stat[strings.LastIndexByte(stat, ')')+1:]
	f := strings.Fields(rest) // f[0] is field 3 (state)
	if len(f) < 13 {
		return 0, fmt.Errorf("proc stat: %d fields after the command name, want at least 13", len(f))
	}
	utime, err1 := strconv.ParseUint(f[11], 10, 64)
	stime, err2 := strconv.ParseUint(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("proc stat: utime %q stime %q are not numbers", f[11], f[12])
	}
	return float64(utime+stime) * 1000 / userHZ, nil
}

func procCPUms(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	return parseProcStatCPU(string(b))
}

// procPeakRSSMB reads VmHWM, the process's peak resident set.
func procPeakRSSMB(pid int) float64 {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1024
		}
	}
	return 0
}

// dirBytes is the total size of the regular files directly in dir.
func dirBytes(dir string) int64 {
	var total int64
	entries, _ := os.ReadDir(dir)
	for _, ent := range entries {
		if info, err := ent.Info(); err == nil && info.Mode().IsRegular() {
			total += info.Size()
		}
	}
	return total
}
