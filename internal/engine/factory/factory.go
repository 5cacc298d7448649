// Package factory constructs any of the repository's AQP engines from a
// uniform specification, by name. It is the one place that knows every
// concrete implementation; layers above it (cmd/passquery, the
// conformance suite, serving code) pick engines with a string and program
// against engine.Engine only.
//
// The factory lives in a subpackage of internal/engine because the
// implementations themselves import internal/engine (for the shared
// sequential-batch adapter), so the interface package cannot import them
// back.
package factory

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"strconv"
	"strings"

	"repro/internal/aqpp"
	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/deepdb"
	"repro/internal/engine"
	"repro/internal/shard"
	"repro/internal/verdictdb"
)

// Spec is an engine-agnostic construction budget. Zero fields take
// per-engine defaults.
type Spec struct {
	// Partitions is the precomputation budget (PASS leaves, ST strata,
	// AQP++ partitions, DeepDB buckets). Default 64.
	Partitions int
	// SampleRate is the sample budget as a fraction of the data (default
	// 0.005). Ignored when SampleSize is set.
	SampleRate float64
	// SampleSize is the absolute sample budget; overrides SampleRate.
	SampleSize int
	// Ratio is the VerdictDB scramble / DeepDB training ratio (default
	// 0.1).
	Ratio float64
	// Lambda is the CI multiplier (default 2.576, a 99% interval).
	Lambda float64
	// Seed drives all randomness.
	Seed uint64
}

func (sp Spec) defaults(n int) Spec {
	if sp.Partitions <= 0 {
		sp.Partitions = 64
	}
	if sp.SampleSize <= 0 {
		rate := sp.SampleRate
		if rate <= 0 {
			rate = 0.005
		}
		sp.SampleSize = int(rate * float64(n))
		if sp.SampleSize < 1 {
			sp.SampleSize = 1
		}
	}
	if sp.Ratio <= 0 {
		sp.Ratio = 0.1
	}
	return sp
}

// builders maps an engine kind to its constructor. PASS picks the 1D or
// k-d build by the dataset's dimensionality; AQP++ likewise.
var builders = map[string]func(d *dataset.Dataset, sp Spec) (engine.Engine, error){
	"pass": func(d *dataset.Dataset, sp Spec) (engine.Engine, error) {
		opts := core.Options{
			Partitions: sp.Partitions, SampleSize: sp.SampleSize,
			Kind: dataset.Sum, Lambda: sp.Lambda, Seed: sp.Seed,
		}
		if d.Dims() > 1 {
			return core.BuildKD(d, opts)
		}
		return core.Build(d, opts)
	},
	"us": func(d *dataset.Dataset, sp Spec) (engine.Engine, error) {
		return baselines.NewUniform(d, sp.SampleSize, sp.Lambda, sp.Seed), nil
	},
	"st": func(d *dataset.Dataset, sp Spec) (engine.Engine, error) {
		return baselines.NewStratified(d, sp.Partitions, sp.SampleSize, sp.Lambda, sp.Seed), nil
	},
	"aqpp": func(d *dataset.Dataset, sp Spec) (engine.Engine, error) {
		opts := aqpp.Options{
			Partitions: sp.Partitions, SampleSize: sp.SampleSize,
			Lambda: sp.Lambda, Seed: sp.Seed,
		}
		if d.Dims() > 1 {
			return aqpp.NewKD(d, opts)
		}
		return aqpp.New(d, opts)
	},
	"verdictdb": func(d *dataset.Dataset, sp Spec) (engine.Engine, error) {
		return verdictdb.New(d, sp.Ratio, sp.Lambda, sp.Seed)
	},
	"deepdb": func(d *dataset.Dataset, sp Spec) (engine.Engine, error) {
		return deepdb.New(d, deepdb.Options{
			TrainRatio: sp.Ratio, Buckets: sp.Partitions, Seed: sp.Seed,
		})
	},
}

// loaders maps an engine's display name (what Engine.Name returns and
// what store snapshots record) to the function restoring it from its
// serialized bytes. Only engines with an engine.Serializable Save have a
// loader; the model-based comparators rebuild from data instead.
var loaders = map[string]engine.Loader{
	"PASS": func(r io.Reader) (engine.Engine, error) { return core.Load(r) },
	"US":   baselines.LoadUniform,
	"ST":   baselines.LoadStratified,
}

// Loader returns the restore function for a serialized engine by its
// display name (case-sensitive, as recorded in snapshot files).
func Loader(name string) (engine.Loader, bool) {
	l, ok := loaders[name]
	return l, ok
}

// LoaderKinds lists the engine names that can be restored from a
// snapshot, sorted.
func LoaderKinds() []string {
	out := make([]string, 0, len(loaders))
	for k := range loaders {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Build constructs the named engine over d. Kind is case-insensitive; see
// Kinds for the available names. The spec "sharded:<inner>[:<n>[:<policy>]]"
// builds a sharded scatter-gather engine over n inner engines of the given
// kind (n defaults to GOMAXPROCS, policy to "range"), e.g. "sharded:pass:4".
func Build(kind string, d *dataset.Dataset, sp Spec) (engine.Engine, error) {
	if inner, ok := strings.CutPrefix(strings.ToLower(kind), "sharded:"); ok {
		return buildSharded(inner, d, sp)
	}
	b, ok := builders[strings.ToLower(kind)]
	if !ok {
		return nil, fmt.Errorf("factory: unknown engine %q (have %s, or sharded:<inner>:<n>)", kind, strings.Join(Kinds(), ", "))
	}
	return b(d, sp.defaults(d.N()))
}

// buildSharded parses "<inner>[:<n>[:<policy>]]" and constructs a sharded
// engine: the dataset is split on predicate column 0, one inner engine is
// built per shard concurrently on the worker pool, and the total
// Partitions/SampleSize budget is divided across the shards by
// shard.Budget.Share — a sharded table costs what its unsharded twin
// costs.
func buildSharded(spec string, d *dataset.Dataset, sp Spec) (engine.Engine, error) {
	inner := spec
	n := runtime.GOMAXPROCS(0)
	policy := shard.Range
	if name, rest, ok := strings.Cut(spec, ":"); ok {
		inner = name
		count, polName, _ := strings.Cut(rest, ":")
		v, err := strconv.Atoi(count)
		if err != nil || v < 1 {
			return nil, fmt.Errorf("factory: bad shard count %q in %q (want sharded:<inner>:<n>)", count, "sharded:"+spec)
		}
		n = v
		if polName != "" {
			if policy, err = shard.ParsePolicy(polName); err != nil {
				return nil, fmt.Errorf("factory: %w (want sharded:<inner>:<n>:<range|hash>)", err)
			}
		}
	}
	build, ok := builders[inner]
	if !ok {
		return nil, fmt.Errorf("factory: unknown inner engine %q in %q (have %s)", inner, "sharded:"+spec, strings.Join(Kinds(), ", "))
	}
	sp = sp.defaults(d.N())
	whole := shard.Budget{Partitions: sp.Partitions, SampleSize: sp.SampleSize, Seed: sp.Seed}
	total := d.N()
	return shard.Build(d, policy, 0, n, func(i int, sd *dataset.Dataset) (engine.Engine, error) {
		b := whole.Share(i, sd.N(), total)
		per := sp
		per.Partitions, per.SampleSize, per.Seed = b.Partitions, b.SampleSize, b.Seed
		return build(sd, per)
	})
}

// Kinds lists the available engine names, sorted.
func Kinds() []string {
	out := make([]string, 0, len(builders))
	for k := range builders {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
