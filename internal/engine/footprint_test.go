//go:build !race

package engine_test

import (
	"runtime"
	"testing"

	"repro/internal/dataset"
	"repro/internal/engine/factory"
)

// TestSynopsisFootprint holds a built PASS table's live heap to the size
// it reports. With the build dataset dropped, what stays reachable must be
// within 2 × MemoryBytes + 1 MiB: room for the prefix arrays MemoryBytes
// leaves out and for allocator rounding, but not for a copy of the
// dataset, per-leaf tuple lists or a second copy of the samples. The race
// detector changes allocation sizes, so the file builds without it only.
func TestSynopsisFootprint(t *testing.T) {
	cases := []struct {
		name, kind string
		rows, dims int
		spec       factory.Spec
	}{
		// the table of the batch_kd benchmark workload
		{"batch_kd", "sharded:pass:4", 300_000, 3, factory.Spec{Partitions: 256, SampleRate: 0.05, Seed: 1}},
		{"pass_1d", "pass", 1_000_000, 1, factory.Spec{SampleSize: 50_000, Seed: 1}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			before := liveHeap()
			e, err := factory.Build(c.kind, dataset.GenNYCTaxi(c.rows, c.dims, 1), c.spec)
			if err != nil {
				t.Fatal(err)
			}
			live := int(liveHeap()) - int(before)
			mem := e.MemoryBytes()
			runtime.KeepAlive(e)
			bound := 2*mem + 1<<20
			t.Logf("live heap %.2f MiB, MemoryBytes %.2f MiB, bound %.2f MiB", mb(live), mb(mem), mb(bound))
			if live > bound {
				t.Errorf("live heap %.2f MiB exceeds 2 × MemoryBytes (%.2f MiB) + 1 MiB", mb(live), mb(mem))
			}
		})
	}
}

// liveHeap returns the bytes of heap objects reachable after a full
// collection.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

func mb(b int) float64 { return float64(b) / (1 << 20) }
