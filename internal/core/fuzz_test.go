package core

import (
	"bytes"
	"io"
	"runtime"
	"testing"

	"repro/internal/dataset"
	"repro/internal/sketch"
)

// FuzzLoadSynopsis feeds Load arbitrary bytes, seeded with version-3 1D
// and k-d synopses and a 1D one relabelled version 2, which is refused. Whatever the input, Load returns
// an error or a synopsis — it never panics — and it allocates in
// proportion to the input, never to a length or count it read: a corrupt
// field cannot claim gigabytes. A synopsis it returns answers queries and
// saves without panicking too.
func FuzzLoadSynopsis(f *testing.F) {
	oneD, err := Build(dataset.GenNYCTaxi(2000, 1, 3), Options{Partitions: 8, SampleRate: 0.02, Seed: 3, Fanout: 3})
	if err != nil {
		f.Fatal(err)
	}
	kd, err := BuildKD(dataset.GenNYCTaxi(2000, 3, 4), Options{Partitions: 8, SampleRate: 0.02, Seed: 4, IndexCols: []int{2, 1}})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(withVersion(f, saveBytes(f, oneD), 2))
	for _, s := range []*Synopsis{oneD, kd} {
		b := saveBytes(f, s)
		f.Add(b)
		f.Add(b[:len(b)/2])
	}
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		s, err := Load(bytes.NewReader(data))
		runtime.ReadMemStats(&after)
		// generous: a decoded int is 8 bytes from a 1-byte varint, and the
		// sketch set and blob reads have fixed-size floors
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 64*uint64(len(data))+4<<20 {
			t.Fatalf("Load allocated %d bytes for %d bytes of input", alloc, len(data))
		}
		if err != nil {
			return
		}
		lo, hi := make([]float64, s.Dims()), make([]float64, s.Dims())
		for c := range hi {
			lo[c], hi[c] = 2, 20
		}
		for _, kind := range []dataset.AggKind{dataset.Sum, dataset.Count, dataset.Avg, dataset.Min, dataset.Max} {
			_, _ = s.Query(kind, dataset.Rect{Lo: lo, Hi: hi})
		}
		_, _ = s.SketchQuery(sketch.Query{Kind: sketch.KindQuantile, Arg: 0.5})
		if err := s.Save(io.Discard); err != nil {
			t.Fatalf("a loaded synopsis does not save: %v", err)
		}
	})
}
