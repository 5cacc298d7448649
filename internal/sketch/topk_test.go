package sketch

import (
	"cmp"
	"crypto/sha256"
	"fmt"
	"maps"
	"math"
	"slices"
	"sort"
	"testing"
)

// mapMisraGries is MisraGries as it was when its counters lived in a Go
// map: the reference the open-addressed table is held to.
type mapMisraGries struct {
	counts            map[uint64]uint64
	errBound, deletes uint64
}

func (m *mapMisraGries) add(k uint64) {
	if c, ok := m.counts[k]; ok {
		m.counts[k] = c + 1
		return
	}
	if len(m.counts) < mgCap {
		m.counts[k] = 1
		return
	}
	for k, c := range m.counts {
		if c == 1 {
			delete(m.counts, k)
		} else {
			m.counts[k] = c - 1
		}
	}
	m.errBound++
}

func (m *mapMisraGries) delete(k uint64) {
	if c, ok := m.counts[k]; ok {
		if c == 1 {
			delete(m.counts, k)
		} else {
			m.counts[k] = c - 1
		}
		return
	}
	m.deletes++
}

func (m *mapMisraGries) merge(o *mapMisraGries) {
	for k, c := range o.counts {
		m.counts[k] += c
	}
	m.errBound += o.errBound
	m.deletes += o.deletes
	if len(m.counts) <= mgCap {
		return
	}
	all := slices.Collect(maps.Values(m.counts))
	sort.Slice(all, func(i, j int) bool { return all[i] > all[j] })
	offset := all[mgCap]
	for k, c := range m.counts {
		if c <= offset {
			delete(m.counts, k)
		} else {
			m.counts[k] = c - offset
		}
	}
	m.errBound += offset
}

// sameState reports how m differs from the reference, or "".
func sameState(m *MisraGries, ref *mapMisraGries) string {
	var want []mgEntry
	for _, k := range slices.Sorted(maps.Keys(ref.counts)) {
		want = append(want, mgEntry{k, ref.counts[k]})
	}
	if got := m.entries(); !slices.Equal(got, want) || m.size != len(want) {
		return fmt.Sprintf("counters %v (size %d), want %v", got, m.size, want)
	}
	if m.errBound != ref.errBound || m.deletes != ref.deletes {
		return fmt.Sprintf("errBound %d deletes %d, want %d %d", m.errBound, m.deletes, ref.errBound, ref.deletes)
	}
	return ""
}

// TestMisraGriesMatchesMapReference runs streams of adds, deletes (of held
// and of absent values), clones and merges (within capacity and over it,
// up to 2·mgCap distinct counters) through the table and through the
// map-based reference: the counters, errBound and deletes agree after
// every step, and so do top-k answers.
func TestMisraGriesMatchesMapReference(t *testing.T) {
	r := &rng{s: 17}
	newPair := func() (*MisraGries, *mapMisraGries) {
		return NewMisraGries(), &mapMisraGries{counts: map[uint64]uint64{}}
	}
	feed := func(m *MisraGries, ref *mapMisraGries, n, distinct int, base uint64) {
		for i := 0; i < n; i++ {
			k := canonBits(float64(base + r.next()%uint64(distinct)))
			if r.next()%5 == 0 {
				m.Delete(k)
				ref.delete(k)
			} else {
				m.Add(k)
				ref.add(k)
			}
		}
	}
	for trial := 0; trial < 200; trial++ {
		m, ref := newPair()
		distinct := []int{3, 40, 64, 65, 90, 500, 100000}[trial%7]
		feed(m, ref, int(r.next()%3000), distinct, 0)
		if diff := sameState(m, ref); diff != "" {
			t.Fatalf("trial %d after the stream: %s", trial, diff)
		}
		// a clone is independent of its source
		c, cref := m.Clone(), &mapMisraGries{maps.Clone(ref.counts), ref.errBound, ref.deletes}
		feed(m, ref, 50, distinct, 0)
		if diff := sameState(c, cref); diff != "" {
			t.Fatalf("trial %d: updates to the source changed its clone: %s", trial, diff)
		}
		o, oref := newPair()
		feed(o, oref, int(r.next()%3000), distinct, uint64(trial%3)*1e6) // disjoint keys for two thirds
		m.Merge(o)
		ref.merge(oref)
		if diff := sameState(m, ref); diff != "" {
			t.Fatalf("trial %d after a merge: %s", trial, diff)
		}
		if diff := sameState(o, oref); diff != "" {
			t.Fatalf("trial %d: merge changed its argument: %s", trial, diff)
		}
		feed(m, ref, 500, distinct, 0)
		if diff := sameState(m, ref); diff != "" {
			t.Fatalf("trial %d after more updates: %s", trial, diff)
		}
		want := slices.SortedFunc(maps.Keys(ref.counts), func(a, b uint64) int {
			if ref.counts[a] != ref.counts[b] {
				return cmp.Compare(ref.counts[b], ref.counts[a])
			}
			return cmp.Compare(a, b)
		})
		got := m.TopK(10).Entries
		for i := range got {
			if math.Float64bits(got[i].Value) != want[i] || got[i].Count != float64(ref.counts[want[i]]) {
				t.Fatalf("trial %d: TopK entry %d is %+v, want value bits %#x count %d", trial, i, got[i], want[i], ref.counts[want[i]])
			}
		}
		if len(got) != min(10, len(want)) {
			t.Fatalf("trial %d: TopK has %d entries, want %d", trial, len(got), min(10, len(want)))
		}
	}
}

// encodedStreamDigest is the SHA-256 of the encoding of the Set the
// stream in TestSetEncodingUnchanged builds, recorded when Misra-Gries
// kept its counters in a Go map.
const encodedStreamDigest = "4a9ed25dc2c29bc88f8a08c76174912e67419511f8c8b41b934a149880cf025e"

// TestSetEncodingUnchanged: a Set built row by row over a shard's worth of
// benchmark-shaped values, with deletes and a merge, serializes byte for
// byte as it did with the map-based Misra-Gries.
func TestSetEncodingUnchanged(t *testing.T) {
	vals := tripDistances(250_000, 1)
	s := NewSet()
	for i, v := range vals {
		s.Add(v)
		if i%7 == 3 {
			s.Delete(vals[i/2])
		}
	}
	o := NewSet()
	for _, v := range tripDistances(50_000, 2) {
		o.Add(v)
	}
	s.Merge(o)
	if got := fmt.Sprintf("%x", sha256.Sum256(s.Encode())); got != encodedStreamDigest {
		t.Fatalf("encoding digest %s, want %s", got, encodedStreamDigest)
	}
}
