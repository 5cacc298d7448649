package sketch

import (
	"encoding/binary"
	"math"
	"sort"
	"testing"
)

// refKLL is the KLL compaction as it was before compaction learned to
// sort without sort.Float64s: the reference FuzzKLLCompaction holds the
// live sketch to, level by level and bit by bit.
type refKLL struct {
	levels   [][]float64
	inserts  uint64
	errBound uint64
}

func (k *refKLL) add(v float64) {
	if len(k.levels) == 0 {
		k.levels = append(k.levels, make([]float64, 0, kllCap+1))
	}
	k.levels[0] = append(k.levels[0], v)
	k.inserts++
	k.cascade()
}

func (k *refKLL) cascade() {
	for l := 0; l < len(k.levels); l++ {
		if len(k.levels[l]) > kllCap {
			k.compact(l)
		}
	}
}

func (k *refKLL) compact(l int) {
	buf := k.levels[l]
	sort.Float64s(buf)
	n := len(buf)
	var held []float64
	if n%2 == 1 {
		held = []float64{buf[n-1]}
		n--
	}
	if l+1 >= len(k.levels) {
		k.levels = append(k.levels, make([]float64, 0, kllCap+1))
	}
	for i := 1; i < n; i += 2 {
		k.levels[l+1] = append(k.levels[l+1], buf[i])
	}
	k.levels[l] = append(buf[:0], held...)
	k.errBound += 1 << uint(l)
}

func (k *refKLL) merge(o *refKLL) {
	for l, buf := range o.levels {
		for l >= len(k.levels) {
			k.levels = append(k.levels, make([]float64, 0, kllCap+1))
		}
		k.levels[l] = append(k.levels[l], buf...)
	}
	k.inserts += o.inserts
	k.errBound += o.errBound
	k.cascade()
}

func (k *refKLL) clone() *refKLL {
	c := &refKLL{inserts: k.inserts, errBound: k.errBound}
	for _, buf := range k.levels {
		c.levels = append(c.levels, append(make([]float64, 0, kllCap+1), buf...))
	}
	return c
}

// sameKLL reports where got and want first differ: level count, a
// level's length or any value's bits, inserts, or errBound.
func sameKLL(t *testing.T, stage string, got *KLL, want *refKLL) {
	t.Helper()
	if got.inserts != want.inserts || got.errBound != want.errBound {
		t.Fatalf("%s: inserts/errBound %d/%d, reference %d/%d", stage, got.inserts, got.errBound, want.inserts, want.errBound)
	}
	if len(got.levels) != len(want.levels) {
		t.Fatalf("%s: %d levels, reference %d", stage, len(got.levels), len(want.levels))
	}
	for l := range got.levels {
		g, w := got.levels[l], want.levels[l]
		if len(g) != len(w) {
			t.Fatalf("%s: level %d holds %d values, reference %d", stage, l, len(g), len(w))
		}
		for i := range g {
			if math.Float64bits(g[i]) != math.Float64bits(w[i]) {
				t.Fatalf("%s: level %d[%d] = %#x, reference %#x", stage, l, i, math.Float64bits(g[i]), math.Float64bits(w[i]))
			}
		}
	}
}

// kllStream expands a fuzz input into n values: raw holds float64 bits
// (8 bytes each, little-endian, so NaN payloads and −0 come through),
// and the stream cycles through them.
func kllStream(raw []byte, n int) []float64 {
	m := len(raw) / 8
	if m == 0 {
		return nil
	}
	vals := make([]float64, n)
	for i := range vals {
		j := i % m
		vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*j:]))
	}
	return vals
}

func kllBits(vals ...float64) []byte {
	out := make([]byte, 0, 8*len(vals))
	for _, v := range vals {
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(v))
	}
	return out
}

// FuzzKLLCompaction drives KLL and refKLL with the same stream, split
// into two sketches at a fuzzed point, and requires identical levels,
// inserts and errBound after the adds and after each side merges the
// other.
func FuzzKLLCompaction(f *testing.F) {
	negZero := math.Copysign(0, -1)
	nanA := math.Float64frombits(0x7ff8000000000001)
	nanB := math.Float64frombits(0xfff0000000000abc)
	ascending := make([]float64, 300)
	descending := make([]float64, 300)
	for i := range ascending {
		ascending[i] = float64(i) * 0.25
		descending[i] = float64(len(descending)-i) * 0.25
	}
	patterns := [][]byte{
		kllBits(0, negZero, 1, negZero, 0, -1),
		kllBits(nanA, 3, nanB, math.NaN(), -2, nanA),
		kllBits(math.Inf(1), 2, math.Inf(-1), 5, -7, math.Inf(1)),
		kllBits(4, 4, 4, 4, 4, 4, 4, 9),
		kllBits(ascending...),
		kllBits(descending...),
		kllBits(1.5, -0.25, 1e300, -1e-300, 3.75, 2.0000001, 0.1, 7),
		kllBits(tripDistances(1000, 3)...),
	}
	lengths := []uint32{1, 127, 128, 129, 255, 256, 257, 383, 384, 385, 128*64 - 1, 128 * 64, 128*64 + 1, 249_999, 250_000, 250_001}
	for i, p := range patterns {
		for j, n := range lengths {
			if (i+j)%3 == 0 || n < 1000 {
				f.Add(p, n, n/3+uint32(i))
			}
		}
	}
	f.Fuzz(func(t *testing.T, raw []byte, n, split uint32) {
		vals := kllStream(raw, int(n%(1<<18+1)))
		cut := 0
		if len(vals) > 0 {
			cut = int(split % uint32(len(vals)+1))
		}
		a, b := NewKLL(), NewKLL()
		ra, rb := &refKLL{}, &refKLL{}
		for _, v := range vals[:cut] {
			a.Add(v)
			ra.add(v)
		}
		for _, v := range vals[cut:] {
			b.Add(v)
			rb.add(v)
		}
		sameKLL(t, "adds, first part", a, ra)
		sameKLL(t, "adds, second part", b, rb)
		ab, rab := a.Clone(), ra.clone()
		ab.Merge(b)
		rab.merge(rb)
		sameKLL(t, "first.Merge(second)", ab, rab)
		b.Merge(a)
		rb.merge(ra)
		sameKLL(t, "second.Merge(first)", b, rb)
		// A merged sketch keeps absorbing values through the same compaction.
		for _, v := range vals[:min(cut, 5000)] {
			ab.Add(v)
			rab.add(v)
		}
		sameKLL(t, "adds after a merge", ab, rab)
	})
}

// TestSortKeysMatchesSort holds sortKeys to sort.Slice on every length
// up to four levels' worth, for shuffled, sorted, few-run and
// duplicate-heavy inputs.
func TestSortKeysMatchesSort(t *testing.T) {
	r := &rng{s: 7}
	for n := 0; n <= 4*kllCap+4; n++ {
		for shape := 0; shape < 4; shape++ {
			keys := make([]uint64, n)
			for i := range keys {
				switch shape {
				case 0:
					keys[i] = r.next()
				case 1:
					keys[i] = r.next() % 5
				case 2:
					keys[i] = uint64(i)
				case 3:
					keys[i] = uint64(i % (1 + n/3)) // three ascending runs
				}
			}
			want := append([]uint64(nil), keys...)
			sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
			got := sortKeys(keys, make([]uint64, n))
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("n=%d shape %d: position %d holds %d, want %d", n, shape, i, got[i], want[i])
				}
			}
		}
	}
	for _, v := range []float64{math.Inf(-1), -1e300, -1, -1e-310, 0, 1e-310, 1, 1e300, math.Inf(1)} {
		if keyFloat(floatKey(v)) != v {
			t.Fatalf("key round trip of %v", v)
		}
	}
}
