package sketch

import (
	"bytes"
	"math"
	"sort"

	"repro/internal/binenc"
)

// Serialization format (varints via internal/binenc):
//
//	magic u64, version u64
//	HLL:  deletes u64, registers as a length-prefixed blob (hllM bytes)
//	KLL:  inserts u64, deletes u64, errBound u64, numLevels u64,
//	      then per level: count u64 + count ascending F64 values
//	MG:   errBound u64, deletes u64, count u64,
//	      then per entry (ascending key bits): key u64, count u64
//
// The canonical orderings (sorted KLL levels, sorted MG keys) make
// symmetric merges serialize byte-identically. Decode validates every
// structural invariant and returns a wrapped ErrCorrupt on any
// violation — it never panics and never allocates proportionally to a
// corrupt length field.
const (
	skMagic   = 0x31544b5350 // "PSKT1"
	skVersion = 1
	// kllMaxLevels caps the level count a decoder accepts: 48 levels cover
	// 2^48 rows at kllCap per level, far beyond any in-tree dataset.
	kllMaxLevels = 48
)

// Encode serializes the set canonically. The receiver is not mutated, so
// encoding is safe under the same read lock that guards queries.
func (s *Set) Encode() []byte {
	var buf bytes.Buffer
	w := binenc.NewWriter(&buf)
	w.U64(skMagic)
	w.U64(skVersion)

	w.U64(s.hll.deletes)
	w.Bytes(s.hll.reg[:])

	w.U64(s.kll.inserts)
	w.U64(s.kll.deletes)
	w.U64(s.kll.errBound)
	w.U64(uint64(len(s.kll.levels)))
	for _, level := range s.kll.levels {
		sorted := append(make([]float64, 0, len(level)), level...)
		sort.Float64s(sorted)
		w.U64(uint64(len(sorted)))
		for _, v := range sorted {
			w.F64(v)
		}
	}

	w.U64(s.mg.errBound)
	w.U64(s.mg.deletes)
	entries := s.mg.entries()
	w.U64(uint64(len(entries)))
	for _, e := range entries {
		w.U64(e.key)
		w.U64(e.count)
	}
	if err := w.Flush(); err != nil {
		// Writing to a bytes.Buffer cannot fail.
		panic("sketch: encode to memory buffer failed: " + err.Error())
	}
	return buf.Bytes()
}

// DecodeSet parses a set serialized by Encode, validating structure,
// bounds, and invariants. Torn tails, flipped bits, and trailing bytes
// all return a wrapped ErrCorrupt.
func DecodeSet(data []byte) (*Set, error) {
	r := binenc.NewReader(bytes.NewReader(data))
	if m := r.U64(); r.Err() == nil && m != skMagic {
		return nil, corrupt("bad magic %#x", m)
	}
	if v := r.U64(); r.Err() == nil && v != skVersion {
		return nil, corrupt("unsupported version %d", v)
	}

	s := &Set{hll: NewHLL(), kll: NewKLL(), mg: NewMisraGries()}
	s.hll.deletes = r.U64()
	reg := r.BytesCap(hllM)
	if r.Err() == nil {
		if len(reg) != hllM {
			return nil, corrupt("hll register blob is %d bytes, want %d", len(reg), hllM)
		}
		for i, v := range reg {
			if v > hllMaxRank {
				return nil, corrupt("hll register %d holds impossible rank %d", i, v)
			}
		}
		copy(s.hll.reg[:], reg)
	}

	s.kll.inserts = r.U64()
	s.kll.deletes = r.U64()
	s.kll.errBound = r.U64()
	numLevels := r.U64()
	if r.Err() == nil && numLevels > kllMaxLevels {
		return nil, corrupt("kll level count %d exceeds %d", numLevels, kllMaxLevels)
	}
	var weight uint64
	for l := uint64(0); l < numLevels && r.Err() == nil; l++ {
		n := r.U64()
		if r.Err() != nil {
			break
		}
		if n > kllCap {
			return nil, corrupt("kll level %d holds %d values, capacity %d", l, n, kllCap)
		}
		buf := make([]float64, 0, kllCap+1)
		for i := uint64(0); i < n; i++ {
			v := r.F64()
			if len(buf) > 0 && v < buf[len(buf)-1] {
				return nil, corrupt("kll level %d is not sorted", l)
			}
			buf = append(buf, v)
		}
		weight += n << l
		s.kll.levels = append(s.kll.levels, buf)
	}
	if r.Err() == nil {
		if weight != s.kll.inserts {
			return nil, corrupt("kll holds weight %d but records %d inserts", weight, s.kll.inserts)
		}
		if s.kll.deletes > s.kll.inserts {
			return nil, corrupt("kll records %d deletes over %d inserts", s.kll.deletes, s.kll.inserts)
		}
	}

	s.mg.errBound = r.U64()
	s.mg.deletes = r.U64()
	mgN := r.U64()
	if r.Err() == nil && mgN > mgCap {
		return nil, corrupt("misra-gries holds %d counters, capacity %d", mgN, mgCap)
	}
	prevKey, haveKey := uint64(0), false
	for i := uint64(0); i < mgN && r.Err() == nil; i++ {
		k := r.U64()
		c := r.U64()
		if r.Err() != nil {
			break
		}
		if haveKey && k <= prevKey {
			return nil, corrupt("misra-gries keys out of order")
		}
		if c == 0 {
			return nil, corrupt("misra-gries counter for %#x is zero", k)
		}
		if math.IsNaN(math.Float64frombits(k)) && k != math.Float64bits(math.NaN()) {
			return nil, corrupt("misra-gries key %#x is a non-canonical NaN", k)
		}
		prevKey, haveKey = k, true
		s.mg.insert(mgEntry{k, c})
	}
	if err := r.Err(); err != nil {
		return nil, corrupt("truncated or unreadable: %v", err)
	}
	// Trailing-data probe: a clean encoding ends exactly here.
	if r.U64(); r.Err() == nil {
		return nil, corrupt("trailing bytes after sketch state")
	}
	return s, nil
}
