package core

import (
	"fmt"
	"io"
	"math"

	"repro/internal/binenc"
	"repro/internal/kdtree"
	"repro/internal/ptree"
	"repro/internal/sketch"
	"repro/internal/stats"
)

// Synopsis serialization: a synopsis built once (the expensive step) is
// written exactly as it is in memory, so a restart answers every query
// bitwise like the process that saved it, and a 1D synopsis goes on to
// absorb the same update stream the same way. Version 3 is the format
// Save writes, 1D and k-d alike:
//
//   - a header with what queries read: λ, the zero-variance flag, the
//     seed, n, the sample dimensionality and the tree's column map
//     (idxCols);
//   - the tree section: a kind tag, then the ptree or kdtree node arrays,
//     each encoded by its own package;
//   - the leaf store: per-leaf offsets and sort dimensions, then every
//     coordinate and value as raw float64 bits, in store order;
//   - for a 1D synopsis, the reservoir: its capacity and the position of
//     its random stream;
//   - the mergeable-sketch set.
//
// Arrays are length-prefixed blobs read through binenc.BytesCap, and the
// decoder checks every length and index, so corrupt bytes are an error,
// never a panic. Every float is stored to the bit: prefix aggregates are
// recomputed from the values in store order, which is how the build
// computed them.
const (
	serMagic   = 0x50415353 // "PASS"
	serVersion = 3
)

// tree kinds of the v3 tree section
const (
	tree1D = 0
	treeKD = 1
)

// maxSketchBlob bounds the sketch section: a well-formed set is well under
// 1 MiB (the HLL registers dominate at 16 KiB).
const maxSketchBlob = 1 << 20

// Save writes the synopsis in the v3 binary format.
func (s *Synopsis) Save(w io.Writer) error {
	bw := binenc.NewWriter(w)
	bw.U64(serMagic)
	bw.U64(serVersion)
	bw.F64(s.opts.Lambda)
	flag := uint64(0)
	if s.opts.DisableZeroVariance {
		flag |= 1
	}
	bw.U64(flag)
	bw.U64(s.opts.Seed)
	bw.U64(uint64(s.n))
	bw.U64(uint64(s.dims))
	binenc.WriteInts(bw, s.idxCols)
	if s.oneD != nil {
		bw.U64(tree1D)
		s.oneD.Encode(bw)
	} else {
		bw.U64(treeKD)
		s.kd.Encode(bw)
	}
	st := s.store
	binenc.WriteInts(bw, st.offsets)
	binenc.WriteInts(bw, st.sortDim)
	bw.F64s(st.coords)
	bw.F64s(st.values)
	if s.oneD != nil {
		bw.U64(uint64(s.sampleCap))
		for _, x := range s.sampleRNG.State() {
			bw.U64(x)
		}
	}
	bw.Bytes(s.sk.Encode())
	return bw.Flush()
}

// Load reads a synopsis written by Save: version 3, which comes back
// exactly as it was saved. Any other version is refused by number.
func Load(r io.Reader) (*Synopsis, error) {
	br := binenc.NewReader(r)
	if br.U64() != serMagic {
		return nil, fmt.Errorf("core: not a PASS synopsis (bad magic)")
	}
	if v := br.U64(); v != serVersion {
		if br.Err() != nil {
			return nil, fmt.Errorf("core: corrupt synopsis: %w", br.Err())
		}
		return nil, fmt.Errorf("core: unsupported synopsis version %d (only version %d is read: rebuild the table)", v, serVersion)
	}
	s, err := load(br)
	if err != nil {
		return nil, fmt.Errorf("core: corrupt synopsis: %w", err)
	}
	return s, nil
}

// load decodes the body of a version-3 synopsis.
func load(br *binenc.Reader) (*Synopsis, error) {
	var opts Options
	opts.Lambda = br.F64()
	opts.DisableZeroVariance = br.U64()&1 != 0
	opts.Seed = br.U64()
	n, dims := br.U64(), br.U64()
	idxCols := binenc.ReadInts[int](br)
	kind := br.U64()
	if err := br.Err(); err != nil {
		return nil, err
	}
	if n > math.MaxInt {
		return nil, fmt.Errorf("%d rows", n)
	}
	s := &Synopsis{opts: opts, n: int(n)}
	var leaves int
	switch kind {
	case tree1D:
		tr, err := ptree.Decode(br)
		if err != nil {
			return nil, err
		}
		if dims != 1 || len(idxCols) != 0 {
			return nil, fmt.Errorf("1D tree under %d sample dimensions", dims)
		}
		s.tr, s.oneD, leaves = tr, tr, tr.NumLeaves()
	case treeKD:
		tr, err := kdtree.Decode(br)
		if err != nil {
			return nil, err
		}
		s.tr, s.kd, leaves = tr, tr, tr.NumLeaves()
		if uint64(tr.Dims()) > dims || (len(idxCols) > 0 && len(idxCols) != tr.Dims()) {
			return nil, fmt.Errorf("%d-D tree over %d columns of %d-D samples", tr.Dims(), len(idxCols), dims)
		}
	default:
		return nil, fmt.Errorf("unknown tree kind %d", kind)
	}
	st, err := decodeStore(br, leaves, dims)
	if err != nil {
		return nil, err
	}
	s.store, s.dims = st, st.dims
	if len(idxCols) > 0 {
		s.idxCols, s.indexed = idxCols, make([]bool, s.dims)
		for _, c := range idxCols {
			if c < 0 || c >= s.dims {
				return nil, fmt.Errorf("indexed column %d of %d", c, s.dims)
			}
			s.indexed[c] = true
		}
	}
	if s.oneD != nil {
		capacity := br.U64()
		var state [4]uint64
		for i := range state {
			state[i] = br.U64()
		}
		if err := br.Err(); err != nil {
			return nil, err
		}
		if capacity == 0 || capacity > math.MaxInt {
			return nil, fmt.Errorf("reservoir capacity %d", capacity)
		}
		if s.sampleRNG, err = stats.RestoreRNG(state); err != nil {
			return nil, err
		}
		s.sampleCap = int(capacity)
	}
	if s.sk, err = sketch.DecodeSet(br.BytesCap(maxSketchBlob)); err != nil {
		if br.Err() != nil {
			return nil, br.Err()
		}
		return nil, err
	}
	return s, nil
}

// decodeStore reads the leaf-store section for a tree of the given leaf
// count over samples of dims coordinates, and rebuilds the prefix
// aggregates from the values.
func decodeStore(br *binenc.Reader, leaves int, dims uint64) (*leafStore, error) {
	offsets := binenc.ReadInts[int](br)
	sortDim := binenc.ReadInts[int](br)
	coords := br.F64s()
	values := br.F64s()
	if err := br.Err(); err != nil {
		return nil, err
	}
	total := len(values)
	if len(offsets) != leaves+1 || len(sortDim) != leaves || dims == 0 ||
		dims > uint64(max(len(coords), 1)) || uint64(len(coords)) != dims*uint64(total) {
		return nil, fmt.Errorf("leaf store disagrees with its %d leaves: %d offsets, %d sort dimensions, %d coordinates of %d samples at %d dims",
			leaves, len(offsets), len(sortDim), len(coords), total, dims)
	}
	st := &leafStore{dims: int(dims), offsets: offsets, coords: coords, values: values, sortDim: sortDim,
		prefSum: make([]float64, total), prefSumSq: make([]float64, total)}
	if offsets[0] != 0 || offsets[leaves] != total {
		return nil, fmt.Errorf("store offsets do not span [0, %d]", total)
	}
	for leaf := 0; leaf < leaves; leaf++ {
		if offsets[leaf+1] < offsets[leaf] || offsets[leaf+1] > total {
			return nil, fmt.Errorf("store offsets not monotone at leaf %d", leaf)
		}
		if d := sortDim[leaf]; d < 0 || d >= st.dims {
			return nil, fmt.Errorf("leaf %d sorted along dimension %d of %d", leaf, d, st.dims)
		}
		st.rebuildPrefix(leaf)
	}
	return st, nil
}
