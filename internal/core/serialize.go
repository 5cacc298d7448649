package core

import (
	"errors"
	"fmt"
	"io"
	"math"

	"repro/internal/binenc"
	"repro/internal/partition"
	"repro/internal/ptree"
	"repro/internal/sketch"
)

// Synopsis serialization: a compact binary format so a synopsis built
// once (the expensive step) can be shipped to query nodes. Sample values
// are stored delta-encoded against their leaf average (Section 3.4);
// predicate points are stored raw. Only 1D synopses are serializable —
// they are the ones with cheap dynamic maintenance and therefore the ones
// worth persisting.

// serMagic identifies the format; serVersion guards evolution. Version 2
// appends the mergeable-sketch section (internal/sketch) after the leaf
// samples; version 1 snapshots still load, with nil sketches — sketch
// queries on such a synopsis return sketch.ErrUnavailable until the
// table is rebuilt from base rows.
const (
	serMagic   = 0x50415353 // "PASS"
	serVersion = 2
)

// ErrNotSerializable reports a synopsis that cannot be persisted — today,
// any multi-dimensional (k-d) synopsis. engine.ErrNotSerializable aliases
// it so persistence layers can errors.Is against one sentinel.
var ErrNotSerializable = errors.New("synopsis is not serializable")

// defaultSerPrecision is the fixed-point precision for delta-encoded
// sample values; the relative error it introduces (≤ 5e-7 of a typical
// value unit) is far below sampling error.
const defaultSerPrecision = 1e-6

// The wire encoding (sticky-error varint/float writer and reader) is the
// shared one in internal/binenc; thin aliases keep the Save/Load bodies
// in the format's own vocabulary.
type serWriter struct{ *binenc.Writer }

func (sw serWriter) u64(v uint64)  { sw.U64(v) }
func (sw serWriter) i64(v int64)   { sw.I64(v) }
func (sw serWriter) f64(v float64) { sw.F64(v) }

type serReader struct{ *binenc.Reader }

func (sr serReader) u64() uint64  { return sr.U64() }
func (sr serReader) i64() int64   { return sr.I64() }
func (sr serReader) f64() float64 { return sr.F64() }

func (sr serReader) err() error {
	if e := sr.Err(); e != nil {
		return fmt.Errorf("core: corrupt synopsis: %w", e)
	}
	return nil
}

// Save writes the synopsis in the binary format. Only 1D synopses are
// supported.
func (s *Synopsis) Save(w io.Writer) error {
	if s.oneD == nil {
		return fmt.Errorf("core: only 1D synopses can be serialized: %w", ErrNotSerializable)
	}
	sw := serWriter{Writer: binenc.NewWriter(w)}
	sw.u64(serMagic)
	sw.u64(serVersion)
	// options needed to answer queries
	sw.f64(s.opts.Lambda)
	flag := uint64(0)
	if s.opts.DisableZeroVariance {
		flag |= 1
	}
	sw.u64(flag)
	sw.u64(uint64(s.n))
	sw.u64(uint64(s.opts.Seed))
	// partitioning cuts
	sw.u64(uint64(len(s.Partitioning.Cuts)))
	for _, c := range s.Partitioning.Cuts {
		sw.u64(uint64(c))
	}
	// leaves
	leaves := s.oneD.LeafSpecs()
	sw.u64(uint64(len(leaves)))
	for _, ls := range leaves {
		sw.f64(ls.Lo)
		sw.f64(ls.Hi)
		sw.u64(uint64(ls.ILo))
		sw.u64(uint64(ls.IHi))
		sw.u64(uint64(ls.Agg.N))
		sw.f64(ls.Agg.Sum)
		sw.f64(ls.Agg.SumSq)
		sw.f64(ls.Agg.Min)
		sw.f64(ls.Agg.Max)
	}
	// samples: per leaf, points raw + values delta-encoded vs leaf avg
	// (written in columnar store order, i.e. sorted by predicate point)
	st := s.store
	if st.numLeaves() != len(leaves) {
		return fmt.Errorf("core: internal: %d sample strata for %d leaves", st.numLeaves(), len(leaves))
	}
	for leaf := 0; leaf < st.numLeaves(); leaf++ {
		o, e := st.offsets[leaf], st.offsets[leaf+1]
		sw.u64(uint64(e - o))
		avg := leaves[leaf].Agg.Avg()
		for j := o; j < e; j++ {
			sw.f64(st.coords[j])
			q := math.Round((st.values[j] - avg) / defaultSerPrecision)
			sw.i64(int64(q))
		}
	}
	// v2: mergeable-sketch section (presence flag + opaque sketch blob).
	// A synopsis loaded from a v1 snapshot carries no sketches and
	// round-trips the absence.
	if s.sk != nil {
		sw.u64(1)
		sw.Bytes(s.sk.Encode())
	} else {
		sw.u64(0)
	}
	return sw.Flush()
}

// Load reads a synopsis written by Save. The restored synopsis answers
// queries identically (up to the delta-encoding precision of sample
// values) and supports further dynamic updates.
func Load(r io.Reader) (*Synopsis, error) {
	sr := serReader{Reader: binenc.NewReader(r)}
	if sr.u64() != serMagic {
		return nil, fmt.Errorf("core: not a PASS synopsis (bad magic)")
	}
	version := sr.u64()
	if version < 1 || version > serVersion {
		return nil, fmt.Errorf("core: unsupported synopsis version %d", version)
	}
	var opts Options
	opts.Lambda = sr.f64()
	flag := sr.u64()
	opts.DisableZeroVariance = flag&1 != 0
	n := int(sr.u64())
	opts.Seed = sr.u64()
	nCuts := int(sr.u64())
	if err := sr.err(); err != nil {
		return nil, err
	}
	if nCuts < 2 || nCuts > n+1 {
		return nil, fmt.Errorf("core: corrupt synopsis: %d cuts for %d rows", nCuts, n)
	}
	cuts := make([]int, nCuts)
	for i := range cuts {
		cuts[i] = int(sr.u64())
	}
	nLeaves := int(sr.u64())
	if err := sr.err(); err != nil {
		return nil, err
	}
	if nLeaves <= 0 || nLeaves > n {
		return nil, fmt.Errorf("core: corrupt synopsis: %d leaves", nLeaves)
	}
	leaves := make([]ptree.LeafSpec, nLeaves)
	for i := range leaves {
		leaves[i].Lo = sr.f64()
		leaves[i].Hi = sr.f64()
		leaves[i].ILo = int(sr.u64())
		leaves[i].IHi = int(sr.u64())
		leaves[i].Agg.N = int(sr.u64())
		leaves[i].Agg.Sum = sr.f64()
		leaves[i].Agg.SumSq = sr.f64()
		leaves[i].Agg.Min = sr.f64()
		leaves[i].Agg.Max = sr.f64()
	}
	if err := sr.err(); err != nil {
		return nil, err
	}
	tr, err := ptree.FromLeaves(leaves)
	if err != nil {
		return nil, fmt.Errorf("core: corrupt synopsis: %w", err)
	}
	s := &Synopsis{
		opts: opts, tr: tr, oneD: tr,
		n: n, dims: 1,
		Partitioning: partition.Partitioning{Cuts: cuts},
	}
	st := &leafStore{
		dims:    1,
		offsets: make([]int, 1, nLeaves+1),
		sortDim: make([]int, nLeaves),
	}
	for leaf := 0; leaf < nLeaves; leaf++ {
		k := int(sr.u64())
		if err := sr.err(); err != nil {
			return nil, err
		}
		if k < 0 || k > n {
			return nil, fmt.Errorf("core: corrupt synopsis: leaf %d claims %d samples", leaf, k)
		}
		avg := leaves[leaf].Agg.Avg()
		for j := 0; j < k; j++ {
			pt := sr.f64()
			q := sr.i64()
			st.coords = append(st.coords, pt)
			st.values = append(st.values, avg+float64(q)*defaultSerPrecision)
		}
		st.offsets = append(st.offsets, len(st.values))
	}
	if err := sr.err(); err != nil {
		return nil, err
	}
	if version >= 2 {
		if sr.u64() == 1 {
			// a well-formed sketch blob is well under 1 MiB (the HLL
			// registers dominate at 16 KiB); larger claims are corruption
			blob := sr.BytesCap(1 << 20)
			if err := sr.err(); err != nil {
				return nil, err
			}
			sk, err := sketch.DecodeSet(blob)
			if err != nil {
				return nil, fmt.Errorf("core: corrupt synopsis: %w", err)
			}
			s.sk = sk
		}
		if err := sr.err(); err != nil {
			return nil, err
		}
	}
	st.prefSum = make([]float64, len(st.values))
	st.prefSumSq = make([]float64, len(st.values))
	// sortLeaf inside finishLeaf tolerates both store order (already
	// sorted) and the unsorted order of pre-columnar writers
	for leaf := 0; leaf < nLeaves; leaf++ {
		st.finishLeaf(leaf, 0)
	}
	s.store = st
	s.startReservoir()
	return s, nil
}
