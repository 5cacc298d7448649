package core

import (
	"errors"
	"fmt"

	"repro/internal/stats"
)

// startReservoir makes the leaf store the reservoir of Vitter's Algorithm
// R. The samples it holds, drawn at build time, are a uniform sample of
// the n rows, which is exactly the reservoir invariant, so Insert
// continues the stream with acceptance probability K/n for capacity K =
// their count. Load of the current format restores the capacity and the
// stream's position instead, so a restart draws what the saved process
// would have drawn.
func (s *Synopsis) startReservoir() {
	s.sampleCap = maxInt(s.store.totalLen(), 1)
	s.sampleRNG = stats.NewRNG(s.opts.Seed + 0x51ed)
}

// TakesUpdates reports whether Insert and Delete can succeed: true for a
// 1D synopsis, false for a k-d one.
func (s *Synopsis) TakesUpdates() bool { return s.oneD != nil }

// Insert adds one tuple (point, value) to a 1D synopsis: tree statistics
// are updated along the leaf-to-root path in O(log k), and the stratified
// sample is maintained by reservoir sampling (Section 4.5).
func (s *Synopsis) Insert(point []float64, value float64) error {
	if s.oneD == nil {
		return fmt.Errorf("core: dynamic updates are supported on 1D synopses only")
	}
	if len(point) < 1 {
		return fmt.Errorf("core: insert point has no coordinates")
	}
	leaf := s.oneD.LocateLeaf(point[0])
	s.oneD.ApplyInsert(leaf, point[0], value)
	s.n++
	s.sk.Add(value)
	// Algorithm R: below capacity the row always enters; at capacity it
	// enters with probability K/n, in place of global store row j — a
	// uniform pick among the K rows the store holds
	st := s.store
	if st.totalLen() >= s.sampleCap {
		j := s.sampleRNG.Intn(s.n)
		if j >= s.sampleCap {
			return nil
		}
		st.removeAt(st.leafOf(j), j)
	}
	st.insert(leaf, point, value)
	return nil
}

// ErrNoSuchRow marks a delete refused because the synopsis can tell that
// no row it holds matches it (see CheckDelete).
var ErrNoSuchRow = errors.New("core: delete matches no row")

// CheckDelete refuses, with an error wrapping ErrNoSuchRow, a delete that
// cannot remove a present row of a 1D synopsis: its key outside the key
// range of the leaf that LocateLeaf gives it, or its value outside that
// leaf's [Min, Max], or a leaf that holds no rows. Inserts widen both
// ranges and deletes never narrow them, so a present row always passes.
// A phantom delete inside both ranges is not caught: telling it apart
// takes the rows. A k-d synopsis, which takes no updates, passes.
func (s *Synopsis) CheckDelete(point []float64, value float64) error {
	if s.oneD == nil {
		return nil
	}
	if len(point) < 1 {
		return fmt.Errorf("core: delete point has no coordinates")
	}
	key := point[0]
	leaf := s.oneD.LocateLeaf(key)
	lo, hi := s.oneD.LeafValueRange(leaf)
	a := s.oneD.LeafAgg(leaf)
	switch {
	case a.N == 0:
		return fmt.Errorf("%w: leaf %d of key %v holds no rows", ErrNoSuchRow, leaf, key)
	case !(key >= lo && key <= hi):
		return fmt.Errorf("%w: key %v is outside [%v, %v], the keys of leaf %d", ErrNoSuchRow, key, lo, hi, leaf)
	case !(value >= a.Min && value <= a.Max):
		return fmt.Errorf("%w: value %v is outside [%v, %v], the values of leaf %d", ErrNoSuchRow, value, a.Min, a.Max, leaf)
	}
	return nil
}

// Delete removes one tuple with the given predicate point and value from a
// 1D synopsis. SUM/COUNT statistics are updated exactly; MIN/MAX stay
// conservative. If the tuple is sampled, its sample is dropped.
func (s *Synopsis) Delete(point []float64, value float64) error {
	if s.oneD == nil {
		return fmt.Errorf("core: dynamic updates are supported on 1D synopses only")
	}
	if len(point) < 1 {
		return fmt.Errorf("core: delete point has no coordinates")
	}
	leaf := s.oneD.LocateLeaf(point[0])
	if err := s.oneD.ApplyDelete(leaf, value); err != nil {
		return err
	}
	s.n--
	s.sk.Delete(value)
	s.store.removeRow(leaf, point, value)
	return nil
}
