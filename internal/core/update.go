package core

import (
	"fmt"

	"repro/internal/stats"
)

// startReservoir makes the leaf store the reservoir of Vitter's Algorithm
// R. The samples it holds — drawn at build time, or restored from a
// version-2 synopsis, which kept no reservoir state — are a uniform sample
// of the n rows, which is exactly the reservoir invariant, so Insert
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
	s.oneD.ApplyInsert(leaf, value)
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

// Delete removes one tuple with the given predicate point and value from a
// 1D synopsis. SUM/COUNT statistics are updated exactly; MIN/MAX stay
// conservative. If the tuple is sampled, its sample is dropped.
func (s *Synopsis) Delete(point []float64, value float64) error {
	if s.oneD == nil {
		return fmt.Errorf("core: dynamic updates are supported on 1D synopses only")
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
