package sketch

import (
	"cmp"
	"math"
	"slices"
	"sort"
)

// mgCap is the Misra-Gries counter capacity: enough for TOPK(col, k) at
// any practical k while keeping decrement rounds O(mgCap).
const mgCap = 64

// mgSlots is the size of the Misra-Gries counter table: a power of two,
// 1<<mgSlotBits, that holds mgCap counters at half load.
const (
	mgSlotBits = 7
	mgSlots    = 1 << mgSlotBits
)

// MisraGries is a heavy-hitter summary over canonicalized float64
// values. The classic guarantee — every counter undercounts its value by
// at most the number of decrement rounds — is tracked directly in
// errBound, which also absorbs the count offset subtracted by
// over-capacity merges (the Agarwal et al. mergeable-summaries rule:
// sum the counters, subtract the (cap+1)-th largest count, drop the
// non-positive). Deletes decrement exactly when the value holds a
// counter; otherwise they land on an unabsorbed-delete counter that
// widens the per-entry bound upward. The resulting guarantee per value:
// |estimate - true| <= errBound + deletes, and any value whose true
// count exceeds that bound holds a counter.
//
// The counters live in a fixed open-addressed table, probed linearly
// from a multiplicative hash of the value bits; a slot with count 0 is
// free. Every operation's result depends only on the set of (value,
// count) pairs, never on where they sit in the table.
type MisraGries struct {
	keys     [mgSlots]uint64 // canonical float64 bits
	counts   [mgSlots]uint64 // estimated count; 0 marks a free slot
	size     int             // counters held, at most mgCap
	errBound uint64
	deletes  uint64
}

// mgEntry is one counter: canonical value bits and estimated count.
type mgEntry struct{ key, count uint64 }

// NewMisraGries returns an empty summary.
func NewMisraGries() *MisraGries { return &MisraGries{} }

// mgHome is the slot key's probe starts at.
func mgHome(key uint64) int { return int((key * 0x9e3779b97f4a7c15) >> (64 - mgSlotBits)) }

// find returns the slot holding key, or the free slot ending its probe.
func (m *MisraGries) find(key uint64) (int, bool) {
	for i := mgHome(key); ; i = (i + 1) % mgSlots {
		if m.counts[i] == 0 {
			return i, false
		}
		if m.keys[i] == key {
			return i, true
		}
	}
}

// insert adds a counter for a key the table does not hold.
func (m *MisraGries) insert(e mgEntry) {
	i, _ := m.find(e.key)
	m.keys[i], m.counts[i] = e.key, e.count
	m.size++
}

// remove frees slot i, then shifts each later entry of its probe run
// whose home does not lie between the hole and itself back into the hole,
// so every remaining key is still found.
func (m *MisraGries) remove(i int) {
	m.counts[i] = 0
	m.size--
	for j := (i + 1) % mgSlots; m.counts[j] != 0; j = (j + 1) % mgSlots {
		if (j-mgHome(m.keys[j])+mgSlots)%mgSlots >= (j-i+mgSlots)%mgSlots {
			m.keys[i], m.counts[i] = m.keys[j], m.counts[j]
			m.counts[j] = 0
			i = j
		}
	}
}

// entries returns the counters in ascending key order.
func (m *MisraGries) entries() []mgEntry {
	out := make([]mgEntry, 0, m.size)
	for i, c := range m.counts {
		if c != 0 {
			out = append(out, mgEntry{m.keys[i], c})
		}
	}
	slices.SortFunc(out, func(a, b mgEntry) int { return cmp.Compare(a.key, b.key) })
	return out
}

// reset empties the table and inserts es.
func (m *MisraGries) reset(es []mgEntry) {
	m.counts = [mgSlots]uint64{}
	m.size = 0
	for _, e := range es {
		m.insert(e)
	}
}

// Add absorbs one canonicalized value.
func (m *MisraGries) Add(canon uint64) {
	i, ok := m.find(canon)
	if ok {
		m.counts[i]++
		return
	}
	if m.size < mgCap {
		m.keys[i], m.counts[i] = canon, 1
		m.size++
		return
	}
	// Decrement round: every counter and the incoming item each give up
	// one unit, costing one count of accuracy across the board.
	var kept [mgCap]mgEntry
	n := 0
	for i, c := range m.counts {
		if c > 1 {
			kept[n] = mgEntry{m.keys[i], c - 1}
			n++
		}
	}
	m.reset(kept[:n])
	m.errBound++
}

// Delete retracts one value: exactly when it holds a counter, otherwise
// onto the unabsorbed-delete counter.
func (m *MisraGries) Delete(canon uint64) {
	i, ok := m.find(canon)
	switch {
	case !ok:
		m.deletes++
	case m.counts[i] == 1:
		m.remove(i)
	default:
		m.counts[i]--
	}
}

// Merge folds o into m: sum the counters; if the union exceeds capacity,
// subtract the (cap+1)-th largest count from every counter, drop the
// non-positive, and charge the subtracted offset to errBound. Summing
// commutes and the offset depends only on the summed counters, so merge
// is commutative and serializes symmetrically.
func (m *MisraGries) Merge(o *MisraGries) {
	if o == nil {
		return
	}
	var extra []mgEntry // o's counters m lacks
	for j, c := range o.counts {
		if c == 0 {
			continue
		}
		if i, ok := m.find(o.keys[j]); ok {
			m.counts[i] += c
		} else {
			extra = append(extra, mgEntry{o.keys[j], c})
		}
	}
	m.errBound += o.errBound
	m.deletes += o.deletes
	if m.size+len(extra) <= mgCap {
		for _, e := range extra {
			m.insert(e)
		}
		return
	}
	all := append(m.entries(), extra...)
	counts := make([]uint64, len(all))
	for i, e := range all {
		counts[i] = e.count
	}
	slices.SortFunc(counts, func(a, b uint64) int { return cmp.Compare(b, a) })
	offset := counts[mgCap]
	kept := all[:0]
	for _, e := range all {
		if e.count > offset {
			kept = append(kept, mgEntry{e.key, e.count - offset})
		}
	}
	m.reset(kept)
	m.errBound += offset
}

// Clone deep-copies the summary.
func (m *MisraGries) Clone() *MisraGries {
	if m == nil {
		return nil
	}
	c := *m
	return &c
}

// TopK answers TOPK(col, k): the k largest counters by estimated count
// (value bits break ties, so the answer is deterministic), each stamped
// with the symmetric per-entry bound errBound + deletes.
func (m *MisraGries) TopK(k int) Result {
	entries := make([]TopKEntry, 0, m.size)
	bound := float64(m.errBound + m.deletes)
	for i, c := range m.counts {
		if c == 0 {
			continue
		}
		entries = append(entries, TopKEntry{
			Value:    math.Float64frombits(m.keys[i]),
			Count:    float64(c),
			ErrBound: bound,
		})
	}
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].Count != entries[j].Count {
			return entries[i].Count > entries[j].Count
		}
		return math.Float64bits(entries[i].Value) < math.Float64bits(entries[j].Value)
	})
	if len(entries) > k {
		entries = entries[:k]
	}
	return Result{Kind: KindTopK, Bound: bound, Entries: entries}
}

// memoryBytes counts the fixed table (two arrays of mgSlots words) and
// the three counters beside it.
func (m *MisraGries) memoryBytes() int64 { return 8 * (2*mgSlots + 3) }
