// Package sample implements the sampling machinery used by PASS and its
// baselines: uniform sampling without replacement and the allocation of a
// sample budget across strata. Reservoir maintenance under inserts lives
// with the samples it maintains, in core's leaf store.
package sample

import (
	"sort"

	"repro/internal/stats"
)

// UniformIndices draws k distinct indices uniformly from [0, n) using a
// partial Fisher-Yates shuffle. The result is returned in ascending order
// (convenient for sequential scans over columnar data). If k >= n all
// indices are returned.
//
// Dense draws (k > n/8) use a plain swap slice; sparse draws use a map of
// displaced entries in O(k) extra space. Both consume identical RNG
// streams and produce identical results — the cutover is purely a
// performance trade: the map's hashing and growth dominate build profiles
// once a meaningful fraction of [0, n) is touched.
func UniformIndices(rng *stats.RNG, n, k int) []int {
	if k >= n {
		all := make([]int, n)
		for i := range all {
			all[i] = i
		}
		return all
	}
	if k > n/8 {
		perm := make([]int, n)
		for i := range perm {
			perm[i] = i
		}
		for i := 0; i < k; i++ {
			j := i + rng.Intn(n-i)
			perm[i], perm[j] = perm[j], perm[i]
		}
		out := perm[:k:k]
		sort.Ints(out)
		return out
	}
	swaps := make(map[int]int, k)
	out := make([]int, 0, k)
	for i := 0; i < k; i++ {
		j := i + rng.Intn(n-i)
		vi, ok := swaps[i]
		if !ok {
			vi = i
		}
		vj, ok := swaps[j]
		if !ok {
			vj = j
		}
		out = append(out, vj)
		swaps[j] = vi
	}
	sort.Ints(out)
	return out
}

// Allocate splits a total sample budget K across strata of the given sizes.
// mode "equal" gives each stratum K/B (the paper's ST baseline); mode
// "proportional" allocates proportionally to stratum size. Every non-empty
// stratum receives at least one sample when the budget allows, and no
// stratum is allocated more samples than it has tuples.
func Allocate(total int, sizes []int, proportional bool) []int {
	b := len(sizes)
	out := make([]int, b)
	if b == 0 || total <= 0 {
		return out
	}
	if !proportional {
		per := total / b
		for i, sz := range sizes {
			out[i] = minInt(per, sz)
		}
		distributeRemainder(out, sizes, total)
		return out
	}
	n := 0
	for _, sz := range sizes {
		n += sz
	}
	if n == 0 {
		return out
	}
	assigned := 0
	for i, sz := range sizes {
		out[i] = minInt(total*sz/n, sz)
		assigned += out[i]
	}
	distributeRemainder(out, sizes, total)
	// guarantee representation: one sample per non-empty stratum if possible
	for i, sz := range sizes {
		if sz > 0 && out[i] == 0 {
			// steal from the largest allocation
			maxI, maxV := -1, 1
			for j, v := range out {
				if v > maxV {
					maxI, maxV = j, v
				}
			}
			if maxI < 0 {
				break
			}
			out[maxI]--
			out[i] = 1
		}
	}
	return out
}

func distributeRemainder(out, sizes []int, total int) {
	assigned := 0
	for _, v := range out {
		assigned += v
	}
	for i := 0; assigned < total && i < len(out); i++ {
		if out[i] < sizes[i] {
			out[i]++
			assigned++
		}
		if i == len(out)-1 {
			// another full round if progress is still possible
			progress := false
			for j := range out {
				if out[j] < sizes[j] {
					progress = true
					break
				}
			}
			if !progress {
				return
			}
			i = -1
		}
	}
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
