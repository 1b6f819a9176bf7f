// Package core implements the problem definitions of the paper's §2 and
// the partition machinery of §4.1: suppressors, the k-anonymity
// predicate, the Anon(S) group cost, (k, 2k−1) partitions and their
// normalization, and the Lemma 4.1 relationship between k-anonymity cost
// and the k-minimum diameter sum.
package core

import (
	"fmt"
	"sort"

	"kanon/internal/metric"
	"kanon/internal/relation"
)

// Suppressor is the paper's map t: V → (Σ ∪ {★})^m, represented as a
// boolean mask over the table's cells: mask[i*m+j] == true means entry
// (i, j) is suppressed. A suppressor may only replace entries with ★,
// never change them (Definition 2.1); the mask representation makes
// that structural.
type Suppressor struct {
	n, m int
	mask []bool
}

// NewSuppressor returns an all-clear suppressor for an n×m table.
func NewSuppressor(n, m int) *Suppressor {
	return &Suppressor{n: n, m: m, mask: make([]bool, n*m)}
}

// Suppress marks entry (i, j) for suppression.
func (s *Suppressor) Suppress(i, j int) { s.mask[s.cell(i, j)] = true }

// Suppressed reports whether entry (i, j) is suppressed.
func (s *Suppressor) Suppressed(i, j int) bool { return s.mask[s.cell(i, j)] }

// cell returns the mask index of entry (i, j), panicking on a column
// out of range as the per-row masks did.
func (s *Suppressor) cell(i, j int) int {
	if uint(j) >= uint(s.m) {
		panic(fmt.Sprintf("core: suppressor column %d out of range [0,%d)", j, s.m))
	}
	return i*s.m + j
}

// Stars counts the suppressed entries — the paper's objective value.
func (s *Suppressor) Stars() int {
	n := 0
	for _, b := range s.mask {
		if b {
			n++
		}
	}
	return n
}

// Rows reports the number of rows the suppressor covers.
func (s *Suppressor) Rows() int { return s.n }

// Apply returns t(V): a clone of the table with the masked entries
// replaced by ★.
func (s *Suppressor) Apply(t *relation.Table) *relation.Table {
	out := t.Clone()
	for i := 0; i < out.Len(); i++ {
		row := out.Row(i)
		for j, b := range s.mask[i*s.m : (i+1)*s.m] {
			if b {
				row[j] = relation.Star
			}
		}
	}
	return out
}

// Anon returns the paper's ANON(S): the minimum number of entries that
// must be suppressed so that all rows of S (given as indices into t)
// become identical. A coordinate must be starred in every row of S iff
// the rows are not already uniform on it, so
// Anon(S) = |S| × #(non-uniform coordinates of S).
func Anon(t *relation.Table, indices []int) int {
	if len(indices) <= 1 {
		return 0
	}
	return len(indices) * NonUniformColumns(t, indices)
}

// NonUniformColumns counts the coordinates on which the rows of S are
// not all equal.
func NonUniformColumns(t *relation.Table, indices []int) int {
	m := t.Degree()
	first := t.Row(indices[0])
	cnt := 0
	for j := 0; j < m; j++ {
		v := first[j]
		for _, i := range indices[1:] {
			if t.Row(i)[j] != v {
				cnt++
				break
			}
		}
	}
	return cnt
}

// Partition is a disjoint grouping of row indices; the image of a
// k-anonymizer (Π(t, V) in §4.1). Groups hold sorted row indices.
type Partition struct {
	Groups [][]int
}

// Validate checks that p is a partition of {0..n−1} with every group of
// size ≥ kMin (and ≤ kMax when kMax > 0). It returns a descriptive error
// otherwise.
func (p *Partition) Validate(n, kMin, kMax int) error {
	seen := make([]bool, n)
	total := 0
	for gi, g := range p.Groups {
		if len(g) < kMin {
			return fmt.Errorf("core: group %d has size %d < %d", gi, len(g), kMin)
		}
		if kMax > 0 && len(g) > kMax {
			return fmt.Errorf("core: group %d has size %d > %d", gi, len(g), kMax)
		}
		for _, i := range g {
			if i < 0 || i >= n {
				return fmt.Errorf("core: group %d contains out-of-range index %d", gi, i)
			}
			if seen[i] {
				return fmt.Errorf("core: index %d appears in more than one group", i)
			}
			seen[i] = true
			total++
		}
	}
	if total != n {
		return fmt.Errorf("core: partition covers %d of %d rows", total, n)
	}
	return nil
}

// Cost returns Σ_{S∈p} Anon(S): the number of stars the partition's
// induced suppressor inserts.
func (p *Partition) Cost(t *relation.Table) int {
	total := 0
	for _, g := range p.Groups {
		total += Anon(t, g)
	}
	return total
}

// DiameterSum returns Σ_{S∈p} d(S), the objective of the k-minimum
// diameter sum problem.
func (p *Partition) DiameterSum(m metric.Kernel) int {
	total := 0
	for _, g := range p.Groups {
		total += m.Diameter(g)
	}
	return total
}

// Suppressor builds the suppressor induced by the partition: within each
// group, every non-uniform coordinate is starred in every row of the
// group (the algorithm of Corollary 4.1, step 3).
func (p *Partition) Suppressor(t *relation.Table) *Suppressor {
	s := NewSuppressor(t.Len(), t.Degree())
	for _, g := range p.Groups {
		if len(g) <= 1 {
			continue
		}
		first := t.Row(g[0])
		for j := 0; j < t.Degree(); j++ {
			uniform := true
			for _, i := range g[1:] {
				if t.Row(i)[j] != first[j] {
					uniform = false
					break
				}
			}
			if !uniform {
				for _, i := range g {
					s.Suppress(i, j)
				}
			}
		}
	}
	return s
}

// Normalize sorts each group and the group list, giving a canonical form
// for comparison in tests.
func (p *Partition) Normalize() {
	for _, g := range p.Groups {
		sort.Ints(g)
	}
	sort.Slice(p.Groups, func(a, b int) bool {
		ga, gb := p.Groups[a], p.Groups[b]
		if len(ga) == 0 || len(gb) == 0 {
			return len(ga) < len(gb)
		}
		return ga[0] < gb[0]
	})
}

// SplitOversize rewrites groups of size ≥ 2k into chunks with sizes in
// [k, 2k−1], implementing the paper's wlog in §4.1: splitting a set
// arbitrarily into parts of size ≥ k never increases the number of stars
// required. Chunks are taken in the group's current order; callers that
// want similarity-aware splitting should order the group first (see
// SplitOversizeSorted).
func (p *Partition) SplitOversize(k int) {
	var out [][]int
	for _, g := range p.Groups {
		out = append(out, splitChunks(g, k)...)
	}
	p.Groups = out
}

// splitChunks splits g into chunks of size in [k, 2k−1] preserving
// order. A group of size < 2k is returned unchanged. Chunks are copies:
// callers (e.g. the local-search refiner) append to groups in place,
// which must not clobber a sibling chunk sharing g's backing array.
func splitChunks(g []int, k int) [][]int {
	if len(g) < 2*k {
		return [][]int{g}
	}
	var out [][]int
	rest := g
	for len(rest) >= 2*k {
		out = append(out, append([]int(nil), rest[:k]...))
		rest = rest[k:]
	}
	out = append(out, append([]int(nil), rest...)) // k ≤ len(rest) ≤ 2k−1
	return out
}

// SplitOversizeSorted is SplitOversize after ordering each oversize
// group greedily by proximity (nearest-neighbor chain from the group's
// first element), so that consecutive chunks hold similar rows. This is
// the similarity-aware split policy measured by ablation E10; it
// preserves the same worst-case bound as the arbitrary split.
func (p *Partition) SplitOversizeSorted(k int, m metric.Kernel) {
	var out [][]int
	for _, g := range p.Groups {
		if len(g) < 2*k {
			out = append(out, g)
			continue
		}
		ordered := nearestNeighborOrder(g, m)
		out = append(out, splitChunks(ordered, k)...)
	}
	p.Groups = out
}

// nearestNeighborOrder returns g reordered as a greedy nearest-neighbor
// chain starting from g[0].
func nearestNeighborOrder(g []int, m metric.Kernel) []int {
	remaining := make([]int, len(g))
	copy(remaining, g)
	out := make([]int, 0, len(g))
	cur := remaining[0]
	remaining = remaining[1:]
	out = append(out, cur)
	for len(remaining) > 0 {
		best, bestD := 0, int(^uint(0)>>1)
		for idx, cand := range remaining {
			if d := m.Dist(cur, cand); d < bestD {
				best, bestD = idx, d
			}
		}
		cur = remaining[best]
		remaining = append(remaining[:best], remaining[best+1:]...)
		out = append(out, cur)
	}
	return out
}

// FromAnonymized recovers the partition induced by an anonymized table:
// rows with identical (textually indistinguishable) contents form a
// group. This is Π(t, V) for a given k-anonymizer output.
func FromAnonymized(t *relation.Table) *Partition {
	return &Partition{Groups: t.EquivalenceClasses()}
}
