package cover

import (
	"sort"
	"sync"

	"kanon/internal/metric"
)

// ballScratch is the per-worker reusable state of the per-center radius
// kernel: the distance row, the neighbor order, and the counting-sort
// buckets, or a metric.BitKernel's distance shells. Pooled so a family
// build allocates O(workers) scratch, not O(centers).
type ballScratch struct {
	dist   []int32  // dist[v] = d(c, v) for the current center c
	ord    []int32  // 0..n−1 sorted by (dist, index)
	cnt    []int32  // counting-sort bucket heads
	shells []uint64 // BitKernel.Shells of the current center
}

var scratchPool = sync.Pool{New: func() any { return &ballScratch{} }}

func getScratch(n int) *ballScratch {
	s := scratchPool.Get().(*ballScratch)
	if cap(s.dist) < n {
		s.dist = make([]int32, n)
		s.ord = make([]int32, n)
	}
	s.dist = s.dist[:n]
	s.ord = s.ord[:n]
	return s
}

// getShellScratch returns pooled scratch whose shells hold words words.
func getShellScratch(words int) *ballScratch {
	s := scratchPool.Get().(*ballScratch)
	if cap(s.shells) < words {
		s.shells = make([]uint64, words)
	}
	s.shells = s.shells[:words]
	return s
}

func putScratch(s *ballScratch) { scratchPool.Put(s) }

// neighborOrder fills s.dist with center c's distance row and s.ord
// with 0..n−1 sorted by (distance, index) ascending — the order every
// ball of c is a prefix of.
//
// Distances are bucketed with a counting sort: the Hamming metric is
// bounded by the degree m, so each center costs O(n + m) instead of the
// O(n log n) a comparison sort pays. Metrics with large ranges (e.g.
// heavily weighted columns) fall back to the comparison sort rather
// than allocating giant bucket arrays; both paths produce the identical
// order.
func neighborOrder(mat metric.Kernel, c int, s *ballScratch) {
	n := mat.Len()
	maxd := 0
	if rf, ok := mat.(metric.RowFiller); ok {
		rf.DistRow(c, s.dist)
		for _, d := range s.dist {
			if int(d) > maxd {
				maxd = int(d)
			}
		}
	} else {
		for v := 0; v < n; v++ {
			d := mat.Dist(c, v)
			s.dist[v] = int32(d)
			if d > maxd {
				maxd = d
			}
		}
	}
	if maxd > countingSortCutoff(n) {
		for v := range s.ord {
			s.ord[v] = int32(v)
		}
		sort.Slice(s.ord, func(a, b int) bool {
			da, db := s.dist[s.ord[a]], s.dist[s.ord[b]]
			if da != db {
				return da < db
			}
			return s.ord[a] < s.ord[b]
		})
		return
	}
	if cap(s.cnt) < maxd+1 {
		s.cnt = make([]int32, maxd+1)
	}
	cnt := s.cnt[:maxd+1]
	for i := range cnt {
		cnt[i] = 0
	}
	for v := 0; v < n; v++ {
		cnt[s.dist[v]]++
	}
	// Prefix sums turn counts into bucket write heads.
	head := int32(0)
	for d := 0; d <= maxd; d++ {
		c := cnt[d]
		cnt[d] = head
		head += c
	}
	// Scanning v ascending keeps ties in index order, matching the
	// comparison sort's tie-break exactly.
	for v := 0; v < n; v++ {
		d := s.dist[v]
		s.ord[cnt[d]] = int32(v)
		cnt[d]++
	}
}

// countingSortCutoff bounds the bucket array a counting sort may
// allocate relative to the element count; beyond it a comparison sort
// is cheaper in both memory and cache misses.
func countingSortCutoff(n int) int {
	return 8*n + 1024
}

// ballsForCenter emits the distinct balls S_{c,·} with at least k
// members, in growing-radius order — the per-center unit of work Balls
// shards across the worker pool.
//
// A ball's member list is materialized by one O(n) threshold scan of
// the distance row (already sorted by index), so no per-ball sort is
// needed. In WeightTrueDiameter mode the diameter is maintained
// incrementally while the prefix grows — extending by ord[e] costs at
// most an O(e) scan — so a center pays O(n²) total instead of
// recomputing Diameter from scratch per ball (O(Σ end²)). The scan is
// pruned by the triangle inequality: d(a, x) ≤ r_a + r_x, so members
// with r_a ≤ diam − r_x cannot raise the diameter, and the radii
// ascend along ord, so only a binary-searched suffix of the prefix is
// visited; once diam reaches the metric's bound the sweep stops
// entirely. Pruning never changes the computed diameters.
func ballsForCenter(mat metric.Kernel, k int, w BallWeight, c int, s *ballScratch) []Set {
	n := mat.Len()
	neighborOrder(mat, c, s)
	var sets []Set
	diam := 0
	dmax := mat.MaxDist()
	for end := 1; end <= n; end++ {
		if w == WeightTrueDiameter && end > 1 && diam < dmax {
			x := int(s.ord[end-1])
			lo := 0
			if thr := int32(diam) - s.dist[x]; thr >= 0 {
				lo = sort.Search(end-1, func(i int) bool { return s.dist[s.ord[i]] > thr })
			}
			for i := lo; i < end-1; i++ {
				if d := mat.Dist(int(s.ord[i]), x); d > diam {
					diam = d
					if diam >= dmax {
						break
					}
				}
			}
		}
		if end < k {
			continue
		}
		r := s.dist[s.ord[end-1]]
		if end < n && s.dist[s.ord[end]] == r {
			continue // not a boundary: same ball as a longer prefix
		}
		members := make([]int, 0, end)
		for v := 0; v < n; v++ {
			if s.dist[v] <= r {
				members = append(members, v)
			}
		}
		weight := 2 * int(r)
		if w == WeightTrueDiameter {
			weight = diam
		}
		sets = append(sets, Set{Members: members, Weight: weight})
	}
	return sets
}
