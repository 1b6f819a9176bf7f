package cover

import (
	"math/rand"
	"runtime"
	"sort"
	"strconv"
	"testing"

	"kanon/internal/dataset"
	"kanon/internal/metric"
)

// benchMatrix builds the fixed-seed benchmark corpus once per size.
func benchMatrix(b *testing.B, n int) *metric.Matrix {
	b.Helper()
	rng := rand.New(rand.NewSource(20040614))
	tab := dataset.Census(rng, n, 8)
	return metric.NewMatrix(tab)
}

// BenchmarkBallsParallel compares the ball-family build sequentially
// (workers=1) and across all CPUs at the acceptance-criteria size
// (n = 2000); the outputs are byte-identical, so the delta is pure
// wall-clock.
func BenchmarkBallsParallel(b *testing.B) {
	for _, n := range []int{500, 2000} {
		mat := benchMatrix(b, n)
		b.Run("seq/n="+strconv.Itoa(n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := BallsParallel(mat, 3, WeightRadiusBound, 1); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("par/n="+strconv.Itoa(n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := BallsParallel(mat, 3, WeightRadiusBound, runtime.NumCPU()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkGreedyBallsParallel measures the full Theorem 4.2 cover
// (neighbor-order build + greedy selection) at 1 worker vs all CPUs.
func BenchmarkGreedyBallsParallel(b *testing.B) {
	mat := benchMatrix(b, 2000)
	b.Run("seq", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := GreedyBallsParallel(mat, 3, 1); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("par", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := GreedyBallsParallel(mat, 3, runtime.NumCPU()); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkGreedyBallsBitset measures the matrix-free Theorem 4.2
// cover where it runs in production: a planted 8192×8 table (past
// metric.AutoBitsetThreshold), k = 3, over the BitKernel's distance
// shells, at 1 worker vs all CPUs.
func BenchmarkGreedyBallsBitset(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	bit := metric.NewBitKernel(dataset.Planted(rng, 8192, 8, 6, 3, 1))
	for _, w := range []struct {
		name    string
		workers int
	}{{"seq", 1}, {"par", runtime.NumCPU()}} {
		b.Run(w.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := GreedyBallsParallel(bit, 3, w.workers); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBallsKernel isolates the per-center radius kernel: the
// counting-sort kernel that ships vs the comparison-sort + per-ball
// re-sort loop it replaced (kept here as the before/after baseline).
func BenchmarkBallsKernel(b *testing.B) {
	mat := benchMatrix(b, 2000)
	b.Run("countingsort", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := BallsParallel(mat, 3, WeightRadiusBound, 1); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("sortslice-ref", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := ballsSortRef(mat, 3); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkTrueDiameterIncremental isolates the incremental-diameter
// kernel against the from-scratch Diameter recomputation it replaced.
// Quadratic per center, so a smaller corpus.
func BenchmarkTrueDiameterIncremental(b *testing.B) {
	mat := benchMatrix(b, 400)
	b.Run("incremental", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := BallsParallel(mat, 3, WeightTrueDiameter, 1); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("recompute-ref", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sets, err := BallsParallel(mat, 3, WeightRadiusBound, 1)
			if err != nil {
				b.Fatal(err)
			}
			for si := range sets {
				sets[si].Weight = mat.Diameter(sets[si].Members)
			}
		}
	})
}

// ballsSortRef is the pre-kernel Balls implementation — per-center
// sort.Slice plus a per-ball member copy and re-sort — retained only as
// the benchmark baseline for BenchmarkBallsKernel.
func ballsSortRef(mat *metric.Matrix, k int) ([]Set, error) {
	n := mat.Len()
	var sets []Set
	type dv struct{ d, v int }
	buf := make([]dv, n)
	for c := 0; c < n; c++ {
		for v := 0; v < n; v++ {
			buf[v] = dv{mat.Dist(c, v), v}
		}
		sort.Slice(buf, func(a, b int) bool {
			if buf[a].d != buf[b].d {
				return buf[a].d < buf[b].d
			}
			return buf[a].v < buf[b].v
		})
		for end := k; end <= n; end++ {
			if end < n && buf[end].d == buf[end-1].d {
				continue
			}
			members := make([]int, end)
			for i := 0; i < end; i++ {
				members[i] = buf[i].v
			}
			sort.Ints(members)
			sets = append(sets, Set{Members: members, Weight: 2 * buf[end-1].d})
		}
	}
	return sets, nil
}
