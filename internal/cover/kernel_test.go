package cover

import (
	"context"
	"math/rand"
	"reflect"
	"strconv"
	"sync/atomic"
	"testing"

	"kanon/internal/dataset"
	"kanon/internal/metric"
)

// TestGreedyBallsKernelEquivalence pins the lazy (matrix-free) greedy
// ball path to the dense one: the chosen cover must be byte-identical
// across kernels, for every worker count, on both clustered and
// near-uniform data, at row counts on both sides of the shells' 64-row
// words, and with a column wide enough for the BitKernel's packed
// layout. This is the cover-layer half of the repo-wide cross-kernel
// byte-identity contract.
func TestGreedyBallsKernelEquivalence(t *testing.T) {
	for _, seed := range []int64{5, 23} {
		for _, n := range []int{30, 120, 200} {
			for _, packed := range []bool{false, true} {
				rng := rand.New(rand.NewSource(seed))
				tab := dataset.Census(rng, n, 6)
				if packed {
					// Widen column 2's alphabet past the one-hot word and
					// spread its cells over it.
					a := tab.Schema().Attribute(2)
					for v := 0; v < 100; v++ {
						a.Intern("wide" + strconv.Itoa(v))
					}
					for i := 0; i < n; i += 3 {
						tab.Row(i)[2] = a.Intern("wide" + strconv.Itoa(rng.Intn(100)))
					}
				}
				mat := metric.NewMatrix(tab)
				bit, err := metric.NewBitKernelCtx(context.Background(), tab)
				if err != nil {
					t.Fatal(err)
				}
				for _, k := range []int{2, 4} {
					want, err := GreedyBallsCtx(context.Background(), mat, k, 1, nil)
					if err != nil {
						t.Fatal(err)
					}
					for _, workers := range []int{1, 3, 0} {
						got, err := GreedyBallsCtx(context.Background(), bit, k, workers, nil)
						if err != nil {
							t.Fatal(err)
						}
						if !reflect.DeepEqual(want, got) {
							t.Fatalf("seed=%d n=%d packed=%v k=%d workers=%d: lazy cover differs from dense", seed, n, packed, k, workers)
						}
					}
					// A wrapper embedding the BitKernel takes the
					// distance-row path through its own DistRow.
					wrap := &rowCountingKernel{BitKernel: bit}
					got, err := GreedyBallsCtx(context.Background(), wrap, k, 2, nil)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(want, got) {
						t.Fatalf("seed=%d n=%d packed=%v k=%d: wrapped-kernel cover differs from dense", seed, n, packed, k)
					}
					if wrap.rows.Load() == 0 {
						t.Fatalf("seed=%d n=%d packed=%v k=%d: wrapper's DistRow was bypassed", seed, n, packed, k)
					}
				}
			}
		}
	}
}

// rowCountingKernel counts the DistRow calls made through it.
type rowCountingKernel struct {
	*metric.BitKernel
	rows atomic.Int64
}

func (r *rowCountingKernel) DistRow(center int, out []int32) {
	r.rows.Add(1)
	r.BitKernel.DistRow(center, out)
}

// TestBallsFamilyKernelEquivalence does the same for the materialized
// families, including the true-diameter weighting whose pruned sweep
// must reproduce the dense diameters exactly.
func TestBallsFamilyKernelEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	tab := dataset.Census(rng, 70, 6)
	mat := metric.NewMatrix(tab)
	bit, err := metric.NewBitKernelCtx(context.Background(), tab)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []BallWeight{WeightRadiusBound, WeightTrueDiameter} {
		for _, k := range []int{2, 3} {
			want, err := BallsCtx(context.Background(), mat, k, w, 1, nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 4} {
				got, err := BallsCtx(context.Background(), bit, k, w, workers, nil)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(want, got) {
					t.Fatalf("weighting=%v k=%d workers=%d: bitset family differs from dense", w, k, workers)
				}
			}
		}
	}
}
