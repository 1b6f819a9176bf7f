package algo

import (
	"context"
	"math/rand"
	"testing"

	"kanon/internal/core"
	"kanon/internal/dataset"
	"kanon/internal/exact"
	"kanon/internal/relation"
)

func TestGreedyBallWeightedReducesToUnweighted(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	tab := dataset.Census(rng, 40, 6)
	plain, err := GreedyBall(tab, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	uni, err := GreedyBallWeighted(tab, 3, core.UniformWeights(6), nil)
	if err != nil {
		t.Fatal(err)
	}
	if uni.Cost != plain.Cost {
		t.Errorf("uniform-weight cost %d != plain %d", uni.Cost, plain.Cost)
	}
	if uni.WeightedCost != uni.Cost {
		t.Errorf("uniform weighted cost %d != star count %d", uni.WeightedCost, uni.Cost)
	}
	nilW, err := GreedyBallWeighted(tab, 3, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if nilW.Cost != plain.Cost {
		t.Errorf("nil-weight cost %d != plain %d", nilW.Cost, plain.Cost)
	}
}

func TestGreedyBallWeightedProtectsExpensiveColumn(t *testing.T) {
	// Two grouping choices: by column 0 (then column 1 is starred) or
	// by column 1 (then column 0 is starred). With a heavy weight on
	// column 0, the weighted greedy must keep column 0.
	tab := relation.MustFromVectors([][]int{
		{1, 7}, {1, 8}, {2, 7}, {2, 8},
	})
	w := core.Weights{100, 1}
	r, err := GreedyBallWeighted(tab, 2, w, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Anonymized.IsKAnonymous(2) {
		t.Fatal("output not 2-anonymous")
	}
	// The cheap release groups {0,1} and {2,3}, starring only column 1:
	// weighted cost 4·1 = 4.
	if r.WeightedCost != 4 {
		t.Errorf("weighted cost = %d, want 4 (column 0 preserved)", r.WeightedCost)
	}
	for i := 0; i < tab.Len(); i++ {
		if r.Anonymized.Row(i)[0] == relation.Star {
			t.Errorf("row %d starred the expensive column", i)
		}
	}
	// The unweighted greedy has no reason to prefer either column; the
	// exact weighted optimum confirms 4 is best possible.
	opt, err := exact.SolveWeightedCtx(context.Background(), tab, 2, w, nil)
	if err != nil {
		t.Fatal(err)
	}
	if opt.Value != 4 {
		t.Errorf("weighted OPT = %d, want 4", opt.Value)
	}
}

func TestGreedyBallWeightedNeverBelowWeightedOPT(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 10; trial++ {
		tab := dataset.Uniform(rng, 12, 5, 3)
		w := make(core.Weights, 5)
		for j := range w {
			w[j] = 1 + rng.Intn(9)
		}
		k := 2 + trial%2
		opt, err := exact.SolveWeightedCtx(context.Background(), tab, k, w, nil)
		if err != nil {
			t.Fatal(err)
		}
		r, err := GreedyBallWeighted(tab, k, w, nil)
		if err != nil {
			t.Fatal(err)
		}
		if r.WeightedCost < opt.Value {
			t.Fatalf("trial %d: greedy %d below weighted OPT %d", trial, r.WeightedCost, opt.Value)
		}
		if got := r.Partition.CostWeighted(tab, w); got != r.WeightedCost {
			t.Fatalf("trial %d: partition weighted cost %d != reported %d", trial, got, r.WeightedCost)
		}
	}
}

func TestGreedyBallWeightedValidation(t *testing.T) {
	tab := dataset.Uniform(rand.New(rand.NewSource(3)), 6, 3, 2)
	if _, err := GreedyBallWeighted(tab, 2, core.Weights{1, 2}, nil); err == nil {
		t.Error("accepted wrong-length weights")
	}
	if _, err := GreedyBallWeighted(tab, 2, core.Weights{1, -1, 2}, nil); err == nil {
		t.Error("accepted negative weight")
	}
	if _, err := GreedyBallWeighted(tab, 0, nil, nil); err == nil {
		t.Error("accepted k=0")
	}
}

func TestSolveWeightedReducesToSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 8; trial++ {
		tab := dataset.Uniform(rng, 9, 4, 2)
		a, err := exact.SolveCtx(context.Background(), tab, 2, exact.Stars, nil)
		if err != nil {
			t.Fatal(err)
		}
		b, err := exact.SolveWeightedCtx(context.Background(), tab, 2, core.UniformWeights(4), nil)
		if err != nil {
			t.Fatal(err)
		}
		if a.Value != b.Value {
			t.Fatalf("trial %d: unweighted %d != uniform-weighted %d", trial, a.Value, b.Value)
		}
	}
}
