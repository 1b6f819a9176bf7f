package metric

import (
	"context"
	"errors"
	"math/rand"
	"strconv"
	"testing"

	"kanon/internal/relation"
)

// kernelTable builds a random table whose column alphabets and star
// density are drawn per column, so both BitKernel layouts appear: small
// alphabets pack one-hot, alphabets wider than the 64-bit word fall
// back to packed codes.
func kernelTable(rng *rand.Rand, n, m int, maxSigma int, starP float64) *relation.Table {
	names := make([]string, m)
	for j := range names {
		names[j] = "c" + strconv.Itoa(j)
	}
	tab := relation.NewTable(relation.NewSchema(names...))
	sigma := make([]int, m)
	for j := range sigma {
		sigma[j] = 1 + rng.Intn(maxSigma)
	}
	for i := 0; i < n; i++ {
		row := make([]string, m)
		for j := range row {
			if rng.Float64() < starP {
				row[j] = relation.StarString
			} else {
				row[j] = strconv.Itoa(rng.Intn(sigma[j]))
			}
		}
		if err := tab.AppendStrings(row...); err != nil {
			panic(err)
		}
	}
	return tab
}

// kernelShapes spans the layouts the equivalence suite must cover:
// one-hot-only, the packed high-cardinality fallback, wide tables with
// m > 64 columns, and star-heavy rows.
var kernelShapes = []struct {
	name     string
	n, m     int
	maxSigma int
	starP    float64
}{
	{"small_onehot", 40, 4, 5, 0.1},
	{"high_cardinality", 60, 3, 200, 0.05},
	{"wide_m70", 30, 70, 4, 0.1},
	{"star_heavy", 50, 6, 3, 0.5},
	{"mixed", 80, 9, 90, 0.15},
}

// TestKernelEquivalence is the cross-kernel property suite: for random
// tables over every shape, the BitKernel must agree with the row-wise
// Distance definition and with the dense Matrix on every interface
// method, under workers 1 and 4.
func TestKernelEquivalence(t *testing.T) {
	for _, shape := range kernelShapes {
		t.Run(shape.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(len(shape.name)) * 7919))
			tab := kernelTable(rng, shape.n, shape.m, shape.maxSigma, shape.starP)
			for _, workers := range []int{1, 4} {
				mat, err := NewMatrixCtx(context.Background(), tab, workers)
				if err != nil {
					t.Fatalf("NewMatrixCtx: %v", err)
				}
				bit, err := NewBitKernelCtx(context.Background(), tab)
				if err != nil {
					t.Fatalf("NewBitKernelCtx: %v", err)
				}
				checkKernelsAgree(t, tab, mat, bit, rng)
			}
		})
	}
}

func checkKernelsAgree(t *testing.T, tab *relation.Table, mat *Matrix, bit *BitKernel, rng *rand.Rand) {
	t.Helper()
	n := tab.Len()
	if bit.Len() != n || mat.Len() != n {
		t.Fatalf("Len: matrix %d, bitkernel %d, want %d", mat.Len(), bit.Len(), n)
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			want := Distance(tab.Row(i), tab.Row(j))
			if got := bit.Dist(i, j); got != want {
				t.Fatalf("BitKernel.Dist(%d,%d) = %d, want %d", i, j, got, want)
			}
			if got := mat.Dist(i, j); got != want {
				t.Fatalf("Matrix.Dist(%d,%d) = %d, want %d", i, j, got, want)
			}
			if want > bit.MaxDist() {
				t.Fatalf("BitKernel.MaxDist() = %d below realized distance %d", bit.MaxDist(), want)
			}
		}
	}

	// DistRow agreement (both kernels implement RowFiller).
	rowM, rowB := make([]int32, n), make([]int32, n)
	for _, c := range []int{0, n / 2, n - 1} {
		mat.DistRow(c, rowM)
		bit.DistRow(c, rowB)
		for i := range rowM {
			if rowM[i] != rowB[i] {
				t.Fatalf("DistRow(%d)[%d]: matrix %d, bitkernel %d", c, i, rowM[i], rowB[i])
			}
		}
	}

	// Balls at every radius up to MaxDist for sampled centers.
	for trial := 0; trial < 8; trial++ {
		c := rng.Intn(n)
		for r := 0; r <= bit.MaxDist(); r++ {
			bm, bb := mat.Ball(c, r), bit.Ball(c, r)
			if len(bm) != len(bb) {
				t.Fatalf("Ball(%d,%d): matrix %d members, bitkernel %d", c, r, len(bm), len(bb))
			}
			for i := range bm {
				if bm[i] != bb[i] {
					t.Fatalf("Ball(%d,%d)[%d]: matrix %d, bitkernel %d", c, r, i, bm[i], bb[i])
				}
			}
		}
	}

	// Diameter and DiameterWith over random subsets.
	for trial := 0; trial < 12; trial++ {
		size := 1 + rng.Intn(n-1)
		idx := rng.Perm(n)[:size]
		dm, db := mat.Diameter(idx), bit.Diameter(idx)
		if dm != db {
			t.Fatalf("Diameter(%v): matrix %d, bitkernel %d", idx, dm, db)
		}
		extra := rng.Intn(n)
		wm := mat.DiameterWith(idx, dm, extra)
		wb := bit.DiameterWith(idx, db, extra)
		if wm != wb {
			t.Fatalf("DiameterWith(%v,%d,%d): matrix %d, bitkernel %d", idx, dm, extra, wm, wb)
		}
	}

	// KthNearest for every meaningful rank.
	for r := 1; r < n; r += 1 + n/7 {
		km, kb := mat.KthNearest(r), bit.KthNearest(r)
		for i := range km {
			if km[i] != kb[i] {
				t.Fatalf("KthNearest(%d)[%d]: matrix %d, bitkernel %d", r, i, km[i], kb[i])
			}
		}
	}
}

func TestChoiceParseAndString(t *testing.T) {
	cases := []struct {
		in   string
		want Choice
		ok   bool
	}{
		{"auto", Auto, true},
		{"", Auto, true},
		{"dense", Dense, true},
		{"bitset", Bitset, true},
		{"matrix", 0, false},
	}
	for _, c := range cases {
		got, err := ParseChoice(c.in)
		if c.ok != (err == nil) || (c.ok && got != c.want) {
			t.Errorf("ParseChoice(%q) = %v, %v; want %v, ok=%v", c.in, got, err, c.want, c.ok)
		}
	}
	for _, c := range []Choice{Auto, Dense, Bitset} {
		back, err := ParseChoice(c.String())
		if err != nil || back != c {
			t.Errorf("ParseChoice(%v.String()) = %v, %v; want identity", c, back, err)
		}
	}
}

func TestChoiceResolve(t *testing.T) {
	if got := Auto.Resolve(AutoBitsetThreshold - 1); got != Dense {
		t.Errorf("Auto.Resolve(small) = %v, want Dense", got)
	}
	if got := Auto.Resolve(AutoBitsetThreshold); got != Bitset {
		t.Errorf("Auto.Resolve(threshold) = %v, want Bitset", got)
	}
	if got := Dense.Resolve(1 << 20); got != Dense {
		t.Errorf("Dense.Resolve stays Dense, got %v", got)
	}
	if got := Bitset.Resolve(2); got != Bitset {
		t.Errorf("Bitset.Resolve stays Bitset, got %v", got)
	}
}

func TestNewKernelCtxSelectsBackend(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	tab := kernelTable(rng, 16, 4, 4, 0.1)
	k, err := NewKernelCtx(context.Background(), tab, Auto, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := k.(*Matrix); !ok {
		t.Errorf("Auto on a small table built %T, want *Matrix", k)
	}
	k, err = NewKernelCtx(context.Background(), tab, Bitset, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := k.(*BitKernel); !ok {
		t.Errorf("forced Bitset built %T, want *BitKernel", k)
	}
}

func TestBitKernelCtxCancel(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	tab := kernelTable(rng, 4096, 4, 4, 0)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := NewBitKernelCtx(ctx, tab); !errors.Is(err, context.Canceled) {
		t.Errorf("NewBitKernelCtx on a cancelled context: err = %v, want context.Canceled", err)
	}
}

func TestNewMatrixFuncCtxCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := NewMatrixFuncCtx(ctx, 64, 1, func(i, j int) int { return 1 })
	if !errors.Is(err, context.Canceled) {
		t.Errorf("NewMatrixFuncCtx on a cancelled context: err = %v, want context.Canceled", err)
	}
}

// TestNewMatrixFuncCtxMatchesSequential pins the ctx/workers variant to
// the plain constructor for a nontrivial distance function.
func TestNewMatrixFuncCtxMatchesSequential(t *testing.T) {
	n := 37
	dist := func(i, j int) int { return (i*31 + j*17) % 23 }
	sym := func(i, j int) int {
		if i > j {
			i, j = j, i
		}
		return dist(i, j)
	}
	want := NewMatrixFunc(n, sym)
	for _, workers := range []int{1, 3, 8} {
		got, err := NewMatrixFuncCtx(context.Background(), n, workers, sym)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if want.Dist(i, j) != got.Dist(i, j) {
					t.Fatalf("workers=%d: Dist(%d,%d) = %d, want %d",
						workers, i, j, got.Dist(i, j), want.Dist(i, j))
				}
			}
		}
	}
}

func TestRadixPackerMatchesProjection(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	tab := kernelTable(rng, 60, 6, 8, 0.2)
	pk := NewRadixPacker(tab)
	if pk == nil {
		t.Fatal("NewRadixPacker returned nil for a small-alphabet table")
	}
	n, m := tab.Len(), tab.Degree()
	projEqual := func(i, j int, pat uint) bool {
		for c := 0; c < m; c++ {
			if pat&(1<<uint(c)) == 0 {
				continue
			}
			if tab.Row(i)[c] != tab.Row(j)[c] {
				return false
			}
		}
		return true
	}
	for pat := uint(0); pat < 1<<uint(m); pat += 5 {
		for trial := 0; trial < 50; trial++ {
			i, j := rng.Intn(n), rng.Intn(n)
			keysEqual := pk.ProjectionKey(i, pat) == pk.ProjectionKey(j, pat)
			if keysEqual != projEqual(i, j, pat) {
				t.Fatalf("pattern %b rows (%d,%d): key equality %v, projection equality %v",
					pat, i, j, keysEqual, projEqual(i, j, pat))
			}
		}
	}
}

// TestBitKernelAllPackedColumns drives the layout where every column
// exceeds the one-hot word width, so the kernel has no bitset words at
// all and distances come entirely from the packed-code comparison.
func TestBitKernelAllPackedColumns(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	names := []string{"a", "b", "c"}
	tab := relation.NewTable(relation.NewSchema(names...))
	for i := 0; i < 80; i++ {
		row := make([]string, len(names))
		for j := range row {
			if rng.Intn(10) == 0 {
				row[j] = relation.StarString
			} else {
				row[j] = strconv.Itoa(rng.Intn(120))
			}
		}
		if err := tab.AppendStrings(row...); err != nil {
			t.Fatal(err)
		}
	}
	// Force every alphabet past the one-hot cutoff.
	for j := 0; j < len(names); j++ {
		a := tab.Schema().Attribute(j)
		for v := 0; v < 120; v++ {
			a.Intern(strconv.Itoa(v))
		}
	}
	bit := NewBitKernel(tab)
	mat := NewMatrix(tab)
	checkKernelsAgree(t, tab, mat, bit, rng)
}

// TestKthNearestLargeRangeFallback pins the counting-sort cutoff: a
// metric whose range dwarfs n must take the selection path and still
// agree with a naive sort.
func TestKthNearestLargeRangeFallback(t *testing.T) {
	n := 20
	scale := 8*n + 2048 // maxD past the bucket cutoff
	dist := func(i, j int) int {
		if i == j {
			return 0
		}
		return ((i*13 + j*7) % 11) * scale / 11
	}
	sym := func(i, j int) int {
		if i > j {
			i, j = j, i
		}
		return dist(i, j)
	}
	mat := NewMatrixFunc(n, sym)
	if mat.maxD <= 8*n+1024 {
		t.Fatalf("test metric range %d does not exceed the cutoff", mat.maxD)
	}
	for _, r := range []int{1, 3, n - 1, n + 5} {
		got := mat.KthNearest(r)
		for i := 0; i < n; i++ {
			ds := make([]int, 0, n-1)
			for j := 0; j < n; j++ {
				if j != i {
					ds = append(ds, sym(i, j))
				}
			}
			want := naiveKth(ds, r)
			if got[i] != want {
				t.Fatalf("KthNearest(%d)[%d] = %d, want %d", r, i, got[i], want)
			}
		}
	}
}

func naiveKth(ds []int, r int) int {
	s := append([]int(nil), ds...)
	for i := range s {
		for j := i + 1; j < len(s); j++ {
			if s[j] < s[i] {
				s[i], s[j] = s[j], s[i]
			}
		}
	}
	if r > len(s) {
		return s[len(s)-1]
	}
	return s[r-1]
}

// TestWideMatrixRowFillerAndKthNearest covers the int32 (widened)
// matrix's DistRow and counting-sort paths.
func TestWideMatrixRowFillerAndKthNearest(t *testing.T) {
	n := 12
	big := 40_000 // past MaxInt16 after doubling? No — directly > 32767 to force widening
	sym := func(i, j int) int {
		if i == j {
			return 0
		}
		return big + (i+j)%7
	}
	mat := NewMatrixFunc(n, sym)
	if !mat.Wide() {
		t.Fatal("matrix did not widen past int16")
	}
	out := make([]int32, n)
	mat.DistRow(3, out)
	for j := range out {
		if int(out[j]) != sym(3, j) {
			t.Fatalf("wide DistRow[%d] = %d, want %d", j, out[j], sym(3, j))
		}
	}
	got := mat.KthNearest(2)
	for i := range got {
		ds := make([]int, 0, n-1)
		for j := 0; j < n; j++ {
			if j != i {
				ds = append(ds, sym(i, j))
			}
		}
		if want := naiveKth(ds, 2); got[i] != want {
			t.Fatalf("wide KthNearest(2)[%d] = %d, want %d", i, got[i], want)
		}
	}
}

func TestRadixPackerOverflowReturnsNil(t *testing.T) {
	// 11 columns of alphabet ~64 give (64+1)^11 ≈ 2^66 > 2^64 states.
	names := make([]string, 11)
	for j := range names {
		names[j] = "c" + strconv.Itoa(j)
	}
	tab := relation.NewTable(relation.NewSchema(names...))
	rng := rand.New(rand.NewSource(10))
	for i := 0; i < 200; i++ {
		row := make([]string, len(names))
		for j := range row {
			row[j] = strconv.Itoa(rng.Intn(64))
		}
		if err := tab.AppendStrings(row...); err != nil {
			t.Fatal(err)
		}
	}
	if pk := NewRadixPacker(tab); pk != nil {
		t.Error("NewRadixPacker should refuse a key space past uint64")
	}
}

// TestBitKernelShells checks Shells against Dist for every center, at
// row counts on both sides of the 64-row word boundary, on tables that
// mix one-hot columns, packed (alphabet > 63) columns and star cells,
// plus a table wide enough to need several one-hot words per row.
func TestBitKernelShells(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	for _, n := range []int{1, 63, 64, 65, 130, 200} {
		for _, m := range []int{7, 70} {
			tab := kernelTable(rng, n, m, 6, 0.2)
			// Force two columns past the one-hot cutoff.
			for _, j := range []int{1, 4} {
				for v := 0; v < 100; v++ {
					tab.Schema().Attribute(j).Intern("p" + strconv.Itoa(v))
				}
			}
			bit := NewBitKernel(tab)
			if bit.packedCols != 2 {
				t.Fatalf("n=%d m=%d: %d packed columns, want 2", n, m, bit.packedCols)
			}
			checkShells(t, bit)
		}
	}
}

// checkShells asserts that, for every center, each row lies in exactly
// the shell of its Dist and no shell word has a bit at or past Len().
func checkShells(t *testing.T, bit *BitKernel) {
	t.Helper()
	n, m := bit.Len(), bit.MaxDist()
	W := (n + 63) / 64
	out := make([]uint64, bit.ShellWords())
	if len(out) != (m+1)*W {
		t.Fatalf("ShellWords() = %d, want %d", len(out), (m+1)*W)
	}
	for c := 0; c < n; c++ {
		bit.Shells(c, out)
		for d := 0; d <= m; d++ {
			shell := out[d*W : (d+1)*W]
			for v := n; v < W*64; v++ {
				if shell[v>>6]>>(v&63)&1 != 0 {
					t.Fatalf("n=%d center %d: shell %d has bit %d set past n", n, c, d, v)
				}
			}
			for v := 0; v < n; v++ {
				in := shell[v>>6]>>(v&63)&1 != 0
				if want := bit.Dist(c, v) == d; in != want {
					t.Fatalf("n=%d center %d row %d: in shell %d = %v, Dist = %d", n, c, v, d, in, bit.Dist(c, v))
				}
			}
		}
	}
}
