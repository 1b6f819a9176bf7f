package metric

import (
	"context"
	"strconv"
	"testing"

	"kanon/internal/relation"
)

// FuzzBitKernel decodes arbitrary bytes into a small table — the byte
// stream supplies the shape (n, m), the per-column alphabet widths, and
// every cell, including stars — then cross-checks the matrix-free
// kernel against the row-wise Distance definition and the dense Matrix
// on all pairs, its distance shells against Dist for every center, plus
// one Ball and one KthNearest query. Any
// disagreement is a found bug: the kernels are specified to be
// byte-identical.
func FuzzBitKernel(f *testing.F) {
	f.Add([]byte{3, 2, 4, 4, 0, 1, 2, 3, 0, 0})
	f.Add([]byte{5, 1, 200, 9, 8, 7, 6, 5})
	f.Add([]byte("\x04\x03**any bytes at all**"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		n := 1 + int(next())%24
		m := 1 + int(next())%80
		sigma := make([]int, m)
		for j := range sigma {
			// Widths past 63 force the packed (non-one-hot) layout.
			sigma[j] = 1 + int(next())%200
		}
		names := make([]string, m)
		for j := range names {
			names[j] = "c" + strconv.Itoa(j)
		}
		tab := relation.NewTable(relation.NewSchema(names...))
		for i := 0; i < n; i++ {
			row := make([]string, m)
			for j := range row {
				v := int(next())
				if v%7 == 0 {
					row[j] = relation.StarString
				} else {
					row[j] = strconv.Itoa(v % sigma[j])
				}
			}
			if err := tab.AppendStrings(row...); err != nil {
				t.Fatal(err)
			}
		}

		bit, err := NewBitKernelCtx(context.Background(), tab)
		if err != nil {
			t.Fatal(err)
		}
		mat := NewMatrix(tab)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				want := Distance(tab.Row(i), tab.Row(j))
				if got := bit.Dist(i, j); got != want {
					t.Fatalf("BitKernel.Dist(%d,%d) = %d, want %d (n=%d m=%d)", i, j, got, want, n, m)
				}
				if got := mat.Dist(i, j); got != want {
					t.Fatalf("Matrix.Dist(%d,%d) = %d, want %d (n=%d m=%d)", i, j, got, want, n, m)
				}
			}
		}
		checkShells(t, bit)
		c := int(next()) % n
		r := int(next()) % (bit.MaxDist() + 1)
		bm, bb := mat.Ball(c, r), bit.Ball(c, r)
		if len(bm) != len(bb) {
			t.Fatalf("Ball(%d,%d): matrix %v, bitkernel %v", c, r, bm, bb)
		}
		for i := range bm {
			if bm[i] != bb[i] {
				t.Fatalf("Ball(%d,%d): matrix %v, bitkernel %v", c, r, bm, bb)
			}
		}
		if n > 1 {
			rank := 1 + int(next())%(n-1)
			km, kb := mat.KthNearest(rank), bit.KthNearest(rank)
			for i := range km {
				if km[i] != kb[i] {
					t.Fatalf("KthNearest(%d)[%d]: matrix %d, bitkernel %d", rank, i, km[i], kb[i])
				}
			}
		}
	})
}
