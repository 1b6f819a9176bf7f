package metric

import (
	"context"
	"fmt"
	"math/bits"

	"kanon/internal/relation"
)

// BitKernel is the matrix-free distance kernel: each row's symbol codes
// are packed into per-attribute equality bitsets and every distance is
// computed on the fly as d(u, v) = m − popcount(agree(u, v)). Memory is
// O(n·m/64) words instead of the Matrix's O(n²) cells, which is what
// lets the ball algorithms scale from thousands of rows to hundreds of
// thousands.
//
// Layout: column j with alphabet Σ_j gets |Σ_j|+1 consecutive bit
// slots — slot 0 for relation.Star, slot c+1 for symbol code c — and a
// row sets exactly one bit per column, at the slot of its value. Two
// rows agree on column j iff their bitsets share a set bit inside j's
// slot range, so the number of agreeing columns is the popcount of the
// AND of the two rows' words. Columns whose slot range would exceed
// maxOnehotWidth bits (high-cardinality attributes, e.g. near-unique
// identifiers) would bloat every row's bitset; they fall back to a
// packed row-major int32 code array compared directly.
//
// A transposed copy of the one-hot block holds, per bit slot, the set
// of rows whose value sets that slot (⌈n/64⌉ words each, about the
// row-major block's size again). Shells uses it to classify a center's
// distances to 64 rows per word operation.
type BitKernel struct {
	n, m int
	// One-hot block: words uint64s per row, covering onehotCols columns.
	words      int
	onehotCols int
	onehot     []uint64
	// Transposed one-hot block: slot s's rows are
	// slots[s*rowWords : (s+1)*rowWords].
	rowWords int
	slots    []uint64
	// Packed fallback: packedCols high-cardinality columns, row-major.
	packedCols int
	packed     []int32
}

// maxOnehotWidth caps the bit-slot range of a one-hot column
// (|alphabet|+1 slots). One word per column keeps the per-row bitset at
// most m words; wider columns cost less as 4-byte packed codes.
const maxOnehotWidth = 64

// NewBitKernel packs the rows of t into a matrix-free kernel.
func NewBitKernel(t *relation.Table) *BitKernel {
	b, _ := NewBitKernelCtx(context.Background(), t)
	return b
}

// NewBitKernelCtx is NewBitKernel with cancellation, polled every 1024
// rows during the O(n·m) packing pass. The returned error wraps
// ctx.Err().
func NewBitKernelCtx(ctx context.Context, t *relation.Table) (*BitKernel, error) {
	n, m := t.Len(), t.Degree()
	b := &BitKernel{n: n, m: m}
	sch := t.Schema()
	var onehotIdx, packedIdx []int
	offsets := make([]int, 0, m) // bit offset of each one-hot column's slot 0
	bitWidth := 0
	for j := 0; j < m; j++ {
		if w := sch.Attribute(j).AlphabetSize() + 1; w <= maxOnehotWidth {
			onehotIdx = append(onehotIdx, j)
			offsets = append(offsets, bitWidth)
			bitWidth += w
		} else {
			packedIdx = append(packedIdx, j)
		}
	}
	b.onehotCols = len(onehotIdx)
	b.packedCols = len(packedIdx)
	b.words = (bitWidth + 63) / 64
	b.onehot = make([]uint64, n*b.words)
	b.rowWords = (n + 63) / 64
	b.slots = make([]uint64, bitWidth*b.rowWords)
	if b.packedCols > 0 {
		b.packed = make([]int32, n*b.packedCols)
	}
	for i := 0; i < n; i++ {
		if i&1023 == 0 {
			if err := ctx.Err(); err != nil {
				return nil, fmt.Errorf("metric: bit kernel: %w", err)
			}
		}
		row := t.Row(i)
		w := b.onehot[i*b.words : (i+1)*b.words]
		for c, j := range onehotIdx {
			slot := offsets[c] + slotOf(row[j])
			w[slot>>6] |= 1 << (slot & 63)
			b.slots[slot*b.rowWords+i>>6] |= 1 << (i & 63)
		}
		for c, j := range packedIdx {
			b.packed[i*b.packedCols+c] = row[j]
		}
	}
	return b, nil
}

// slotOf maps a symbol code to its bit slot within the column's range:
// Star to slot 0, code c to slot c+1.
func slotOf(code int32) int {
	if code == relation.Star {
		return 0
	}
	if code < 0 {
		panic(fmt.Sprintf("metric: invalid symbol code %d", code))
	}
	return int(code) + 1
}

// Len reports the number of rows the kernel covers.
func (b *BitKernel) Len() int { return b.n }

// Dist returns d(row i, row j): the one-hot columns contribute
// onehotCols − popcount(AND of the rows' words), the packed columns a
// direct disagreement count.
func (b *BitKernel) Dist(i, j int) int {
	d := b.onehotCols
	if b.words > 0 {
		u := b.onehot[i*b.words : (i+1)*b.words]
		v := b.onehot[j*b.words : (j+1)*b.words : (j+1)*b.words]
		agree := 0
		for w, x := range u {
			agree += bits.OnesCount64(x & v[w])
		}
		d -= agree
	}
	if b.packedCols > 0 {
		pu := b.packed[i*b.packedCols : (i+1)*b.packedCols]
		pv := b.packed[j*b.packedCols : (j+1)*b.packedCols : (j+1)*b.packedCols]
		for c, x := range pu {
			if x != pv[c] {
				d++
			}
		}
	}
	return d
}

// MaxDist returns the degree m — the Hamming bound on every pairwise
// distance. It is an upper bound rather than the realized maximum (the
// kernel never runs an all-pairs pass); callers only use it to size
// counting-sort buckets and saturate diameter sweeps, where a bound is
// all that is needed.
func (b *BitKernel) MaxDist() int { return b.m }

// DistRow fills out[v] = d(center, v) for all v in one pass — the
// RowFiller fast path the cover package's radius kernels use.
func (b *BitKernel) DistRow(center int, out []int32) {
	for v := 0; v < b.n; v++ {
		out[v] = int32(b.Dist(center, v))
	}
}

// ShellWords returns the length of the buffer Shells fills:
// MaxDist()+1 shells of ⌈Len()/64⌉ words each.
func (b *BitKernel) ShellWords() int { return (b.m + 1) * b.rowWords }

// Shells partitions the rows by their distance from center: for each
// d in 0..m, out[d*W : (d+1)*W] (W = ⌈Len()/64⌉) receives the bitset of
// the rows v with d(center, v) = d, bit v%64 of word v/64, with no bit
// set at or past Len(). out must hold ShellWords() words.
//
// Per 64-row word, the center's value in each one-hot column selects
// one transposed slot word (the rows agreeing with it there), and each
// packed column contributes a word built by comparing codes. A
// bit-sliced vertical counter sums these m agreement words into
// ⌈log₂(m+1)⌉ bit planes, and shell d is the word of rows whose plane
// bits spell the agreement count m − d. That is O(m·log m) word
// operations per 64 rows, against 64 Dist calls for DistRow.
func (b *BitKernel) Shells(center int, out []uint64) {
	W := b.rowWords
	out = out[:(b.m+1)*W]
	// The counter's bit planes live in out's first P shells until the
	// decode overwrites them: plane p of rows 64i..64i+63 is
	// out[p*W+i]. Each addition ripples a carry up one word column, and
	// columns are independent, so consecutive words overlap in the CPU.
	P := bits.Len(uint(b.m))
	planes := out[:P*W]
	clear(planes)
	add := func(i int, x uint64) {
		for p := i; p < len(planes); p += W {
			planes[p], x = planes[p]^x, planes[p]&x
		}
	}
	// The center sets one bit per one-hot column, at its slot; that
	// slot's transposed row holds the rows agreeing with it there. Rows
	// are added two at a time: a full adder folds both into plane 0 and
	// ripples one carry from plane 1.
	var pend []uint64
	for w, x := range b.onehot[center*b.words : (center+1)*b.words] {
		for ; x != 0; x &= x - 1 {
			s := (w<<6 + bits.TrailingZeros64(x)) * W
			row := b.slots[s : s+W]
			if pend == nil {
				pend = row
				continue
			}
			for i, y := range row {
				z, p0 := pend[i], planes[i]
				planes[i] = p0 ^ y ^ z
				add(i+W, p0&(y|z)|y&z)
			}
			pend = nil
		}
	}
	for i, y := range pend {
		add(i, y)
	}
	pc := b.packedCols
	for c, code := range b.packed[center*pc : (center+1)*pc] {
		for i := 0; i < W; i++ {
			var x uint64
			for v := i << 6; v < min(i<<6+64, b.n); v++ {
				if b.packed[v*pc+c] == code {
					x |= 1 << (v & 63)
				}
			}
			add(i, x)
		}
	}
	// Shell d holds the rows whose plane bits spell the agreement count
	// m − d. Splitting a word by each plane in turn, top plane first,
	// leaves leaf[a] with the rows whose count is a; a level keeps only
	// the prefixes j with j<<p ≤ m. Rows past n count 0 and are masked
	// off the last word.
	var leafBuf [256]uint64
	leaf := leafBuf[:]
	if b.m+1 > len(leaf) {
		leaf = make([]uint64, b.m+1)
	}
	for i := 0; i < W; i++ {
		leaf[0] = ^uint64(0)
		if i == W-1 && b.n&63 != 0 {
			leaf[0] = 1<<(b.n&63) - 1
		}
		for p := P - 1; p >= 0; p-- {
			plane := planes[p*W+i]
			// Descending j reads each parent leaf[j>>1] before it is
			// overwritten as a child.
			for j := b.m >> p; j >= 0; j-- {
				leaf[j] = leaf[j>>1] & (plane ^ (uint64(j&1) - 1)) // plane if j odd, else ^plane
			}
		}
		for a, x := range leaf[:b.m+1] {
			out[(b.m-a)*W+i] = x
		}
	}
}

// Diameter returns the maximum pairwise distance within the index set.
func (b *BitKernel) Diameter(indices []int) int {
	best := 0
	for a := 0; a < len(indices); a++ {
		ia := indices[a]
		for c := a + 1; c < len(indices); c++ {
			if d := b.Dist(ia, indices[c]); d > best {
				best = d
			}
		}
	}
	return best
}

// DiameterWith returns the diameter of indices ∪ {extra} given the
// diameter of indices, in O(|indices|).
func (b *BitKernel) DiameterWith(indices []int, current int, extra int) int {
	best := current
	for _, i := range indices {
		if d := b.Dist(i, extra); d > best {
			best = d
		}
	}
	return best
}

// Ball returns the indices v with d(center, v) ≤ radius, in index
// order, by one lazy scan of the center's distances — no n×n state.
func (b *BitKernel) Ball(center, radius int) []int {
	var out []int
	for v := 0; v < b.n; v++ {
		if b.Dist(center, v) <= radius {
			out = append(out, v)
		}
	}
	return out
}

// kthNearestTile is the center-block size of the tiled KthNearest pass:
// the block's bitset rows stay cache-hot while the j scan streams every
// row past them once per block.
const kthNearestTile = 64

// KthNearest returns, for each row i, the distance to its r-th nearest
// other row (r ≥ 1), matching Matrix.KthNearest exactly. Distances are
// histogrammed into MaxDist()+1 counting buckets per center; centers
// are processed in cache-blocked tiles so the O(n²) pair scan streams
// the packed rows instead of thrashing.
func (b *BitKernel) KthNearest(r int) []int {
	out := make([]int, b.n)
	if r <= 0 {
		return out
	}
	width := b.MaxDist() + 1
	cnt := make([]int32, kthNearestTile*width)
	for i0 := 0; i0 < b.n; i0 += kthNearestTile {
		i1 := i0 + kthNearestTile
		if i1 > b.n {
			i1 = b.n
		}
		for i := range cnt {
			cnt[i] = 0
		}
		for j := 0; j < b.n; j++ {
			for i := i0; i < i1; i++ {
				if i == j {
					continue
				}
				cnt[(i-i0)*width+b.Dist(i, j)]++
			}
		}
		for i := i0; i < i1; i++ {
			out[i] = kthFromCounts(cnt[(i-i0)*width:(i-i0+1)*width], r)
		}
	}
	return out
}

// kthFromCounts returns the r-th smallest value (1-based) of the
// multiset histogrammed in cnt (cnt[d] = multiplicity of d). If r
// exceeds the multiset size it returns the maximum; an empty multiset
// yields 0 — the same conventions as kthSmallest.
func kthFromCounts(cnt []int32, r int) int {
	seen := 0
	last := 0
	for d, c := range cnt {
		if c == 0 {
			continue
		}
		seen += int(c)
		last = d
		if seen >= r {
			return d
		}
	}
	return last
}
