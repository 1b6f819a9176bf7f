package cover

import (
	"context"
	"fmt"
	"math/bits"
	"sort"
	"sync/atomic"

	"kanon/internal/metric"
	"kanon/internal/obs"
)

// GreedyBallsCtx runs the greedy cover over the ball family without
// materializing it, which is what makes Theorem 4.2's algorithm scale.
// It is exactly equivalent to GreedyCtx over BallsCtx(…,
// WeightRadiusBound, …) (the tests cross-check costs) but stores at most
// one sorted neighbor order per center, so memory is O(n²) small words
// instead of O(n²) full member slices, and each round re-evaluates at
// most a few centers. Matrix-free kernels cache no orders: under
// metric.BitKernel each center evaluation fills the center's distance
// shells (one ⌈n/64⌉-word row bitset per distance) into pooled scratch
// and scans them a word at a time, keeping the whole cover at
// O(n·m/64·workers) memory; any other kernel recomputes the center's
// distance row and order per evaluation.
//
// Correctness of the laziness: for a fixed center, every ball's ratio
// weight/uncovered is nondecreasing as the covered region grows, hence
// so is the center's best ratio. A priority queue keyed by last-known
// best ratio therefore yields the true global minimum once the popped
// center's recomputed key is no worse than the next key in the queue.
//
// workers bounds the neighbor-order precompute (0 means all CPUs, 1
// forces the sequential path); the greedy selection loop is inherently
// sequential, so the chosen cover is byte-identical for every worker
// count. The context is checked once per center during the precompute
// and once per selection round, so covers over large tables abort
// promptly when the caller cancels or times out; the returned error
// wraps ctx.Err(). A non-nil sp records child spans for the two phases
// ("cover.neighbor-order" precompute, "cover.greedy" selection loop)
// and counters for greedy rounds run (cover.greedy_rounds), center
// re-evaluations (cover.balls_considered), and sets picked
// (cover.sets_picked); a nil sp means untraced. Tracing never changes
// the chosen cover.
func GreedyBallsCtx(ctx context.Context, mat metric.Kernel, k, workers int, sp *obs.Span) ([]Set, error) {
	n := mat.Len()
	if k < 1 {
		return nil, fmt.Errorf("cover: k = %d < 1", k)
	}
	if n < k {
		return nil, fmt.Errorf("cover: n = %d < k = %d", n, k)
	}

	// covered has bit v set once row v is covered.
	words := (n + 63) / 64
	covered := make([]uint64, words)
	remaining := n

	// A center evaluation loads the center's distances into scratch,
	// then scans them for the minimum-ratio ball against the current
	// covered set. load, scan and members are the kernel-specific parts:
	// scan returns ok=false if no ball of the center holds an uncovered
	// row, and members lists the rows of the ball scan chose (radius
	// w/2, end rows) in ascending order. The scan of a center whose
	// distances are still in scratch needs no reload.
	var (
		get     func() *ballScratch
		load    func(c int, s *ballScratch)
		scan    func(c int, s *ballScratch) (w, unc, end int, ok bool)
		members func(c int, s *ballScratch, w, end int) []int
	)
	if bk, ok := mat.(*metric.BitKernel); ok {
		// The BitKernel's rows at distance d from c are one bitset, so a
		// ball's size and uncovered count are popcounts over the shells
		// up to its radius, 64 rows per word. The concrete type, not a
		// method set, selects this path: a wrapper that embeds the
		// kernel and overrides its distance methods is served by the
		// path below, through its own methods.
		sw := bk.ShellWords()
		get = func() *ballScratch { return getShellScratch(sw) }
		load = func(c int, s *ballScratch) { bk.Shells(c, s.shells) }
		scan = func(_ int, s *ballScratch) (bw, bu, be int, ok bool) {
			size, unc := 0, 0
			for d := 0; d*words < sw; d++ {
				cnt, u := 0, 0
				for i, x := range s.shells[d*words : (d+1)*words] {
					cnt += bits.OnesCount64(x)
					u += bits.OnesCount64(x &^ covered[i])
				}
				// An empty shell repeats the previous ball at a larger
				// weight, which never wins: no need to skip it.
				size += cnt
				unc += u
				if size >= k && unc > 0 {
					if weight := 2 * d; !ok || better(weight, unc, bw, bu) {
						bw, bu, be, ok = weight, unc, size, true
					}
				}
				if size == n {
					break
				}
			}
			return bw, bu, be, ok
		}
		members = func(_ int, s *ballScratch, w, end int) []int {
			out := make([]int, 0, end)
			for i := 0; i < words; i++ {
				var x uint64
				for d := 0; d <= w/2; d++ {
					x |= s.shells[d*words+i]
				}
				for ; x != 0; x &= x - 1 {
					out = append(out, i<<6+bits.TrailingZeros64(x))
				}
			}
			return out
		}
	} else {
		// The dense Matrix caches one neighbor order per center (ord[c]:
		// the other rows sorted by distance from c, ties by index,
		// matching BallsCtx for reproducible cross-checks) — the cache
		// costs at most the matrix's own O(n²) footprint again, and makes
		// a ball a prefix of ord[c]. Any other kernel recomputes the
		// center's distance row and order into scratch per evaluation,
		// keeping the cover at O(n·workers) memory.
		var ord [][]int32
		dense, isDense := mat.(*metric.Matrix)
		if isDense {
			ns := sp.Start("cover.neighbor-order")
			ord = make([][]int32, n)
			forEachIndex(n, workers, func(c int) {
				if ctx.Err() != nil {
					return // drain remaining centers cheaply; checked below
				}
				s := getScratch(n)
				neighborOrder(mat, c, s)
				o := make([]int32, n)
				copy(o, s.ord)
				putScratch(s)
				ord[c] = o
			})
			ns.End()
			if err := ctx.Err(); err != nil {
				return nil, fmt.Errorf("cover: neighbor order: %w", err)
			}
		}
		order := func(c int, s *ballScratch) []int32 {
			if isDense {
				return ord[c]
			}
			return s.ord
		}
		get = func() *ballScratch { return getScratch(n) }
		load = func(c int, s *ballScratch) {
			if isDense {
				dense.DistRow(c, s.dist)
				return
			}
			neighborOrder(mat, c, s)
		}
		scan = func(c int, s *ballScratch) (bw, bu, be int, ok bool) {
			o := order(c, s)
			unc := 0
			for e := 0; e < n; e++ {
				if v := o[e]; covered[v>>6]>>(v&63)&1 == 0 {
					unc++
				}
				size := e + 1
				if size < k || unc == 0 {
					continue
				}
				if size < n && s.dist[o[e+1]] == s.dist[o[e]] {
					continue // not a distance boundary
				}
				if weight := 2 * int(s.dist[o[e]]); !ok || better(weight, unc, bw, bu) {
					bw, bu, be, ok = weight, unc, size, true
				}
			}
			return bw, bu, be, ok
		}
		members = func(c int, s *ballScratch, _, end int) []int {
			out := make([]int, end)
			for i, v := range order(c, s)[:end] {
				out[i] = int(v)
			}
			sort.Ints(out)
			return out
		}
	}

	gs := sp.Start("cover.greedy")
	defer gs.End()
	rounds := 0
	var considered atomic.Int64
	var chosen []Set
	defer func() {
		sp.Counter("cover.greedy_rounds").Add(int64(rounds))
		sp.Counter("cover.balls_considered").Add(considered.Load())
		sp.Counter("cover.sets_picked").Add(int64(len(chosen)))
	}()
	ballRadius := sp.Histogram("cover.ball_radius")
	ballSize := sp.Histogram("cover.ball_size")
	roundSize := sp.Histogram("cover.round_size")
	progress := sp.Progress("cover.covered")
	progress.SetTotal(int64(n))

	evalCenter := func(c int, s *ballScratch) (w, unc, end int, ok bool) {
		considered.Add(1)
		load(c, s)
		return scan(c, s)
	}

	// Initial heap: every center evaluated against the empty cover.
	// Evaluations are independent (nothing is covered yet), so they
	// shard across workers; entries are assembled in center order,
	// keeping the heap — and hence the chosen cover — byte-identical for
	// every worker count.
	entries := make([]centerEntry, n) // unc == 0: c has no ball
	forEachIndex(n, workers, func(c int) {
		if ctx.Err() != nil {
			return // drain remaining centers cheaply; checked below
		}
		s := get()
		if w, unc, _, ok := evalCenter(c, s); ok {
			entries[c] = newEntry(c, w, unc)
		}
		putScratch(s)
	})
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("cover: ball greedy: %w", err)
	}
	pq := centerHeap(entries[:0])
	for _, e := range entries {
		if e.unc > 0 {
			pq = append(pq, e)
		}
	}
	pq.init()

	scratch := get()
	defer putScratch(scratch)
	for remaining > 0 {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("cover: ball greedy: %w", err)
		}
		if len(pq) == 0 {
			return nil, fmt.Errorf("cover: ball family cannot cover %d remaining elements", remaining)
		}
		rounds++
		top := pq.pop()
		c := int(top.center)
		w, unc, end, ok := evalCenter(c, scratch)
		if !ok {
			continue
		}
		fresh := newEntry(c, w, unc)
		if len(pq) > 0 && pq[0].less(fresh) {
			pq.push(fresh)
			continue
		}
		ball := members(c, scratch, w, end)
		for _, v := range ball {
			if bit := uint64(1) << (v & 63); covered[v>>6]&bit == 0 {
				covered[v>>6] |= bit
				remaining--
			}
		}
		chosen = append(chosen, Set{Members: ball, Weight: w})
		ballRadius.Observe(int64(w / 2))
		ballSize.Observe(int64(end))
		roundSize.Observe(int64(unc))
		progress.Add(int64(unc))
		if remaining > 0 {
			// scratch still holds c's distances: rescan only.
			considered.Add(1)
			if w2, unc2, _, ok2 := scan(c, scratch); ok2 {
				pq.push(newEntry(c, w2, unc2))
			}
		}
	}
	return chosen, nil
}

// better reports whether ratio w1/u1 beats w2/u2 under the same
// tie-breaking as ratioEntry.less: smaller ratio first, then larger
// uncovered count.
func better(w1, u1, w2, u2 int) bool {
	l := int64(w1) * int64(u2)
	r := int64(w2) * int64(u1)
	if l != r {
		return l < r
	}
	return u1 > u2
}

// centerEntry is a heap entry: a center with the radius and uncovered
// count of its last-known best ball (weight 2·radius). int32 fields keep
// the n-entry heap at 12 bytes a center; a radius is a distance, which
// every kernel bounds by MaxInt32.
type centerEntry struct {
	center, radius, unc int32
}

func newEntry(c, weight, unc int) centerEntry {
	return centerEntry{center: int32(c), radius: int32(weight / 2), unc: int32(unc)}
}

// less orders by ratio weight/unc (smaller first; the common factor 2
// of the weights cancels), then larger unc, then smaller center.
func (a centerEntry) less(b centerEntry) bool {
	l := int64(a.radius) * int64(b.unc)
	r := int64(b.radius) * int64(a.unc)
	if l != r {
		return l < r
	}
	if a.unc != b.unc {
		return a.unc > b.unc
	}
	return a.center < b.center
}

// centerHeap is a binary min-heap of centerEntry under less, with
// typed push and pop (container/heap would box every entry in an any).
type centerHeap []centerEntry

// init establishes the heap order over an arbitrary slice.
func (h centerHeap) init() {
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
}

func (h *centerHeap) push(e centerEntry) {
	*h = append(*h, e)
	q := *h
	for i := len(q) - 1; i > 0; {
		p := (i - 1) / 2
		if !q[i].less(q[p]) {
			break
		}
		q[i], q[p] = q[p], q[i]
		i = p
	}
}

// pop removes and returns the least entry; the heap must be nonempty.
func (h *centerHeap) pop() centerEntry {
	q := *h
	top := q[0]
	last := len(q) - 1
	q[0] = q[last]
	*h = q[:last]
	h.down(0)
	return top
}

func (h centerHeap) down(i int) {
	for {
		j := 2*i + 1
		if j >= len(h) {
			return
		}
		if r := j + 1; r < len(h) && h[r].less(h[j]) {
			j = r
		}
		if !h[j].less(h[i]) {
			return
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
}
