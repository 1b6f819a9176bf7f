package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"kanon/internal/algo"
	"kanon/internal/core"
	"kanon/internal/cover"
	"kanon/internal/dataset"
	"kanon/internal/hierarchy"
	"kanon/internal/metric"
	"kanon/internal/refine"
	"kanon/internal/relation"
	"kanon/internal/stream"
)

// release is one solve's output as the benchmark checks it: the bytes a
// user would receive and the objective the solver reported.
type release struct {
	csv  []byte
	cost int
}

// checkFunc checks and renders one solve's release, after the timed
// region.
type checkFunc func() (release, error)

// solveFunc runs one whole solve — the timed part — and returns the
// check of its release.
type solveFunc func() (checkFunc, error)

// batchRun is what a back-to-back solve loop measured.
type batchRun struct {
	walls []float64 // seconds per solve
	peaks []float64 // sampled heap peak per solve, bytes
	last  release
}

// solveLoop runs solve back to back until the budget is spent (at least
// once). Garbage is collected before each solve, outside the timed
// region; the heap is sampled only while a solve runs, one peak per
// solve, and every release must be byte-identical to the first (the
// solvers are deterministic).
func solveLoop(budget time.Duration, rep *report, solve solveFunc) batchRun {
	var br batchRun
	hs := startHeapSampler(time.Millisecond)
	start := time.Now()
	for {
		gcFresh()
		hs.active.Store(true)
		t := time.Now()
		check, err := solve()
		d := time.Since(t)
		hs.active.Store(false)
		peak := hs.takePeak()
		rep.attempted++
		var rel release
		if err == nil {
			rel, err = check()
		}
		switch {
		case err != nil:
			rep.fail("%v", err)
		case br.last.csv != nil && (!bytes.Equal(rel.csv, br.last.csv) || rel.cost != br.last.cost):
			rep.fail("release differs from the first solve's")
		default:
			br.walls = append(br.walls, d.Seconds())
			br.peaks = append(br.peaks, peak)
			br.last = rel
		}
		if time.Since(start)+time.Duration(median(br.walls)*float64(time.Second)) > budget {
			break
		}
	}
	hs.stopPeak()
	return br
}

// batchMetrics turns a solve loop into the end-to-end metrics.
func batchMetrics(rep *report, br batchRun, rows int) {
	rep.values["rows_per_s"] = float64(rows) / median(br.walls)
	rep.values["release_cost"] = float64(br.last.cost)
	rep.values["peak_heap_bytes"] = median(br.peaks)
}

// tracedPasses runs the untraced solve for half the budget and the
// traced one for the other half, checks that both release the same
// bytes, and records the tracing overhead.
func tracedPasses(seconds float64, rep *report, plain, traced solveFunc) {
	half := time.Duration(seconds / 2 * float64(time.Second))
	a := solveLoop(half, rep, plain)
	b := solveLoop(half, rep, traced)
	if a.last.csv != nil && b.last.csv != nil && (!bytes.Equal(a.last.csv, b.last.csv) || a.last.cost != b.last.cost) {
		rep.fail("traced release differs from the untraced one")
	}
	if len(a.walls) > 0 && len(b.walls) > 0 {
		rep.values["bench.trace_overhead_ratio"] = median(b.walls) / median(a.walls)
	}
}

func tableCSV(t *relation.Table) []byte {
	var b bytes.Buffer
	_ = relation.WriteCSV(&b, t) // a bytes.Buffer write cannot fail
	return b.Bytes()
}

// checkSuppressed verifies a suppression release: same shape as the
// input, every cell kept or starred, k-anonymous, and exactly cost
// stars inserted.
func checkSuppressed(in, out *relation.Table, k, cost int) error {
	if out.Len() != in.Len() || out.Degree() != in.Degree() {
		return fmt.Errorf("release is %dx%d, input %dx%d", out.Len(), out.Degree(), in.Len(), in.Degree())
	}
	if !out.IsKAnonymous(k) {
		return fmt.Errorf("release is not %d-anonymous", k)
	}
	stars := 0
	for i := 0; i < in.Len(); i++ {
		a, b := in.Strings(i), out.Strings(i)
		for j := range a {
			switch b[j] {
			case a[j]:
			case relation.StarString:
				stars++
			default:
				return fmt.Errorf("row %d column %d changed to %q", i, j, b[j])
			}
		}
	}
	if stars != cost {
		return fmt.Errorf("release has %d stars, solver reported %d", stars, cost)
	}
	return nil
}

// pipeStats accumulates the layer times of ballPipeline calls, which may
// run concurrently (one per stream block).
type pipeStats struct {
	mu                                         sync.Mutex
	buildMS, greedyMS, selfMS, reduceMS, supMS float64
	sets                                       int
	metricAlloc, coverAlloc, algoAlloc         float64
	kernels                                    []*countingKernel
}

func (p *pipeStats) add(fn func()) {
	p.mu.Lock()
	fn()
	p.mu.Unlock()
}

// measureAlloc runs fn, returning its allocation delta when exact is
// set (the call runs alone) and 0 otherwise.
func measureAlloc(exact bool, fn func()) float64 {
	if !exact {
		fn()
		return 0
	}
	return allocDelta(fn)
}

// ballPipeline runs algo.GreedyBall's steps one public call at a time —
// kernel build, implicit ball cover, reduce with the paper's split,
// suppression — under spans named like the solver's own. Its release is
// byte-identical to algo.GreedyBall(t, k, &algo.Options{Workers:
// workers}); the guard test holds it to that. exact says whether the
// call runs alone, so allocation deltas belong to it.
func ballPipeline(t *relation.Table, k, workers int, rec *recorder, parent int, ps *pipeStats, exact bool) (*algo.Result, error) {
	ctx := context.Background()
	var kern metric.Kernel
	var err error
	var mAlloc, cAlloc, aAlloc float64
	build := rec.span("algo.distance-matrix", parent, func(int) {
		mAlloc = measureAlloc(exact, func() { kern, err = metric.NewKernelCtx(ctx, t, metric.Auto, workers) })
	})
	if err != nil {
		return nil, err
	}
	var ck *countingKernel
	if bk, ok := kern.(*metric.BitKernel); ok {
		ck = &countingKernel{BitKernel: bk}
		kern = ck
	}
	var chosen []cover.Set
	greedy := rec.span("cover.greedy", parent, func(int) {
		cAlloc = measureAlloc(exact, func() { chosen, err = cover.GreedyBallsCtx(ctx, kern, k, workers, nil) })
	})
	if err != nil {
		return nil, err
	}
	self := greedy
	if ck != nil {
		self -= ck.busy.load()
	}
	var p *core.Partition
	reduce := rec.span("algo.reduce", parent, func(int) {
		aAlloc = measureAlloc(exact, func() {
			p, err = cover.Reduce(t.Len(), chosen, k)
			if err == nil {
				p.SplitOversize(k)
				err = p.Validate(t.Len(), k, 2*k-1)
			}
		})
	})
	if err != nil {
		return nil, err
	}
	_ = p.DiameterSum(kern) // algo computes this statistic between reduce and suppress
	var sup *core.Suppressor
	var anon *relation.Table
	suppress := rec.span("algo.suppress", parent, func(int) {
		aAlloc += measureAlloc(exact, func() {
			sup = p.Suppressor(t)
			anon = sup.Apply(t)
		})
	})
	if !anon.IsKAnonymous(k) {
		return nil, fmt.Errorf("pipeline output is not %d-anonymous", k)
	}
	ps.add(func() {
		ps.buildMS += ms(build)
		ps.greedyMS += ms(greedy)
		ps.selfMS += ms(self)
		ps.reduceMS += ms(reduce)
		ps.supMS += ms(suppress)
		ps.sets += len(chosen)
		ps.metricAlloc += mAlloc
		ps.coverAlloc += cAlloc
		ps.algoAlloc += aAlloc
		if ck != nil {
			ps.kernels = append(ps.kernels, ck)
		}
	})
	return &algo.Result{K: k, Partition: p, Suppressor: sup, Anonymized: anon, Cost: sup.Stars()}, nil
}

// layerValues writes the metric, cover and algo per-layer metrics of
// the last traced solve.
func (p *pipeStats) layerValues(rep *report, rows int) {
	var rowCalls, rowNS, distCalls, distNS int64
	for _, ck := range p.kernels {
		rowCalls += ck.rowCalls.Load()
		rowNS += ck.rowNS.Load()
		distCalls += ck.distCalls.Load()
		distNS += ck.distNS.Load()
	}
	v := rep.values
	v["metric.build_ms"] = p.buildMS
	v["metric.distrow_calls"] = float64(rowCalls)
	v["metric.distrow_ms"] = float64(rowNS) / 1e6
	if rowCalls > 0 {
		v["metric.ns_per_row"] = float64(rowNS) / float64(rowCalls) / float64(rows)
	}
	v["metric.dist_calls"] = float64(distCalls)
	v["metric.dist_ms"] = float64(distNS) / 1e6
	v["metric.alloc_bytes"] = p.metricAlloc
	v["cover.greedy_balls_ms"] = p.greedyMS
	v["cover.self_ms"] = p.selfMS
	v["cover.sets_chosen"] = float64(p.sets)
	v["cover.reduce_ms"] = p.reduceMS
	v["cover.alloc_bytes"] = p.coverAlloc
	v["algo.suppress_ms"] = p.supMS
	v["algo.alloc_bytes"] = p.algoAlloc
}

// ---- ball_bitset_large ------------------------------------------------

type ballBench struct {
	cfg     config
	n, m, k int
	t       *relation.Table
}

func newBall(cfg config) workload {
	b := &ballBench{cfg: cfg, n: 8192, m: 8, k: 3}
	if cfg.tiny {
		b.n = metric.AutoBitsetThreshold
	}
	return b
}

func (b *ballBench) setup() error {
	rng := rand.New(rand.NewSource(b.cfg.seed))
	b.t = dataset.Planted(rng, b.n, b.m, 6, b.k, 1)
	if metric.Auto.Resolve(b.n) != metric.Bitset {
		return fmt.Errorf("n=%d does not select the bitset kernel", b.n)
	}
	// Warm up on a slice of the input through the same bitset path.
	_, err := algo.GreedyBall(b.t.SubTable(seq(0, b.n/4)), b.k, &algo.Options{Workers: b.cfg.workers, Kernel: metric.Bitset})
	return err
}

func (b *ballBench) close() {}

func (b *ballBench) check(r *algo.Result) checkFunc {
	return func() (release, error) {
		if err := checkSuppressed(b.t, r.Anonymized, b.k, r.Cost); err != nil {
			return release{}, err
		}
		return release{tableCSV(r.Anonymized), r.Cost}, nil
	}
}

func (b *ballBench) plain() (checkFunc, error) {
	r, err := algo.GreedyBall(b.t, b.k, &algo.Options{Workers: b.cfg.workers})
	if err != nil {
		return nil, err
	}
	return b.check(r), nil
}

func (b *ballBench) measure() (*report, error) {
	rep := newReport()
	br := solveLoop(seconds(b.cfg.seconds), rep, b.plain)
	if len(br.walls) == 0 {
		return nil, fmt.Errorf("no solve succeeded")
	}
	batchMetrics(rep, br, b.n)
	return rep, nil
}

func (b *ballBench) traced(rec *recorder) (*report, error) {
	rep := newReport()
	var last *pipeStats
	tracedPasses(b.cfg.seconds, rep, b.plain, func() (checkFunc, error) {
		ps := &pipeStats{}
		root := rec.start("algo.greedy-ball", 0, "")
		r, err := ballPipeline(b.t, b.k, b.cfg.workers, rec, root, ps, true)
		rec.end(root)
		if err != nil {
			return nil, err
		}
		last = ps
		return b.check(r), nil
	})
	if last != nil {
		last.layerValues(rep, b.n)
	}
	return rep, nil
}

// ---- stream_census ----------------------------------------------------

type streamBench struct {
	cfg            config
	n, m, k, block int
	t              *relation.Table
}

func newStream(cfg config) workload {
	s := &streamBench{cfg: cfg, n: 8192, m: 8, k: 3, block: 512}
	if cfg.tiny {
		s.n = 1024
	}
	return s
}

func (s *streamBench) setup() error {
	s.t = dataset.Census(rand.New(rand.NewSource(s.cfg.seed)), s.n, s.m)
	_, err := stream.Anonymize(s.t.SubTable(seq(0, 2*s.block)), s.k, s.options(nil))
	return err
}

func (s *streamBench) close() {}

func (s *streamBench) options(fn func(*relation.Table, int) (*algo.Result, error)) *stream.Options {
	return &stream.Options{BlockRows: s.block, Refine: true, Workers: s.cfg.workers, Algo: fn}
}

func (s *streamBench) check(r *stream.Result) checkFunc {
	return func() (release, error) {
		if err := checkSuppressed(s.t, r.Anonymized, s.k, r.Cost); err != nil {
			return release{}, err
		}
		return release{tableCSV(r.Anonymized), r.Cost}, nil
	}
}

func (s *streamBench) plain() (checkFunc, error) {
	r, err := stream.Anonymize(s.t, s.k, s.options(nil))
	if err != nil {
		return nil, err
	}
	return s.check(r), nil
}

func (s *streamBench) measure() (*report, error) {
	rep := newReport()
	br := solveLoop(seconds(s.cfg.seconds), rep, s.plain)
	if len(br.walls) == 0 {
		return nil, fmt.Errorf("no solve succeeded")
	}
	batchMetrics(rep, br, s.n)
	return rep, nil
}

// capture is one block as the Algo wrapper saw it: its sub-table and a
// copy of the partition before stream's refine step changed it.
type capture struct {
	sub  *relation.Table
	part *core.Partition
}

func clonePartition(p *core.Partition) *core.Partition {
	out := &core.Partition{Groups: make([][]int, len(p.Groups))}
	for i, g := range p.Groups {
		out.Groups[i] = append([]int(nil), g...)
	}
	return out
}

func (s *streamBench) traced(rec *recorder) (*report, error) {
	rep := newReport()
	var (
		ps      *pipeStats
		blockMS []float64
		caps    []capture
		wall    time.Duration
		relCost int
		blocks  int
		stAlloc float64
		mu      sync.Mutex
	)
	tracedPasses(s.cfg.seconds, rep, s.plain, func() (checkFunc, error) {
		ps, blockMS, caps = &pipeStats{}, nil, nil
		root := rec.start("stream", 0, "")
		// The wrapper runs the default per-block algorithm (GreedyBall,
		// all CPUs) decomposed into its public calls.
		wrap := func(sub *relation.Table, k int) (*algo.Result, error) {
			id := rec.start("stream.block", root, "")
			t := time.Now()
			r, err := ballPipeline(sub, k, 0, rec, id, ps, false)
			d := time.Since(t)
			rec.end(id)
			if err != nil {
				return nil, err
			}
			mu.Lock()
			blockMS = append(blockMS, ms(d))
			caps = append(caps, capture{sub, clonePartition(r.Partition)})
			mu.Unlock()
			return r, nil
		}
		var r *stream.Result
		var err error
		t := time.Now()
		stAlloc = allocDelta(func() { r, err = stream.Anonymize(s.t, s.k, s.options(wrap)) })
		wall = time.Since(t)
		rec.end(root)
		if err != nil {
			return nil, err
		}
		relCost, blocks = r.Cost, r.Blocks
		return s.check(r), nil
	})
	if ps == nil {
		return rep, nil
	}
	ps.layerValues(rep, s.block)
	v := rep.values
	v["stream.blocks"] = float64(blocks)
	v["stream.block_solve_ms_p50"] = median(blockMS)
	v["stream.block_solve_ms_max"] = maxOf(blockMS)
	busy := sum(blockMS)
	workers := float64(min(s.cfg.workers, blocks))
	v["stream.algo_busy_share"] = busy / (ms(wall) * workers)
	v["stream.outside_algo_ms"] = (ms(wall)*workers - busy) / workers
	v["stream.alloc_bytes"] = stAlloc
	// The per-block allocations of concurrent blocks cannot be told
	// apart; only the whole pass is attributed.
	v["metric.alloc_bytes"], v["cover.alloc_bytes"], v["algo.alloc_bytes"] = 0, 0, 0

	// Replay refine on every captured block partition. Its cost sum
	// must reproduce the stream release's.
	rep.attempted++
	rr, err := replayRefine(rec, caps, s.k, s.cfg.workers)
	switch {
	case err != nil:
		rep.fail("refine replay: %v", err)
	case rr.after != relCost:
		rep.fail("refine replay costs sum to %d, stream released %d", rr.after, relCost)
	}
	v["refine.ms"] = ms(rr.total)
	v["refine.cost_saved"] = float64(rr.saved)
	v["refine.alloc_bytes"] = rr.alloc
	return rep, nil
}

// replayed sums a refine replay: time spent in refine.Partition, stars
// saved, refined cost, and bytes allocated by the whole replay.
type replayed struct {
	total        time.Duration
	saved, after int
	alloc        float64
}

// replayRefine re-runs refine.Partition with the stream's default
// options on a copy of each captured block partition, on workers
// goroutines.
func replayRefine(rec *recorder, caps []capture, k, workers int) (replayed, error) {
	type out struct {
		d   time.Duration
		st  *refine.Stats
		err error
	}
	outs := make([]out, len(caps))
	var next atomic.Int64
	root := rec.start("refine.replay", 0, "")
	alloc := allocDelta(func() {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for j := int(next.Add(1)) - 1; j < len(caps); j = int(next.Add(1)) - 1 {
					c := caps[j]
					p := clonePartition(c.part)
					var o out
					o.d = rec.span("refine", root, func(int) { o.st, o.err = refine.Partition(c.sub, p, k, &refine.Options{}) })
					outs[j] = o
				}
			}()
		}
		wg.Wait()
	})
	rec.end(root)
	rr := replayed{alloc: alloc}
	for _, o := range outs {
		if o.err != nil {
			return rr, o.err
		}
		rr.total += o.d
		rr.saved += o.st.CostBefore - o.st.CostAfter
		rr.after += o.st.CostAfter
	}
	return rr, nil
}

// ---- hier_lattice -----------------------------------------------------

type hierBench struct {
	cfg             config
	n, m, k, budget int
	t               *relation.Table
}

func newHier(cfg config) workload {
	h := &hierBench{cfg: cfg, n: 2000, m: 6, k: 4, budget: 10}
	if cfg.tiny {
		h.n = 400
	}
	return h
}

func (h *hierBench) setup() error {
	h.t = dataset.Census(rand.New(rand.NewSource(h.cfg.seed)), h.n, h.m)
	_, err := hierarchy.Solve(h.t.SubTable(seq(0, h.n/4)), h.k, h.options(nil))
	return err
}

func (h *hierBench) close() {}

func (h *hierBench) options(spec *hierarchy.Spec) *hierarchy.Options {
	return &hierarchy.Options{MaxSuppress: h.budget, Workers: h.cfg.workers, Spec: spec}
}

// check verifies a hierarchy release: every released class of fewer
// than k rows is fully starred, at most budget rows are, and Cost
// counts exactly the cells that differ from the input.
func (h *hierBench) verify(r *hierarchy.Result) (release, error) {
	if len(r.Rows) != h.n {
		return release{}, fmt.Errorf("release has %d rows, input %d", len(r.Rows), h.n)
	}
	class := map[string]int{}
	keys := make([]string, h.n)
	cost := 0
	for i, row := range r.Rows {
		in := h.t.Strings(i)
		for j, c := range row {
			if c != in[j] {
				cost++
			}
		}
		keys[i] = fmt.Sprintf("%q", row)
		class[keys[i]]++
	}
	small := 0
	for i, key := range keys {
		if class[key] < h.k {
			if !allStar(r.Rows[i]) {
				return release{}, fmt.Errorf("row %d sits in a released class of %d < k=%d", i, class[key], h.k)
			}
			small++
		}
	}
	if small > h.budget || len(r.Suppressed) > h.budget {
		return release{}, fmt.Errorf("%d rows suppressed, budget %d", max(small, len(r.Suppressed)), h.budget)
	}
	if cost != r.Cost {
		return release{}, fmt.Errorf("release changes %d cells, solver reported %d", cost, r.Cost)
	}
	var b bytes.Buffer
	_ = relation.WriteCSVRows(&b, h.t.Schema().Names(), r.Rows)
	return release{b.Bytes(), r.Cost}, nil
}

func allStar(row []string) bool {
	for _, c := range row {
		if c != relation.StarString {
			return false
		}
	}
	return true
}

func (h *hierBench) plain() (checkFunc, error) {
	r, err := hierarchy.Solve(h.t, h.k, h.options(nil))
	if err != nil {
		return nil, err
	}
	return func() (release, error) { return h.verify(r) }, nil
}

func (h *hierBench) measure() (*report, error) {
	rep := newReport()
	br := solveLoop(seconds(h.cfg.seconds), rep, h.plain)
	if len(br.walls) == 0 {
		return nil, fmt.Errorf("no solve succeeded")
	}
	batchMetrics(rep, br, h.n)
	return rep, nil
}

// checkSamples is how many seeded lattice nodes the traced pass checks
// one at a time to time CountTree.Check.
const checkSamples = 256

// traced times the same Solve call as the untraced pass, under a span,
// then — outside the timed region — reruns its steps one public call
// at a time (Derive, Compile, BuildCountTree, Search, a Check sample)
// and checks that Search picks the levels Solve released.
func (h *hierBench) traced(rec *recorder) (*report, error) {
	rep := newReport()
	v := rep.values
	// Solve and its parts are timed in separate calls; their difference
	// (materialize and the self-check) is taken between medians, since
	// it is small next to one call's noise.
	var solves, parts []float64
	tracedPasses(h.cfg.seconds, rep, h.plain, func() (checkFunc, error) {
		var res *hierarchy.Result
		var err error
		solveD := rec.span("hierarchy.solve", 0, func(int) { res, err = hierarchy.Solve(h.t, h.k, h.options(nil)) })
		if err != nil {
			return nil, err
		}
		return func() (release, error) {
			root := rec.start("hierarchy.decomposed", 0, "")
			defer rec.end(root)
			var spec *hierarchy.Spec
			deriveD := rec.span("hierarchy.derive", root, func(int) { spec = hierarchy.Derive(h.t) })
			var cols []*hierarchy.Column
			colsD := rec.span("hierarchy.columns", root, func(int) { cols, err = hierarchy.Compile(spec, h.t) })
			if err != nil {
				return release{}, err
			}
			var ct *hierarchy.CountTree
			treeD := rec.span("hierarchy.count_tree", root, func(int) { ct = hierarchy.BuildCountTree(h.t, cols) })
			var sr *hierarchy.SearchResult
			var searchAlloc float64
			searchD := rec.span("hierarchy.search", root, func(int) {
				searchAlloc = allocDelta(func() {
					sr, err = hierarchy.Search(ct, h.k, h.budget, &hierarchy.SearchOptions{Workers: h.cfg.workers})
				})
			})
			if err != nil {
				return release{}, err
			}
			if fmt.Sprint(res.Levels) != fmt.Sprint(sr.Levels) {
				return release{}, fmt.Errorf("Solve released levels %v, Search picks %v", res.Levels, sr.Levels)
			}
			checkNS, checkAllocs := h.sampleChecks(rec, root, ct, cols)
			v["hierarchy.count_tree_ms"] = ms(treeD)
			v["hierarchy.count_tree_nodes"] = float64(ct.Nodes())
			v["hierarchy.search_ms"] = ms(searchD)
			v["hierarchy.search_alloc_bytes"] = searchAlloc
			v["hierarchy.walks"] = float64(sr.Walked)
			v["hierarchy.tag_hits"] = float64(sr.TagHits)
			v["hierarchy.check_ns"] = checkNS
			v["hierarchy.check_allocs"] = checkAllocs
			solves = append(solves, ms(solveD))
			parts = append(parts, ms(deriveD+colsD+treeD+searchD))
			return h.verify(res)
		}, nil
	})
	v["hierarchy.solve_other_ms"] = median(solves) - median(parts)
	return rep, nil
}

// sampleChecks times CountTree.Check (full scoring) on a fixed seeded
// sample of lattice nodes and returns the median ns and the mean heap
// objects allocated per call.
func (h *hierBench) sampleChecks(rec *recorder, parent int, ct *hierarchy.CountTree, cols []*hierarchy.Column) (float64, float64) {
	rng := rand.New(rand.NewSource(h.cfg.seed))
	nodes := make([][]int, checkSamples)
	for i := range nodes {
		levels := make([]int, len(cols))
		for j, c := range cols {
			levels[j] = rng.Intn(c.Height + 1)
		}
		nodes[i] = levels
	}
	ns := make([]float64, len(nodes))
	var objs uint64
	rec.span("hierarchy.check-sample", parent, func(int) {
		_, o0 := allocCounters()
		for i, levels := range nodes {
			t := time.Now()
			ct.Check(levels, h.k, h.budget, true)
			ns[i] = float64(time.Since(t).Nanoseconds())
		}
		_, o1 := allocCounters()
		objs = o1 - o0
	})
	return median(ns), float64(objs) / float64(len(nodes))
}

// ---- helpers ----------------------------------------------------------

func seq(lo, hi int) []int {
	out := make([]int, 0, hi-lo)
	for i := lo; i < hi; i++ {
		out = append(out, i)
	}
	return out
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }
