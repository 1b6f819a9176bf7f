package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// quantile returns the nearest-rank q-quantile of xs (0 for no
// samples). Nearest rank keeps every reported value one that was
// actually measured.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// median is the middle sample (mean of the two middle ones for an even
// count), the statistic every end-to-end timing reports.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	h := len(s) / 2
	if len(s)%2 == 1 {
		return s[h]
	}
	return (s[h-1] + s[h]) / 2
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		m = math.Max(m, x)
	}
	return m
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// heapSampler polls /memory/classes/heap/objects:bytes — live plus
// not-yet-swept heap objects — every period while active is set. A
// window's peak is the 99th percentile of its samples: a sampled
// high-water mark that leaves out the rare overshoot of a single
// delayed GC cycle (a solve runs hundreds of cycles), not an
// allocation total.
type heapSampler struct {
	active  atomic.Bool
	mu      sync.Mutex
	samples []float64
	stop    chan struct{}
	done    chan struct{}
}

const heapMetric = "/memory/classes/heap/objects:bytes"

// startHeapSampler samples every period until stopPeak.
func startHeapSampler(period time.Duration) *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: heapMetric}}
		tick := time.NewTicker(period)
		defer tick.Stop()
		for {
			if h.active.Load() {
				metrics.Read(s)
				h.mu.Lock()
				h.samples = append(h.samples, float64(s[0].Value.Uint64()))
				h.mu.Unlock()
			}
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// takePeak returns the peak of the samples since the last call, in
// bytes, and starts a new window.
func (h *heapSampler) takePeak() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	p := quantile(h.samples, 0.99)
	h.samples = h.samples[:0]
	return p
}

// stopPeak ends sampling and returns the peak of the last window.
func (h *heapSampler) stopPeak() float64 {
	close(h.stop)
	<-h.done
	return h.takePeak()
}

// allocCounters reads the process-wide cumulative allocation totals
// (bytes and objects) without stopping the world.
func allocCounters() (bytes, objects uint64) {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64()
}

// allocDelta measures the bytes allocated while fn runs (a TotalAlloc
// delta). Exact only when nothing else allocates concurrently.
func allocDelta(fn func()) float64 {
	b0, _ := allocCounters()
	fn()
	b1, _ := allocCounters()
	return float64(b1 - b0)
}

// busyUnion accumulates the wall time during which at least one call is
// inside a layer — the part of an enclosing span that child calls
// cover, even when several goroutines call the layer at once.
type busyUnion struct {
	mu     sync.Mutex
	active int
	since  time.Time
	total  time.Duration
}

func (b *busyUnion) enter() {
	b.mu.Lock()
	if b.active == 0 {
		b.since = time.Now()
	}
	b.active++
	b.mu.Unlock()
}

func (b *busyUnion) exit() {
	b.mu.Lock()
	b.active--
	if b.active == 0 {
		b.total += time.Since(b.since)
	}
	b.mu.Unlock()
}

func (b *busyUnion) load() time.Duration {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.total
}

// gcFresh collects garbage so every timed operation starts from the
// same heap state; it runs outside timed regions.
func gcFresh() { runtime.GC() }
