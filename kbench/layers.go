package main

import (
	"errors"
	"net/http"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"kanon/internal/metric"
	"kanon/internal/store"
)

// countingKernel times and counts every query cover makes of a
// *metric.BitKernel. It wraps only the bitset kernel: cover picks its
// dense path by type-checking *metric.Matrix, so a wrapped Matrix would
// run a different program. It also implements metric.RowFiller, which
// cover's matrix-free path takes by type assertion.
type countingKernel struct {
	*metric.BitKernel
	rowCalls, rowNS   atomic.Int64
	distCalls, distNS atomic.Int64
	busy              busyUnion
}

var _ metric.RowFiller = (*countingKernel)(nil)

func (c *countingKernel) DistRow(center int, out []int32) {
	c.busy.enter()
	t := time.Now()
	c.BitKernel.DistRow(center, out)
	c.rowNS.Add(int64(time.Since(t)))
	c.rowCalls.Add(1)
	c.busy.exit()
}

// query times one pairwise-distance query (Dist, Diameter, Ball, ...).
func (c *countingKernel) query(fn func()) {
	c.busy.enter()
	t := time.Now()
	fn()
	c.distNS.Add(int64(time.Since(t)))
	c.distCalls.Add(1)
	c.busy.exit()
}

func (c *countingKernel) Dist(i, j int) (d int) {
	c.query(func() { d = c.BitKernel.Dist(i, j) })
	return d
}

func (c *countingKernel) Diameter(indices []int) (d int) {
	c.query(func() { d = c.BitKernel.Diameter(indices) })
	return d
}

func (c *countingKernel) DiameterWith(indices []int, current, extra int) (d int) {
	c.query(func() { d = c.BitKernel.DiameterWith(indices, current, extra) })
	return d
}

func (c *countingKernel) Ball(center, radius int) (out []int) {
	c.query(func() { out = c.BitKernel.Ball(center, radius) })
	return out
}

func (c *countingKernel) KthNearest(r int) (out []int) {
	c.query(func() { out = c.BitKernel.KthNearest(r) })
	return out
}

// storeTimer is a store.Backend that times the file primitives the job
// store drives. Every node of the service workload opens its store over
// one of these around store.NewLocal.
type storeTimer struct {
	store.Backend
	rec *recorder

	mu                  sync.Mutex
	writeMS             []float64
	writeBytes          int64
	reads, readBytes    int64
	lists               int
	listDur             time.Duration
	lockCalls, lockBusy int
}

// reset drops what was recorded so far (the warm-up's traffic).
func (s *storeTimer) reset() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.writeMS, s.writeBytes, s.reads, s.readBytes = nil, 0, 0, 0
	s.lists, s.listDur, s.lockCalls, s.lockBusy = 0, 0, 0, 0
}

func (s *storeTimer) WriteAtomic(rel string, data []byte) error {
	id := s.rec.start("store.write_atomic", 0, "")
	t := time.Now()
	err := s.Backend.WriteAtomic(rel, data)
	d := time.Since(t)
	s.rec.end(id)
	s.mu.Lock()
	s.writeMS = append(s.writeMS, ms(d))
	s.writeBytes += int64(len(data))
	s.mu.Unlock()
	return err
}

func (s *storeTimer) ReadFile(rel string) ([]byte, error) {
	id := s.rec.start("store.read", 0, "")
	b, err := s.Backend.ReadFile(rel)
	s.rec.end(id)
	s.mu.Lock()
	s.reads++
	s.readBytes += int64(len(b))
	s.mu.Unlock()
	return b, err
}

func (s *storeTimer) List(rel string) ([]store.Entry, error) {
	id := s.rec.start("store.list", 0, "")
	t := time.Now()
	e, err := s.Backend.List(rel)
	d := time.Since(t)
	s.rec.end(id)
	s.mu.Lock()
	s.lists++
	s.listDur += d
	s.mu.Unlock()
	return e, err
}

func (s *storeTimer) TryLock(rel string) error {
	err := s.Backend.TryLock(rel)
	s.mu.Lock()
	s.lockCalls++
	if errors.Is(err, os.ErrExist) {
		s.lockBusy++
	}
	s.mu.Unlock()
	return err
}

// handlerTimer wraps one node's HTTP handler: it times every request,
// keyed by the id the client attached (the Idempotency-Key of a submit,
// the breq query parameter of a read), so the router's share of a
// request can be computed as client time minus handler time.
type handlerTimer struct {
	node string
	h    http.Handler
	rec  *recorder

	mu       sync.Mutex
	byReq    map[string]time.Duration
	submitMS []float64
	resultMS []float64
	n429     int
	n5xx     int
}

func newHandlerTimer(node string, h http.Handler, rec *recorder) *handlerTimer {
	return &handlerTimer{node: node, h: h, rec: rec, byReq: map[string]time.Duration{}}
}

// reset drops what was recorded so far (the warm-up's traffic).
func (t *handlerTimer) reset() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.byReq = map[string]time.Duration{}
	t.submitMS, t.resultMS, t.n429, t.n5xx = nil, nil, 0, 0
}

type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

func (t *handlerTimer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	req := r.URL.Query().Get("breq")
	if r.Method == http.MethodPost {
		req = r.Header.Get("Idempotency-Key")
	}
	id := t.rec.start("server.handle@"+t.node, 0, req)
	sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
	start := time.Now()
	t.h.ServeHTTP(sw, r)
	d := time.Since(start)
	t.rec.end(id)

	t.mu.Lock()
	defer t.mu.Unlock()
	if req != "" {
		t.byReq[req] = d
	}
	switch {
	case r.Method == http.MethodPost && r.URL.Path == "/v1/jobs":
		t.submitMS = append(t.submitMS, ms(d))
	case r.Method == http.MethodGet && strings.HasSuffix(r.URL.Path, "/result") && sw.code == http.StatusOK:
		t.resultMS = append(t.resultMS, ms(d))
	}
	switch {
	case sw.code == http.StatusTooManyRequests:
		t.n429++
	case sw.code >= 500:
		t.n5xx++
	}
}

// handlerTime returns the node-side time of the request with id req.
func (t *handlerTimer) handlerTime(req string) (time.Duration, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	d, ok := t.byReq[req]
	return d, ok
}
