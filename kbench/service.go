package main

import (
	"bytes"
	"container/heap"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"kanon/internal/dataset"
	"kanon/internal/relation"
	"kanon/internal/server"
	"kanon/internal/store"
	"kanon/internal/stream"
)

// Service workload shape. Every job is a small distinct census table
// streamed in blocks of svcBlock rows, so each job commits several
// checkpoints; the solves are tiny and the HTTP, lease, store and
// router hops dominate.
const (
	svcRows  = 400
	svcCols  = 8
	svcK     = 3
	svcBlock = 100
	svcQuery = "k=3&block=100&workers=1"
	svcNodes = 2
	svcPoll  = 5 * time.Millisecond
	// svcNominalRate is the open-loop rate the latency metrics are
	// measured at; the nominal phase runs for svcNominalShare of the
	// timed budget and must hold at least svcMinJobs submissions.
	svcNominalRate  = 10.0
	svcNominalShare = 0.82
	svcMinJobs      = 200
	// svcP95LimitMS is the latency limit behind service.slo_jobs_per_s.
	svcP95LimitMS = 500.0
	// svcMaxBacklog stops a ladder rung before the cluster queue (64
	// jobs) could fill and start refusing work.
	svcMaxBacklog = 40
	// svcJobTimeout fails a job that has no result this long after it
	// was due.
	svcJobTimeout = 20 * time.Second
)

// svcLadder is the fixed rate ladder (jobs/s) above the nominal rate;
// service.slo_jobs_per_s is the measured completion rate of the highest
// rung, nominal included, that meets svcP95LimitMS without a growing
// backlog.
var svcLadder = []float64{20, 40}

type clusterNode struct {
	srv   *server.Server
	hs    *http.Server
	url   string
	done  chan struct{}
	timer *handlerTimer
	store *storeTimer
}

type serviceBench struct {
	cfg    config
	jobs   [][]byte // CSV request bodies, in schedule order
	nJobs  int
	phases []phase

	rec       *recorder // non-nil while a traced cluster runs
	dir       string
	nodes     []*clusterNode
	router    *exec.Cmd
	routerURL string
	client    *http.Client
	tag       int
}

// phase is one constant-rate stretch of the open-loop schedule: jobs
// [first, first+count) due every 1/rate seconds.
type phase struct {
	rate         float64
	first, count int
}

func newService(cfg config) workload {
	s := &serviceBench{cfg: cfg}
	budget := cfg.seconds
	nominal := budget * svcNominalShare
	rates := append([]float64{svcNominalRate}, svcLadder...)
	if cfg.tiny {
		rates = []float64{20, 40}
	}
	rung := (budget - nominal) / float64(len(rates)-1)
	first := 0
	for i, r := range rates {
		d := rung
		if i == 0 {
			d = nominal
		}
		n := int(math.Round(r * d))
		s.phases = append(s.phases, phase{rate: r, first: first, count: n})
		first += n
	}
	s.nJobs = first
	return s
}

// svcTable generates job i's input table from the run seed.
func svcTable(seed int64, i int) *relation.Table {
	return dataset.Census(rand.New(rand.NewSource(seed*1_000_003+int64(i))), svcRows, svcCols)
}

func (s *serviceBench) setup() error {
	if !s.cfg.tiny && s.phases[0].count < svcMinJobs {
		return fmt.Errorf("nominal phase has %d jobs, need %d for a p95 with 10 samples beyond it", s.phases[0].count, svcMinJobs)
	}
	s.jobs = make([][]byte, s.nJobs)
	for i := range s.jobs {
		s.jobs[i] = tableCSV(svcTable(s.cfg.seed, i))
	}
	if err := s.start(nil); err != nil {
		return err
	}
	return s.warmUp()
}

// start brings up the two nodes (in process, sharing one data dir) and
// the router process. With rec set every node's handler and store are
// wrapped in timers that record into it.
func (s *serviceBench) start(rec *recorder) error {
	s.tag++
	s.rec = rec
	s.dir = filepath.Join(s.cfg.workDir, fmt.Sprintf("cluster-%d", s.tag))
	if s.cfg.routerBin == "" {
		return errors.New("service_jobs needs -router-bin")
	}
	var urls []string
	for i := 0; i < svcNodes; i++ {
		n, err := s.startNode(fmt.Sprintf("node-%c", 'a'+i))
		if err != nil {
			return err
		}
		urls = append(urls, n.url)
	}
	cmd := exec.Command(s.cfg.routerBin, "-addr", "127.0.0.1:0", "-peers", strings.Join(urls, ","))
	banner := &bannerWriter{line: make(chan string, 1)}
	cmd.Stdout, cmd.Stderr = banner, os.Stderr
	cmd.SysProcAttr = childAttr()
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("starting kanon-router: %w", err)
	}
	s.router = cmd
	var line string
	select {
	case line = <-banner.line:
	case <-time.After(10 * time.Second):
		return errors.New("kanon-router did not report its address")
	}
	// "kanon-router listening on 127.0.0.1:PORT, 2 peers"
	f := strings.Fields(line)
	if len(f) < 4 {
		return fmt.Errorf("unexpected kanon-router banner %q", line)
	}
	s.routerURL = "http://" + strings.TrimSuffix(f[3], ",")
	s.client = &http.Client{
		Timeout:   10 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: s.cfg.workers, MaxIdleConnsPerHost: s.cfg.workers},
	}
	return nil
}

// bannerWriter is the router's standard output: it hands the first
// line (the listening banner) to line and discards the rest.
type bannerWriter struct {
	buf  bytes.Buffer
	sent bool
	line chan string
}

func (w *bannerWriter) Write(p []byte) (int, error) {
	if !w.sent {
		w.buf.Write(p)
		if i := bytes.IndexByte(w.buf.Bytes(), '\n'); i >= 0 {
			w.line <- w.buf.String()[:i]
			w.sent = true
		}
	}
	return len(p), nil
}

func (s *serviceBench) startNode(id string) (*clusterNode, error) {
	local, err := store.NewLocal(s.dir)
	if err != nil {
		return nil, err
	}
	n := &clusterNode{done: make(chan struct{})}
	var be store.Backend = local
	if s.rec != nil {
		n.store = &storeTimer{Backend: local, rec: s.rec}
		be = n.store
	}
	st, err := store.OpenBackend(be)
	if err != nil {
		return nil, err
	}
	n.srv = server.New(server.Config{Workers: 1, Store: st, NodeID: id})
	var h http.Handler = n.srv
	if s.rec != nil {
		n.timer = newHandlerTimer(id, n.srv, s.rec)
		h = n.timer
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = n.srv.Shutdown(context.Background())
		return nil, err
	}
	n.url = "http://" + ln.Addr().String()
	n.hs = &http.Server{Handler: h}
	go func() {
		defer close(n.done)
		_ = n.hs.Serve(ln) // returns ErrServerClosed on shutdown
	}()
	s.nodes = append(s.nodes, n)
	return n, nil
}

// stop shuts the router and the nodes down and waits for each to end.
func (s *serviceBench) stop() {
	if s.router != nil {
		_ = s.router.Process.Signal(syscall.SIGTERM)
		done := make(chan struct{})
		go func() { _ = s.router.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			_ = s.router.Process.Kill()
			<-done
		}
		s.router = nil
	}
	for _, n := range s.nodes {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		_ = n.srv.Shutdown(ctx)
		_ = n.hs.Shutdown(ctx)
		cancel()
		<-n.done
	}
	s.nodes = nil
	if s.client != nil {
		s.client.CloseIdleConnections()
	}
	if s.dir != "" {
		_ = os.RemoveAll(s.dir)
	}
}

func (s *serviceBench) close() { s.stop() }

// warmUp pushes a few jobs through the router so connections, the
// store layout and both nodes' code paths are live before timing.
func (s *serviceBench) warmUp() error {
	for i := 0; i < 4; i++ {
		body := tableCSV(svcTable(-s.cfg.seed-1, i))
		id, code, err := s.submit(fmt.Sprintf("warm-%d-%d", s.tag, i), body)
		if err != nil || code != http.StatusAccepted {
			return fmt.Errorf("warm-up submit: code %d: %v", code, err)
		}
		deadline := time.Now().Add(svcJobTimeout)
		for {
			code, _, err := s.get("/v1/jobs/"+id+"/result", "")
			if err != nil {
				return err
			}
			if code == http.StatusOK {
				break
			}
			if code != http.StatusConflict || time.Now().After(deadline) {
				return fmt.Errorf("warm-up job %s: result code %d", id, code)
			}
			time.Sleep(svcPoll)
		}
	}
	return nil
}

func (s *serviceBench) submit(key string, body []byte) (id string, code int, err error) {
	req, err := http.NewRequest(http.MethodPost, s.routerURL+"/v1/jobs?"+svcQuery, bytes.NewReader(body))
	if err != nil {
		return "", 0, err
	}
	req.Header.Set("Content-Type", "text/csv")
	req.Header.Set("Idempotency-Key", key)
	resp, err := s.client.Do(req)
	if err != nil {
		return "", 0, err
	}
	defer resp.Body.Close()
	var st struct {
		ID string `json:"id"`
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", resp.StatusCode, err
	}
	if resp.StatusCode == http.StatusAccepted {
		if err := json.Unmarshal(b, &st); err != nil || st.ID == "" {
			return "", resp.StatusCode, fmt.Errorf("submit answer %q: %v", b, err)
		}
	}
	return st.ID, resp.StatusCode, nil
}

// get fetches path through the router, tagging it with breq so the
// node's handler timer can match it.
func (s *serviceBench) get(path, breq string) (int, []byte, error) {
	u := s.routerURL + path
	if breq != "" {
		u += "?breq=" + breq
	}
	resp, err := s.client.Get(u)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// ---- open-loop load generator ----------------------------------------

type taskKind int

const (
	taskSubmit taskKind = iota
	taskPoll
	taskRead
)

type task struct {
	due  time.Time
	kind taskKind
	job  int
	seq  int // tie-break: insertion order
}

type taskHeap []task

func (h taskHeap) Len() int { return len(h) }
func (h taskHeap) Less(i, j int) bool {
	if !h[i].due.Equal(h[j].due) {
		return h[i].due.Before(h[j].due)
	}
	return h[i].seq < h[j].seq
}
func (h taskHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *taskHeap) Push(x any)   { *h = append(*h, x.(task)) }
func (h *taskHeap) Pop() any {
	old := *h
	t := old[len(old)-1]
	*h = old[:len(old)-1]
	return t
}

// jobRec is what the client saw of one job.
type jobRec struct {
	due, sent, done time.Time
	id              string
	key             string
	result          []byte
	polls           int
	failed          bool
	skipped         bool // never sent: its rung was stopped early
	rung            int
}

// reqSample pairs a client-observed request time with its id, for the
// router-hop computation.
type reqSample struct {
	req    string
	client time.Duration
}

// readRec is one read of an earlier job's events and result.
type readRec struct {
	job    int
	result []byte
}

// loadRun is the shared state of one open-loop run.
type loadRun struct {
	s                 *serviceBench
	mu                sync.Mutex
	tasks             taskHeap
	seq               int
	jobs              []jobRec
	open              int // sent, not yet finished
	stop              []bool
	reads             []readRec
	reqs              []reqSample
	attempted, failed int
	lastDone          int // most recent finished job, -1 if none
	breq              int
}

func (l *loadRun) push(t task) {
	t.seq = l.seq
	l.seq++
	heap.Push(&l.tasks, t)
}

// runLoad drives the given phases open-loop from nproc client
// goroutines and returns once every sent job has finished or timed out.
// Rungs after the first stop early (and count as failing) when the
// backlog passes svcMaxBacklog.
func (s *serviceBench) runLoad(phases []phase) *loadRun {
	l := &loadRun{s: s, lastDone: -1, stop: make([]bool, len(phases))}
	l.jobs = make([]jobRec, s.nJobs)
	start := time.Now().Add(20 * time.Millisecond)
	at := start
	for pi, p := range phases {
		for j := 0; j < p.count; j++ {
			i := p.first + j
			l.jobs[i] = jobRec{due: at, rung: pi, key: fmt.Sprintf("kb%d-%d-%d", s.cfg.seed, s.tag, i)}
			l.push(task{due: at, kind: taskSubmit, job: i})
			at = at.Add(time.Duration(float64(time.Second) / p.rate))
		}
	}
	var wg sync.WaitGroup
	for c := 0; c < s.cfg.workers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			l.client()
		}()
	}
	wg.Wait()
	return l
}

// client executes due tasks until none remain.
func (l *loadRun) client() {
	for {
		l.mu.Lock()
		if l.tasks.Len() == 0 {
			l.mu.Unlock()
			return
		}
		next := l.tasks[0]
		if wait := time.Until(next.due); wait > 0 {
			l.mu.Unlock()
			time.Sleep(min(wait, time.Millisecond))
			continue
		}
		heap.Pop(&l.tasks)
		l.mu.Unlock()
		switch next.kind {
		case taskSubmit:
			l.doSubmit(next.job)
		case taskPoll:
			l.doPoll(next.job)
		case taskRead:
			l.doRead(next.job)
		}
	}
}

func (l *loadRun) doSubmit(i int) {
	l.mu.Lock()
	j := &l.jobs[i]
	if l.stop[j.rung] {
		j.skipped = true
		l.mu.Unlock()
		return
	}
	if j.rung > 0 && l.open >= svcMaxBacklog {
		// This rung failed; no higher one can pass.
		for r := j.rung; r < len(l.stop); r++ {
			l.stop[r] = true
		}
		j.skipped = true
		l.mu.Unlock()
		return
	}
	l.open++
	l.attempted++
	key := j.key
	l.mu.Unlock()

	span := l.s.rec.start("client.submit", 0, key)
	sent := time.Now()
	id, code, err := l.s.submit(key, l.s.jobs[i])
	d := time.Since(sent)
	l.s.rec.end(span)

	l.mu.Lock()
	defer l.mu.Unlock()
	j.sent = sent
	l.reqs = append(l.reqs, reqSample{key, d})
	if err != nil || code != http.StatusAccepted {
		fmt.Fprintf(os.Stderr, "kbench: job %d submit: code %d: %v\n", i, code, err)
		l.finish(i, true)
		return
	}
	j.id = id
	l.push(task{due: time.Now().Add(svcPoll), kind: taskPoll, job: i})
	if l.lastDone >= 0 {
		l.push(task{due: time.Now(), kind: taskRead, job: l.lastDone})
	}
}

// finish marks job i done (or failed); the caller holds l.mu.
func (l *loadRun) finish(i int, failed bool) {
	j := &l.jobs[i]
	j.done = time.Now()
	j.failed = failed
	l.open--
	if failed {
		l.failed++
	} else {
		l.lastDone = i
	}
}

func (l *loadRun) nextReq() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.breq++
	return fmt.Sprintf("r%d-%d", l.s.tag, l.breq)
}

func (l *loadRun) doPoll(i int) {
	l.mu.Lock()
	id := l.jobs[i].id
	l.mu.Unlock()
	breq := l.nextReq()
	span := l.s.rec.start("client.poll", 0, breq)
	t := time.Now()
	code, body, err := l.s.get("/v1/jobs/"+id+"/result", breq)
	d := time.Since(t)
	l.s.rec.end(span)

	l.mu.Lock()
	defer l.mu.Unlock()
	j := &l.jobs[i]
	j.polls++
	l.reqs = append(l.reqs, reqSample{breq, d})
	switch {
	case err == nil && code == http.StatusOK:
		j.result = body
		l.finish(i, false)
	case err == nil && code == http.StatusConflict && time.Since(j.due) < svcJobTimeout:
		l.push(task{due: time.Now().Add(svcPoll), kind: taskPoll, job: i})
	default:
		fmt.Fprintf(os.Stderr, "kbench: job %d result: code %d: %v\n", i, code, err)
		l.finish(i, true)
	}
}

// doRead fetches an earlier job's journal and result, as a user
// checking on past work would.
func (l *loadRun) doRead(i int) {
	l.mu.Lock()
	id := l.jobs[i].id
	l.attempted++
	l.mu.Unlock()
	ok := true
	breq := l.nextReq()
	span := l.s.rec.start("client.events", 0, breq)
	t := time.Now()
	code, body, err := l.s.get("/v1/jobs/"+id+"/events", breq)
	d := time.Since(t)
	l.s.rec.end(span)
	var events []struct {
		Event string `json:"event"`
	}
	if err != nil || code != http.StatusOK || json.Unmarshal(body, &events) != nil || len(events) == 0 {
		fmt.Fprintf(os.Stderr, "kbench: job %d events: code %d: %v\n", i, code, err)
		ok = false
	}
	breq2 := l.nextReq()
	span = l.s.rec.start("client.reread", 0, breq2)
	t2 := time.Now()
	code2, result, err := l.s.get("/v1/jobs/"+id+"/result", breq2)
	d2 := time.Since(t2)
	l.s.rec.end(span)
	if err != nil || code2 != http.StatusOK {
		fmt.Fprintf(os.Stderr, "kbench: job %d re-read result: code %d: %v\n", i, code2, err)
		ok = false
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.reqs = append(l.reqs, reqSample{breq, d}, reqSample{breq2, d2})
	if !ok {
		l.failed++
		return
	}
	l.reads = append(l.reads, readRec{job: i, result: result})
}

// ---- checking and metrics ----------------------------------------------

// reference computes job i's expected result bytes and cost in process:
// the stream pipeline the service runs for a block request, fed the
// same parsed CSV. The facade has no block option, so the reference is
// stream.Anonymize itself, as cmd/kanon's -block path calls it.
func (s *serviceBench) reference(i int) ([]byte, int, error) {
	header, rows, err := relation.ReadCSVRows(bytes.NewReader(s.jobs[i]))
	if err != nil {
		return nil, 0, err
	}
	t := relation.NewTable(relation.NewSchema(header...))
	for _, r := range rows {
		if err := t.AppendStrings(r...); err != nil {
			return nil, 0, err
		}
	}
	sr, err := stream.Anonymize(t, svcK, &stream.Options{BlockRows: svcBlock, Workers: 1})
	if err != nil {
		return nil, 0, err
	}
	out := make([][]string, sr.Anonymized.Len())
	for r := range out {
		out[r] = sr.Anonymized.Strings(r)
	}
	var b bytes.Buffer
	_ = relation.WriteCSVRows(&b, header, out)
	return b.Bytes(), sr.Cost, nil
}

// verify checks every result the client received (polled and re-read)
// against the in-process reference, computed on nproc goroutines, and
// returns the summed cost of the first-phase jobs.
func (s *serviceBench) verify(l *loadRun, rep *report) int {
	type ref struct {
		csv  []byte
		cost int
		err  error
	}
	refs := make([]ref, len(l.jobs))
	var done []int
	for i, j := range l.jobs {
		if !j.sent.IsZero() && !j.skipped && !j.failed {
			done = append(done, i)
		}
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < s.cfg.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := int(next.Add(1)) - 1; k < len(done); k = int(next.Add(1)) - 1 {
				r := &refs[done[k]]
				r.csv, r.cost, r.err = s.reference(done[k])
			}
		}()
	}
	wg.Wait()
	check := func(i int, got []byte) {
		switch r := refs[i]; {
		case r.err != nil:
			rep.fail("job %d reference: %v", i, r.err)
		case !bytes.Equal(got, r.csv):
			rep.fail("job %d: service result differs from the in-process solve", i)
		}
	}
	cost := 0
	for _, i := range done {
		check(i, l.jobs[i].result)
		if l.jobs[i].rung == 0 {
			cost += refs[i].cost
		}
	}
	for _, r := range l.reads {
		check(r.job, r.result)
	}
	return cost
}

// rungStats summarizes one phase: latencies (due → result) of its jobs,
// its completion rate, and whether it met the latency limit without a
// growing backlog.
type rungStats struct {
	lat     []float64
	jobs    int
	rate    float64
	elapsed float64
	passed  bool
}

func (l *loadRun) rung(p phase) rungStats {
	var rs rungStats
	var first, last, lastDue time.Time
	behind := 0
	for i := p.first; i < p.first+p.count; i++ {
		j := l.jobs[i]
		if j.skipped {
			return rs // stopped early: backlog passed svcMaxBacklog
		}
		if j.failed {
			continue
		}
		rs.lat = append(rs.lat, ms(j.done.Sub(j.due)))
		rs.jobs++
		if first.IsZero() || j.due.Before(first) {
			first = j.due
		}
		if j.done.After(last) {
			last = j.done
		}
		if j.due.After(lastDue) {
			lastDue = j.due
		}
	}
	if rs.jobs == 0 {
		return rs
	}
	// Backlog at the end of the rung's send window: jobs due by then
	// that were still unfinished.
	for i := p.first; i < p.first+p.count; i++ {
		if j := l.jobs[i]; !j.failed && j.done.After(lastDue) {
			behind++
		}
	}
	rs.elapsed = last.Sub(first).Seconds()
	rs.rate = float64(rs.jobs) / rs.elapsed
	allowed := max(2, int(math.Ceil(p.rate*svcP95LimitMS/1000)))
	rs.passed = rs.jobs == p.count && quantile(rs.lat, 0.95) <= svcP95LimitMS && behind <= allowed
	return rs
}

func (s *serviceBench) measure() (*report, error) {
	rep := newReport()
	hs := startHeapSampler(time.Millisecond)
	hs.active.Store(true)
	l := s.runLoad(s.phases)
	peak := hs.stopPeak()
	rep.attempted, rep.failed = l.attempted, l.failed
	cost := s.verify(l, rep)
	nom := l.rung(s.phases[0])
	if nom.jobs == 0 {
		return nil, errors.New("no nominal-phase job completed")
	}
	rep.values["rows_per_s"] = float64(nom.jobs*svcRows) / nom.elapsed
	rep.values["release_cost"] = float64(cost)
	rep.values["peak_heap_bytes"] = peak
	return rep, nil
}

// latencyValues records the job latencies of the nominal phase and the
// SLO rate: the measured completion rate of the highest rung, nominal
// included, that met svcP95LimitMS without a growing backlog.
func (s *serviceBench) latencyValues(l *loadRun, v map[string]float64) {
	nom := l.rung(s.phases[0])
	v["service.job_latency_p50_ms"] = median(nom.lat)
	v["service.job_latency_p95_ms"] = quantile(nom.lat, 0.95)
	slo := nom.rate // below the offered rate when even nominal misses the limit
	for _, p := range s.phases {
		rs := l.rung(p)
		fmt.Fprintf(os.Stderr, "kbench: rung %.0f jobs/s: passed=%v, completed %.1f jobs/s, p50 %.1f ms, p95 %.1f ms\n",
			p.rate, rs.passed, rs.rate, median(rs.lat), quantile(rs.lat, 0.95))
		if !rs.passed {
			break
		}
		slo = rs.rate
	}
	v["service.slo_jobs_per_s"] = slo
}

// traced runs the whole schedule untraced on the cluster set up by
// setup (the latency and SLO metrics, measured with nothing wrapped),
// then the nominal phase on a fresh cluster whose handlers and stores
// are wrapped in timers, and reports that pass's per-layer metrics.
func (s *serviceBench) traced(rec *recorder) (*report, error) {
	rep := newReport()
	plain := s.runLoad(s.phases)
	s.verify(plain, rep)
	s.latencyValues(plain, rep.values)
	s.stop()
	if err := s.start(rec); err != nil {
		return nil, err
	}
	if err := s.warmUp(); err != nil {
		return nil, err
	}
	for _, n := range s.nodes {
		n.timer.reset()
		n.store.reset()
	}
	nominal := s.phases[:1]
	l := s.runLoad(nominal)
	s.verify(l, rep)
	rep.attempted += plain.attempted + l.attempted
	rep.failed += plain.failed + l.failed

	a, b := plain.rung(nominal[0]), l.rung(nominal[0])
	if a.jobs > 0 && b.jobs > 0 {
		rep.values["bench.trace_overhead_ratio"] = median(b.lat) / median(a.lat)
	}
	s.layerValues(l, rep.values)
	return rep, nil
}

// layerValues computes the server, store, router and load-generator
// metrics of a traced run.
func (s *serviceBench) layerValues(l *loadRun, v map[string]float64) {
	// Snapshot the timers first: the status lookups below read through
	// the store and would count as load.
	var submit, result []float64
	var n429, n5xx int
	var writes []float64
	var writeBytes, reads, readBytes int64
	var lists, locks, busy int
	var listDur time.Duration
	for _, n := range s.nodes {
		t, st := n.timer, n.store
		t.mu.Lock()
		submit = append(submit, t.submitMS...)
		result = append(result, t.resultMS...)
		n429 += t.n429
		n5xx += t.n5xx
		t.mu.Unlock()
		st.mu.Lock()
		writes = append(writes, st.writeMS...)
		writeBytes += st.writeBytes
		reads += st.reads
		readBytes += st.readBytes
		lists += st.lists
		listDur += st.listDur
		locks += st.lockCalls
		busy += st.lockBusy
		st.mu.Unlock()
	}
	var queue, run, lag, late []float64
	perNode := map[string]int{}
	jobs, polls := 0, 0
	for _, j := range l.jobs {
		if j.skipped || j.sent.IsZero() {
			continue
		}
		late = append(late, ms(j.sent.Sub(j.due)))
		if j.failed {
			continue
		}
		jobs++
		polls += j.polls
		st, ok := s.nodes[0].srv.Manager().StatusOf(j.id)
		if !ok || st.StartedAt == nil || st.FinishedAt == nil {
			continue
		}
		queue = append(queue, ms(st.StartedAt.Sub(st.SubmittedAt)))
		run = append(run, ms(st.FinishedAt.Sub(*st.StartedAt)))
		lag = append(lag, ms(j.done.Sub(*st.FinishedAt)))
		perNode[st.Node]++
	}
	var forward []float64
	for _, r := range l.reqs {
		for _, n := range s.nodes {
			if d, ok := n.timer.handlerTime(r.req); ok {
				forward = append(forward, ms(r.client-d))
				break
			}
		}
	}
	perJob := func(x float64) float64 {
		if jobs == 0 {
			return 0
		}
		return x / float64(jobs)
	}
	v["server.submit_ms_p50"] = median(submit)
	v["server.submit_ms_p95"] = quantile(submit, 0.95)
	v["server.queue_wait_ms_p50"] = median(queue)
	v["server.queue_wait_ms_p95"] = quantile(queue, 0.95)
	v["server.run_ms_p50"] = median(run)
	v["server.result_ms_p50"] = median(result)
	v["server.polls_per_job"] = perJob(float64(polls))
	v["server.rejected_429"] = float64(n429)
	v["server.errors_5xx"] = float64(n5xx)
	most, total := 0, 0
	for _, c := range perNode {
		most = max(most, c)
		total += c
	}
	if total > 0 {
		// Share of jobs above an even split on the busiest node: 0 is
		// perfectly even, 1-1/nodes means one node ran everything.
		v["server.node_skew"] = float64(most)/float64(total) - 1/float64(svcNodes)
	}
	v["store.write_atomic_calls_per_job"] = perJob(float64(len(writes)))
	v["store.write_atomic_ms_p50"] = median(writes)
	v["store.write_atomic_ms_p95"] = quantile(writes, 0.95)
	v["store.write_bytes_per_job"] = perJob(float64(writeBytes))
	v["store.read_calls_per_job"] = perJob(float64(reads))
	v["store.read_bytes_per_job"] = perJob(float64(readBytes))
	v["store.list_calls"] = float64(lists)
	v["store.list_ms"] = ms(listDur)
	v["store.trylock_calls"] = float64(locks)
	if locks > 0 {
		v["store.trylock_busy_ratio"] = float64(busy) / float64(locks)
	}
	v["router.forward_ms_p50"] = median(forward)
	v["router.forward_ms_p95"] = quantile(forward, 0.95)
	v["loadgen.lateness_ms_p95"] = quantile(late, 0.95)
	v["loadgen.lateness_ms_max"] = maxOf(late)
	v["job.poll_lag_ms_p50"] = median(lag)
}
