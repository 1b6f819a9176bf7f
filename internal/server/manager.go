package server

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"path"
	"runtime"
	"strings"
	"sync"
	"time"

	"kanon"
	"kanon/internal/core"
	"kanon/internal/metric"
	"kanon/internal/obs"
	"kanon/internal/relation"
	"kanon/internal/store"
	"kanon/internal/stream"
)

// Config tunes the job manager and HTTP server. The zero value is
// usable: every field has a production-shaped default.
type Config struct {
	// QueueCapacity bounds the admission queue: the queued jobs in the
	// store, across every node sharing it. Submissions beyond it are
	// rejected with ErrQueueFull (HTTP 429). Default 64.
	QueueCapacity int
	// Workers is how many jobs run concurrently. Default half the CPUs
	// (each job may itself parallelize via its Workers knob).
	Workers int
	// JobTimeout is the per-job deadline, and the ceiling for
	// client-requested timeouts. Default 5m.
	JobTimeout time.Duration
	// ResultTTL is how long a terminal job (result or error) stays
	// retrievable before the janitor evicts it. Default 15m.
	ResultTTL time.Duration
	// MaxBodyBytes bounds the CSV request body. Default 32 MiB.
	MaxBodyBytes int64
	// RetryAfter is the hint returned with 429 responses. Default 1s.
	RetryAfter time.Duration
	// Kernel is the distance-kernel backend for jobs whose submission
	// does not name one. The zero value (kanon.KernelAuto) sizes the
	// choice to each job's table; output is identical either way.
	Kernel kanon.Kernel
	// Log receives structured job lifecycle events (with each job's ID
	// as run_id); nil is silent.
	Log *slog.Logger
	// Store holds every job: request table, lifecycle manifest, result
	// spool, journal, trace, and per-block checkpoints for stream jobs.
	// Its manifests are the queue the manager claims from. A disk store
	// makes admitted work survive a crash: a restart re-claims it and
	// stream jobs resume from their last committed block. Nil runs over
	// a fresh in-process store, so nothing survives the process.
	Store *store.Store
	// NodeID names this manager in the leases it takes. Managers with
	// distinct NodeIDs sharing one store drain its queue together and
	// steal work from crashed peers once their leases expire. Empty runs
	// a cluster of one: leases are taken under an internal name, and
	// status, health, and traces report no node.
	NodeID string
	// LeaseTTL is how long a claimed job's lease lasts between
	// renewals (which happen at TTL/3). It is the crash-failover knob:
	// a dead node's jobs become stealable one TTL after its last
	// renewal. A restarted node re-claims its own previous life's jobs
	// at once. Default 15s.
	LeaseTTL time.Duration
	// ClaimInterval bounds how long a node waits before re-scanning the
	// store for claimable work it was not poked about (foreign
	// submissions, expired leases). Default LeaseTTL/5, clamped to
	// [50ms, 2s].
	ClaimInterval time.Duration
}

// localNode is the lease name of a manager without a NodeID. It is not
// an identity: status and health report it as no node at all.
const localNode = "local"

// nodeLabel is the observable name of a lease holder.
func nodeLabel(node string) string {
	if node == localNode {
		return ""
	}
	return node
}

// withDefaults resolves zero fields to their documented defaults.
func (c Config) withDefaults() Config {
	if c.QueueCapacity <= 0 {
		c.QueueCapacity = 64
	}
	if c.Workers <= 0 {
		c.Workers = max(1, runtime.NumCPU()/2)
	}
	if c.JobTimeout <= 0 {
		c.JobTimeout = 5 * time.Minute
	}
	if c.ResultTTL <= 0 {
		c.ResultTTL = 15 * time.Minute
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 32 << 20
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.LeaseTTL <= 0 {
		c.LeaseTTL = 15 * time.Second
	}
	if c.ClaimInterval <= 0 {
		c.ClaimInterval = min(max(c.LeaseTTL/5, 50*time.Millisecond), 2*time.Second)
	}
	if c.Store == nil {
		// Creating the jobs directory in memory cannot fail.
		c.Store, _ = store.OpenBackend(store.NewMemory())
	}
	return c
}

// Admission-control errors, surfaced by Submit and mapped to HTTP
// status codes by the handlers.
var (
	// ErrQueueFull means the bounded queue is at capacity (HTTP 429).
	ErrQueueFull = errors.New("server: job queue full")
	// ErrDraining means the server is shutting down and no longer
	// admits work (HTTP 503).
	ErrDraining = errors.New("server: draining, not accepting jobs")
	// ErrStore means the job store could not persist an admitted job;
	// the job is withdrawn rather than accepted with a broken
	// durability promise (HTTP 500).
	ErrStore = errors.New("server: persisting job")
	// ErrIdempotentReplay means the submission's Idempotency-Key already
	// admitted a job; the caller should look the original up and replay
	// its acceptance instead of reporting an error.
	ErrIdempotentReplay = errors.New("server: idempotency key already used")
)

// Manager owns the claim loop, the worker slots, the local job handles,
// and the server-wide telemetry registry. It is safe for concurrent
// use.
type Manager struct {
	cfg Config
	tr  *obs.Tracer
	// node is the name this manager claims leases under; started is when
	// it came up — a lease under node that began earlier belongs to a
	// previous life of this node and is re-claimed at once.
	node    string
	started time.Time

	baseCtx    context.Context
	baseCancel context.CancelFunc

	mu       sync.Mutex
	jobs     map[string]*Job
	running  map[string]bool // jobs running on this node
	draining bool
	// idem maps Idempotency-Key → job ID for every key-carrying job this
	// node knows. It is the fast path and the same-node race guard;
	// lookups past it scan the store's manifests (which carry the key
	// durably and replicate with everything else).
	idem map[string]string

	// Worker slots as a token bucket, the claim loop's wake-up and exit
	// channels, and the in-flight run group.
	slots     chan struct{}
	claimPoke chan struct{}
	claimDone chan struct{}
	runWG     sync.WaitGroup

	janitorStop chan struct{}
	janitorDone chan struct{}

	// Hoisted instruments (obs lookup takes the registry lock).
	submitted      *obs.Counter
	succeeded      *obs.Counter
	failed         *obs.Counter
	canceled       *obs.Counter
	rejected       *obs.Counter
	expired        *obs.Counter
	recovered      *obs.Counter
	blocksResumed  *obs.Counter
	leasesClaimed  *obs.Counter
	leasesStolen   *obs.Counter
	leasesRenewed  *obs.Counter
	leasesLost     *obs.Counter
	leasesReleased *obs.Counter
	queueDepth     *obs.Gauge
	runningGauge   *obs.Gauge
	queueWait      *obs.Histogram
	jobDur         *obs.Histogram
	jobCost        *obs.Histogram
}

// NewManager starts the claim loop and the TTL janitor. Work already in
// the store is claimed like fresh submissions: queued jobs, expired
// leases, and this node's own leases from before the restart. Call
// Shutdown to stop.
func NewManager(cfg Config) *Manager {
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	tr := obs.New()
	m := &Manager{
		cfg:            cfg,
		tr:             tr,
		node:           cfg.NodeID,
		started:        time.Now(),
		baseCtx:        ctx,
		baseCancel:     cancel,
		jobs:           make(map[string]*Job),
		running:        make(map[string]bool),
		idem:           make(map[string]string),
		slots:          make(chan struct{}, cfg.Workers),
		claimPoke:      make(chan struct{}, 1),
		claimDone:      make(chan struct{}),
		janitorStop:    make(chan struct{}),
		janitorDone:    make(chan struct{}),
		submitted:      tr.Counter("server.jobs_submitted"),
		succeeded:      tr.Counter("server.jobs_succeeded"),
		failed:         tr.Counter("server.jobs_failed"),
		canceled:       tr.Counter("server.jobs_canceled"),
		rejected:       tr.Counter("server.jobs_rejected"),
		expired:        tr.Counter("server.jobs_expired"),
		recovered:      tr.Counter("server.jobs_recovered"),
		blocksResumed:  tr.Counter("server.blocks_resumed"),
		leasesClaimed:  tr.Counter("server.leases_claimed"),
		leasesStolen:   tr.Counter("server.leases_stolen"),
		leasesRenewed:  tr.Counter("server.leases_renewed"),
		leasesLost:     tr.Counter("server.leases_lost"),
		leasesReleased: tr.Counter("server.leases_released"),
		queueDepth:     tr.Gauge("server.queue_depth"),
		runningGauge:   tr.Gauge("server.jobs_running"),
		queueWait:      tr.Histogram("server.queue_wait_ns"),
		jobDur:         tr.Histogram("server.job_duration_ns"),
		jobCost:        tr.Histogram("server.job_cost"),
	}
	if m.node == "" {
		m.node = localNode
	}
	tr.Gauge("server.workers").Set(int64(cfg.Workers))
	for i := 0; i < cfg.Workers; i++ {
		m.slots <- struct{}{}
	}
	go m.claimLoop()
	go m.janitor()
	return m
}

// Snapshot freezes the server-wide telemetry registry — the /metrics
// and /debug/obs source. The snapshot is stamped with this node's ID
// so one scrape identifies the node without a second probe.
func (m *Manager) Snapshot() *obs.Snapshot {
	s := m.tr.Snapshot()
	s.Node = m.cfg.NodeID
	return s
}

// Idempotent resolves an idempotency key to the status of the job it
// admitted, if any — the replay lookup behind duplicate submissions.
// The local table answers for jobs this node has seen; past it the
// store's manifests answer, which covers jobs admitted by peers
// (exactly when the directory is shared, eventually when replicated)
// and by a previous life of this node.
func (m *Manager) Idempotent(key string) (Status, bool) {
	if key == "" {
		return Status{}, false
	}
	m.mu.Lock()
	id, ok := m.idem[key]
	m.mu.Unlock()
	if ok {
		if st, ok := m.StatusOf(id); ok {
			return st, true
		}
	}
	if man, err := m.cfg.Store.FindIdempotent(key); err == nil && man != nil {
		m.mu.Lock()
		m.idem[key] = man.ID
		m.mu.Unlock()
		if st, ok := m.StatusOf(man.ID); ok {
			return st, true
		}
		return statusFromManifest(man), true
	}
	return Status{}, false
}

// reserveIdem claims a key for a submission in flight, so two racing
// duplicates cannot both admit. Returns ErrIdempotentReplay when the
// key is already bound (to a finished admission or a racing one — the
// caller re-resolves via Idempotent either way).
func (m *Manager) reserveIdem(key, id string) error {
	if key == "" {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.idem[key]; ok {
		return ErrIdempotentReplay
	}
	m.idem[key] = id
	return nil
}

// unreserveIdem releases a key whose submission failed admission.
func (m *Manager) unreserveIdem(key, id string) {
	if key == "" {
		return
	}
	m.mu.Lock()
	if m.idem[key] == id {
		delete(m.idem, key)
	}
	m.mu.Unlock()
}

// Submit admits a job: it validates the instance, checks the store-wide
// backlog against QueueCapacity, and writes the job to the store, whose
// manifest is its queue entry; the claim loop takes it from there.
// Rejections are ErrQueueFull, ErrDraining, and ErrStore. The input
// slices are retained; callers must not mutate them afterwards.
func (m *Manager) Submit(header []string, rows [][]string, req JobRequest) (*Job, error) {
	if err := validateInstance(req, len(rows)); err != nil {
		return nil, err
	}
	// Resolve the kernel default at admission so the choice is frozen
	// into the job's manifest: a recovered job re-runs with the kernel
	// it was admitted under even if the server restarts with a
	// different -kernel default.
	if !req.KernelSet {
		req.Kernel, req.KernelSet = m.cfg.Kernel, true
	}
	job := &Job{
		ID:        obs.NewRunID(),
		Req:       req,
		header:    header,
		rows:      rows,
		state:     StateQueued,
		submitted: time.Now(),
		done:      make(chan struct{}),
		admitted:  true,
	}
	if err := m.reserveIdem(req.IdempotencyKey, job.ID); err != nil {
		return nil, err
	}
	if err := m.admit(job); err != nil {
		m.rejected.Inc()
		m.unreserveIdem(req.IdempotencyKey, job.ID)
		return nil, err
	}
	m.submitted.Inc()
	m.log(job, slog.LevelInfo, "job_queued",
		slog.Int("k", req.K), slog.String("algo", req.Algorithm.String()),
		slog.Int("rows", len(rows)), slog.Int("cols", len(header)))
	m.pokeClaim()
	return job, nil
}

// admit enqueues a job in the store. The local handle is in place
// before the manifest exists, so the claim loop runs the very handle
// Submit returns; the drain check comes first, so a job is never
// admitted once Shutdown has begun.
func (m *Manager) admit(job *Job) error {
	// A failed scan reads as empty: the store write below then fails
	// loudly instead.
	if depth, _ := m.ClusterDepths(); depth >= m.cfg.QueueCapacity {
		return fmt.Errorf("%w (backlog %d)", ErrQueueFull, depth)
	}
	m.mu.Lock()
	if m.draining {
		m.mu.Unlock()
		return ErrDraining
	}
	m.jobs[job.ID] = job
	m.mu.Unlock()
	if err := m.cfg.Store.CreateJob(job.manifest(), job.header, job.rows); err != nil {
		m.mu.Lock()
		delete(m.jobs, job.ID)
		m.mu.Unlock()
		m.log(job, slog.LevelWarn, "job_persist_failed", slog.String("error", err.Error()))
		return fmt.Errorf("%w: %v", ErrStore, err)
	}
	m.journal(job.ID).Record(obs.JournalEvent{Event: obs.EvSubmitted,
		Detail: fmt.Sprintf("algo=%s k=%d rows=%d", job.Req.Algorithm, job.Req.K, len(job.rows))})
	return nil
}

// lookup returns the local handle of a job, if this node holds one.
func (m *Manager) lookup(id string) (*Job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	return j, ok
}

// Get returns the job with the given ID: this node's handle if it holds
// one, else a handle built from the store's manifest and kept, so the
// claim loop runs the very job the caller holds.
func (m *Manager) Get(id string) (*Job, bool) {
	if j, ok := m.lookup(id); ok {
		return j, true
	}
	man, err := m.cfg.Store.ReadManifest(id)
	if err != nil {
		return nil, false
	}
	j, err := m.adopt(man)
	if err != nil {
		m.logBare(slog.LevelWarn, "job_adopt_failed",
			slog.String("run_id", id), slog.String("error", err.Error()))
		return nil, false
	}
	return j, true
}

// adopt returns the local handle of a manifest's job, building and
// keeping one if this node has none.
func (m *Manager) adopt(man *store.Manifest) (*Job, error) {
	if j, ok := m.lookup(man.ID); ok {
		return j, nil
	}
	j, err := m.jobFromManifest(man)
	if err != nil {
		return nil, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if prev, ok := m.jobs[man.ID]; ok {
		return prev, nil
	}
	m.jobs[man.ID] = j
	if key := j.Req.IdempotencyKey; key != "" {
		m.idem[key] = j.ID
	}
	return j, nil
}

// jobFromManifest builds the handle of a job this manager did not
// admit. Unfinished work becomes a queued job over its request spool,
// ready to run; a terminal job becomes a finished handle whose status —
// and, for a success, result — stay retrievable until its TTL, clocked
// from when it finished.
func (m *Manager) jobFromManifest(man *store.Manifest) (*Job, error) {
	req, err := requestFromManifest(man)
	if err != nil {
		return nil, err
	}
	j := &Job{
		ID:        man.ID,
		Req:       req,
		state:     StateQueued,
		submitted: man.SubmittedAt,
		done:      make(chan struct{}),
	}
	if man.Recoverable() {
		j.header, j.rows, err = m.cfg.Store.ReadRequest(man.ID)
		return j, err
	}
	// Size-only placeholders: Status reports the request's shape.
	j.header = make([]string, man.Cols)
	j.rows = make([][]string, man.Rows)
	j.claimNode = nodeLabel(man.Node)
	if man.StartedAt != nil {
		j.started = *man.StartedAt
	}
	var res *kanon.Result
	if man.State == store.StateSucceeded {
		header, rows, err := m.cfg.Store.ReadResult(man.ID)
		if err != nil {
			return nil, err
		}
		res = &kanon.Result{K: man.K, Header: header, Rows: rows}
		if man.Cost != nil {
			res.Cost = *man.Cost
		}
	}
	var cause error
	if man.Error != "" {
		cause = errors.New(man.Error)
	}
	finished := man.SubmittedAt
	if man.FinishedAt != nil {
		finished = *man.FinishedAt
	}
	j.settle(State(man.State), res, cause, finished, m.cfg.ResultTTL)
	return j, nil
}

// Cancel requests a job's cancellation, wherever it is. A job running
// on this node is cancelled directly; anything else goes through the
// store, which cancels a queued job on the spot and flags a running one
// for its lease holder to notice at the next renewal. Terminal jobs are
// unaffected. The second return is false if the ID is unknown.
func (m *Manager) Cancel(id string) (Status, bool) {
	if j, ok := m.lookup(id); ok {
		// Flag the handle before looking for its cancel func: a run that
		// starts after this point sees the flag and cancels itself.
		j.mu.Lock()
		j.userCanceled = !j.state.Terminal()
		cancel := j.cancel
		j.mu.Unlock()
		if cancel != nil {
			cancel()
			m.journal(j.ID).Record(obs.JournalEvent{Event: obs.EvCancelRequested})
			m.log(j, slog.LevelInfo, "job_cancel_requested", slog.String("while", "running"))
			return j.Status(), true
		}
	}
	man, err := m.cfg.Store.RequestCancel(id, context.Canceled.Error(), time.Now())
	if err != nil {
		return Status{}, false
	}
	switch man.State {
	case store.StateCanceled:
		m.journal(id).Record(obs.JournalEvent{Event: obs.EvCanceled, Detail: "while queued"})
		if j, ok := m.lookup(id); ok && j.settle(StateCanceled, nil, context.Canceled, time.Now(), m.cfg.ResultTTL) {
			m.canceled.Inc()
			m.log(j, slog.LevelInfo, "job_canceled", slog.String("while", "queued"))
		}
	case store.StateRunning:
		m.journal(id).Record(obs.JournalEvent{Event: obs.EvCancelRequested,
			Detail: "flagged for the lease holder"})
	}
	if st, ok := m.StatusOf(id); ok {
		return st, true
	}
	return statusFromManifest(man), true
}

// StatusOf resolves a job's status. This node's handle answers unless
// the manifest disagrees: the job may have been claimed, finished, or
// cancelled elsewhere, or released by a drain. IDs with no handle are
// read from the store, so any node answers for any job sharing it.
func (m *Manager) StatusOf(id string) (Status, bool) {
	man, err := m.cfg.Store.ReadManifest(id)
	if j, ok := m.lookup(id); ok {
		st := j.Status()
		if err == nil && string(st.State) != man.State {
			return statusFromManifest(man), true
		}
		return st, true
	}
	if err != nil {
		return Status{}, false
	}
	return statusFromManifest(man), true
}

// ResultBytes resolves a succeeded job's release: from this node's
// handle when it holds the result, else from the store's result spool
// (succeeded manifests always have one).
func (m *Manager) ResultBytes(id string) (header []string, rows [][]string, err error) {
	if j, ok := m.lookup(id); ok {
		if res, ok := j.Result(); ok {
			return res.Header, res.Rows, nil
		}
	}
	return m.cfg.Store.ReadResult(id)
}

// statusFromManifest renders a Status for a job from its store record.
func statusFromManifest(man *store.Manifest) Status {
	st := Status{
		ID:          man.ID,
		State:       State(man.State),
		K:           man.K,
		Algo:        man.Algo,
		Kernel:      man.Kernel,
		Rows:        man.Rows,
		Cols:        man.Cols,
		Cost:        man.Cost,
		Node:        nodeLabel(man.Node),
		Error:       man.Error,
		SubmittedAt: man.SubmittedAt,
		StartedAt:   man.StartedAt,
		FinishedAt:  man.FinishedAt,
	}
	if man.Kernel == "" {
		st.Kernel = kanon.KernelAuto.String()
	}
	if man.StartedAt != nil {
		st.QueueWaitMS = man.StartedAt.Sub(man.SubmittedAt).Milliseconds()
		if man.FinishedAt != nil {
			st.DurationMS = man.FinishedAt.Sub(*man.StartedAt).Milliseconds()
		}
	}
	return st
}

// execute runs the job's anonymization under ctx: the facade for
// whole-table jobs, the bounded-memory stream pipeline for block jobs.
// The second return is how many stream blocks were replayed from the
// job's checkpoints instead of recomputed. The compute attaches its
// phase tree under o's root span and checkpoints journal their commits
// and resumes; the release is byte-identical either way.
func (m *Manager) execute(ctx context.Context, job *Job, o jobObs) (*kanon.Result, int, error) {
	req := job.Req
	if req.BlockRows > 0 {
		c, err := m.cfg.Store.Checkpoint(job.ID, job.header)
		if err != nil {
			return nil, 0, err
		}
		return streamResult(ctx, job, &journalCheckpoint{inner: c, m: m, job: job, jr: o.journal}, o.root)
	}
	res, err := kanon.AnonymizeContext(ctx, job.header, job.rows, req.K, &kanon.Options{
		Algorithm:   req.Algorithm,
		Kernel:      req.Kernel,
		Seed:        req.Seed,
		Refine:      req.Refine,
		Workers:     req.Workers,
		Hierarchy:   req.HierarchySpec,
		MaxSuppress: req.MaxSuppress,
		Log:         m.cfg.Log,
		Span:        o.root, // per-job tracer; Stats come from its snapshot
	})
	return res, 0, err
}

// streamResult mirrors cmd/kanon's block path: anonymize in bounded
// blocks and adapt the stream result to the facade's Result shape. The
// checkpoint sink makes the pass resumable: each finished block is
// spooled, and blocks a prior (crashed) run finished are replayed
// rather than recomputed — byte-identically, because block bounds and
// the per-block algorithm are deterministic.
func streamResult(ctx context.Context, job *Job, ckpt stream.Checkpoint, sp *obs.Span) (*kanon.Result, int, error) {
	t := relation.NewTable(relation.NewSchema(job.header...))
	for _, r := range job.rows {
		if err := t.AppendStrings(r...); err != nil {
			return nil, 0, err
		}
	}
	sr, err := stream.Anonymize(t, job.Req.K, &stream.Options{
		Ctx:        ctx,
		BlockRows:  job.Req.BlockRows,
		Refine:     job.Req.Refine,
		Workers:    job.Req.Workers,
		Kernel:     kernelChoice(job.Req.Kernel),
		Checkpoint: ckpt,
		Trace:      sp,
	})
	if err != nil {
		return nil, 0, err
	}
	out := make([][]string, sr.Anonymized.Len())
	for i := range out {
		out[i] = sr.Anonymized.Strings(i)
	}
	groups := core.FromAnonymized(sr.Anonymized)
	groups.Normalize()
	return &kanon.Result{
		K:      job.Req.K,
		Header: append([]string(nil), job.header...),
		Rows:   out,
		Groups: groups.Groups,
		Cost:   sr.Cost,
	}, sr.BlocksResumed, nil
}

// kernelChoice maps the public kernel enum to the internal choice the
// stream layer takes; the facade does this conversion itself on the
// non-stream path. Kernel names parse by construction.
func kernelChoice(k kanon.Kernel) metric.Choice {
	c, err := metric.ParseChoice(k.String())
	if err != nil {
		return metric.Auto
	}
	return c
}

// janitor evicts terminal jobs whose result TTL has expired.
func (m *Manager) janitor() {
	defer close(m.janitorDone)
	interval := min(max(m.cfg.ResultTTL/4, 10*time.Millisecond), 30*time.Second)
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-m.janitorStop:
			return
		case now := <-tick.C:
			m.evictExpired(now)
		}
	}
}

// evictExpired drops the handles of terminal jobs past their expiry,
// then reaps every expired terminal job from the store — including jobs
// finished by peers that no longer exist. ReapTerminal re-checks the
// manifest under the per-job mutation lock, so a reap can never race a
// claim into deleting live work.
func (m *Manager) evictExpired(now time.Time) {
	m.mu.Lock()
	var evicted []*Job
	for id, j := range m.jobs {
		j.mu.Lock()
		gone := j.state.Terminal() && now.After(j.expires)
		j.mu.Unlock()
		if gone {
			delete(m.jobs, id)
			if key := j.Req.IdempotencyKey; key != "" && m.idem[key] == id {
				delete(m.idem, key)
			}
			evicted = append(evicted, j)
		}
	}
	m.mu.Unlock()
	for _, j := range evicted {
		m.expired.Inc()
		m.log(j, slog.LevelDebug, "job_expired")
	}
	manifests, skipped, err := m.cfg.Store.Jobs()
	if err != nil {
		return
	}
	m.sweepTrash(skipped, now)
	cutoff := now.Add(-m.cfg.ResultTTL)
	for _, man := range manifests {
		if !man.Terminal() || man.FinishedAt == nil || man.FinishedAt.After(cutoff) {
			continue
		}
		reaped, err := m.cfg.Store.ReapTerminal(man.ID, cutoff)
		if err != nil {
			m.logBare(slog.LevelWarn, "job_reap_failed",
				slog.String("run_id", man.ID), slog.String("error", err.Error()))
			continue
		}
		if reaped {
			m.logBare(slog.LevelDebug, "job_reaped", slog.String("run_id", man.ID))
		}
	}
}

// trashGrace is how old a jobs/.<id>.rm-* directory must be before the
// janitor treats it as orphaned rather than as a delete still in flight
// on some node.
const trashGrace = time.Minute

// sweepTrash removes the hidden jobs/.<id>.rm-* directories that
// store.Local.RemoveAll leaves behind when its process dies between
// renaming a job tree aside and deleting it. Store.Jobs reports them as
// skipped; ValidateID rejects a leading '.', so no live job can match.
func (m *Manager) sweepTrash(skipped []string, now time.Time) {
	be := m.cfg.Store.Backend()
	for _, name := range skipped {
		if !strings.HasPrefix(name, ".") || !strings.Contains(name, ".rm-") {
			continue
		}
		rel := path.Join("jobs", name)
		if _, mtime, err := be.Stat(rel); err != nil || now.Sub(mtime) < trashGrace {
			continue
		}
		if err := be.RemoveAll(rel); err != nil {
			m.logBare(slog.LevelWarn, "trash_sweep_failed",
				slog.String("dir", rel), slog.String("error", err.Error()))
		}
	}
}

// Shutdown stops admission and drains: the claim loop keeps claiming
// the jobs this node admitted until none is left queued, and running
// jobs finish. If ctx expires first, running jobs are cancelled and
// released back to the store — fenced, so a release cannot clobber a
// peer that already stole the lease — for a restart or a peer to
// finish; their local handles end canceled. It returns ctx.Err() if the
// deadline forced cancellation, nil on a clean drain. Safe to call more
// than once.
func (m *Manager) Shutdown(ctx context.Context) error {
	m.mu.Lock()
	first := !m.draining
	m.draining = true
	m.mu.Unlock()
	m.pokeClaim()

	drained := make(chan struct{})
	go func() {
		<-m.claimDone
		m.runWG.Wait()
		close(drained)
	}()
	var err error
	select {
	case <-drained:
	case <-ctx.Done():
		// Deadline: cancel the base context. Each running job unwinds at
		// its next context poll and, not being user-cancelled, is
		// released; the claim loop stops claiming and exits.
		m.baseCancel()
		m.pokeClaim()
		<-drained
		err = ctx.Err()
	}
	if first {
		close(m.janitorStop)
	}
	<-m.janitorDone
	m.baseCancel()
	return err
}

// Health is the /healthz payload: liveness plus the capacity picture a
// front-end router balances on. Jobs/Active count this node's job
// handles; Capacity/Free/Running describe this node's worker pool;
// Queued/Claimed are the backlog read from the store, across every node
// sharing it.
type Health struct {
	Status string `json:"status"`
	Node   string `json:"node,omitempty"`
	// Version is the node's build identity (module version, VCS
	// revision, Go toolchain) so cluster health surfaces mixed-version
	// deployments.
	Version  string `json:"version,omitempty"`
	Jobs     int    `json:"jobs"`
	Active   int    `json:"active"`
	Capacity int    `json:"capacity"`
	Free     int    `json:"free"`
	Running  int    `json:"running"`
	Queued   int    `json:"queued"`
	Claimed  int    `json:"claimed"`
}

// buildVersion is the process's build identity, read once — ReadBuild
// walks the embedded build info on every call.
var buildVersion = obs.ReadBuild().String()

// Health snapshots the node for /healthz.
func (m *Manager) Health() Health {
	h := Health{Status: "ok", Node: m.cfg.NodeID, Version: buildVersion,
		Capacity: m.cfg.Workers, Free: len(m.slots)}
	m.mu.Lock()
	if m.draining {
		h.Status = "draining"
	}
	h.Jobs, h.Running = len(m.jobs), len(m.running)
	for _, j := range m.jobs {
		j.mu.Lock()
		if !j.state.Terminal() {
			h.Active++
		}
		j.mu.Unlock()
	}
	m.mu.Unlock()
	h.Queued, h.Claimed = m.ClusterDepths()
	return h
}

// ClusterDepths scans the store for the backlog picture: queued
// (unclaimed) and claimed (running under a live or expired lease,
// anywhere). The queued count also refreshes the queue-depth gauge.
func (m *Manager) ClusterDepths() (queued, claimed int) {
	manifests, _, err := m.cfg.Store.Jobs()
	if err != nil {
		return 0, 0
	}
	for _, man := range manifests {
		switch man.State {
		case store.StateQueued:
			queued++
		case store.StateRunning:
			claimed++
		}
	}
	m.queueDepth.Set(int64(queued))
	return queued, claimed
}

// log emits one job lifecycle event with the job ID as run_id.
func (m *Manager) log(j *Job, level slog.Level, msg string, attrs ...slog.Attr) {
	m.logBare(level, msg, append([]slog.Attr{slog.String("run_id", j.ID)}, attrs...)...)
}

// logBare emits a structured event that is not tied to a local Job.
func (m *Manager) logBare(level slog.Level, msg string, attrs ...slog.Attr) {
	if m.cfg.Log == nil {
		return
	}
	m.cfg.Log.LogAttrs(context.Background(), level, msg, attrs...)
}
