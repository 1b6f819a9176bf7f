// Job dispatch: lease-based claiming over the store.
//
// The store's manifests are the queue. Every manager runs one claim
// loop that claims the oldest claimable job — queued, running under an
// expired lease (crash-failover work stealing), or running under this
// node's own lease from before a restart — runs it under a lease it
// renews at TTL/3, and commits every transition through the store's
// fenced operations, so a node that lost its lease can never clobber
// the new owner's state. Any number of managers with distinct NodeIDs
// sharing a store drain it together; a manager alone (no NodeID, or no
// store at all) is a cluster of one. Stolen and restarted stream jobs
// resume from committed block checkpoints, byte-identically — block
// bounds and per-block algorithms are deterministic, so the release
// never depends on which node (or how many, across a steal) computed
// it.
package server

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"sync/atomic"
	"time"

	"kanon"
	"kanon/internal/obs"
	"kanon/internal/store"
)

// pokeClaim nudges the claim loop without blocking — called after a
// local submission, after a slot frees, and on shutdown, so claims
// happen at those edges instead of waiting out the poll interval.
func (m *Manager) pokeClaim() {
	select {
	case m.claimPoke <- struct{}{}:
	default:
	}
}

// claimLoop is the dispatcher: one goroutine per manager that claims
// work whenever a slot is free and the store has claimable jobs. It
// wakes on pokes and on a ticker that bounds how long a foreign job —
// or an expired lease left by a crashed peer — can wait for this node
// to notice it. Once draining, it exits when no job this node admitted
// is left to claim.
func (m *Manager) claimLoop() {
	defer close(m.claimDone)
	tick := time.NewTicker(m.cfg.ClaimInterval)
	defer tick.Stop()
	for {
		m.claimAvailable()
		if m.drained() {
			return
		}
		select {
		case <-m.claimPoke:
		case <-tick.C:
		}
	}
}

// drained reports whether a draining manager has nothing left to
// claim: the drain deadline passed, or every job it admitted is
// running, finished, or taken by a peer.
func (m *Manager) drained() bool {
	m.mu.Lock()
	if !m.draining {
		m.mu.Unlock()
		return false
	}
	var pending []string
	for id, j := range m.jobs {
		if j.admitted && !m.running[id] && j.Status().State == StateQueued {
			pending = append(pending, id)
		}
	}
	m.mu.Unlock()
	if m.baseCtx.Err() != nil {
		return true
	}
	for _, id := range pending {
		if man, err := m.cfg.Store.ReadManifest(id); err == nil && man.State == store.StateQueued {
			return false
		}
	}
	return true
}

// claimAvailable claims and launches jobs while this node has free
// worker slots and the store has claimable work. Only this goroutine
// takes slots, so a non-empty bucket stays non-empty until it does.
func (m *Manager) claimAvailable() {
	for len(m.slots) > 0 && m.baseCtx.Err() == nil {
		job, man, stolen := m.claimOne()
		if job == nil {
			return
		}
		<-m.slots
		m.mu.Lock()
		m.running[job.ID] = true
		m.mu.Unlock()
		m.runWG.Add(1)
		go func() {
			defer func() {
				m.mu.Lock()
				delete(m.running, job.ID)
				m.mu.Unlock()
				m.slots <- struct{}{}
				m.runWG.Done()
				m.pokeClaim()
			}()
			m.runClaimed(job, man, stolen)
		}()
	}
}

// claimOne scans the store oldest-submission-first and claims the first
// claimable job. Jobs already running on this node are skipped — a node
// never steals from itself; its own renewal loop arbitrates its leases.
// A draining node claims only jobs it admitted.
func (m *Manager) claimOne() (*Job, *store.Manifest, bool) {
	manifests, _, err := m.cfg.Store.Jobs()
	if err != nil {
		m.logBare(slog.LevelWarn, "claim_scan_failed", slog.String("error", err.Error()))
		return nil, nil, false
	}
	now := time.Now()
	for _, man := range manifests {
		if !man.Recoverable() {
			continue
		}
		m.mu.Lock()
		local, mine := m.jobs[man.ID], m.running[man.ID]
		skip := mine || (m.draining && (local == nil || !local.admitted))
		m.mu.Unlock()
		if skip {
			continue
		}
		if man.State == store.StateRunning && man.Claim != nil && now.Before(man.Claim.Expires) {
			if !m.previousLife(man) {
				continue // live lease elsewhere
			}
			// This node's own lease from before a restart: nobody will
			// renew it, so hand it back and claim it like any queued job.
			if _, err := m.cfg.Store.ReleaseJob(man.ID, m.node, man.Fence); err != nil {
				continue
			}
			m.journal(man.ID).Record(obs.JournalEvent{Event: obs.EvLeaseReleased, Fence: man.Fence,
				Detail: "restart: re-claiming the previous run's lease"})
		}
		claimed, stolen, err := m.cfg.Store.ClaimJob(man.ID, m.node, m.cfg.LeaseTTL, now)
		if err != nil {
			continue // lost the race, job reaped, or store hiccup — move on
		}
		if stolen {
			// Journal the failover edge: whose lease lapsed, who took over.
			// The pre-claim manifest names the old owner; Record stamps the
			// stolen event with this node.
			oldNode := man.Node
			if man.Claim != nil {
				oldNode = man.Claim.Node
			}
			oldNode = nodeLabel(oldNode)
			jr := m.journal(man.ID)
			jr.Record(obs.JournalEvent{Event: obs.EvLeaseExpired, Node: oldNode, Fence: man.Fence})
			jr.Record(obs.JournalEvent{Event: obs.EvLeaseStolen, Fence: claimed.Fence,
				Detail: fmt.Sprintf("from %s", oldNode)})
		}
		if claimed.CancelRequested {
			// A cancellation landed while the job sat unclaimed; honor it
			// instead of running doomed work.
			m.finalizeClaimedCancel(man.ID, claimed.Fence, now)
			continue
		}
		job, err := m.adopt(claimed)
		if err != nil {
			// We hold the claim but cannot run the job (request spool
			// unreadable). Fail it durably rather than releasing it into
			// an endless claim/fail ping-pong across the cluster.
			m.failClaimOnDisk(claimed, err)
			continue
		}
		if man.SubmittedAt.Before(m.started) {
			// Admitted before this manager came up: backlog recovered from
			// the store, whichever node (or life) admitted it.
			m.recovered.Inc()
			m.log(job, slog.LevelInfo, "job_recovered",
				slog.String("algo", job.Req.Algorithm.String()), slog.Int("k", job.Req.K),
				slog.Int("rows", len(job.rows)))
		}
		return job, claimed, stolen
	}
	return nil, nil, false
}

// previousLife reports whether a live lease is this node's own from
// before this manager started — a crashed or killed earlier process.
func (m *Manager) previousLife(man *store.Manifest) bool {
	return man.Claim.Node == m.node && man.StartedAt != nil && man.StartedAt.Before(m.started)
}

// finalizeClaimedCancel commits a claimed-then-found-cancelled job to
// its terminal state, on disk and (if known locally) in memory.
func (m *Manager) finalizeClaimedCancel(id string, fence uint64, now time.Time) {
	_, err := m.cfg.Store.UpdateClaimed(id, m.node, fence, func(sm *store.Manifest) error {
		sm.State = store.StateCanceled
		sm.Error = context.Canceled.Error()
		t := now
		sm.FinishedAt = &t
		return nil
	})
	if err != nil {
		m.logBare(slog.LevelWarn, "job_persist_failed",
			slog.String("run_id", id), slog.String("error", err.Error()))
		return
	}
	m.journal(id).Record(obs.JournalEvent{Event: obs.EvCanceled, Fence: fence,
		Detail: "cancel requested before the job ran"})
	m.canceled.Inc()
	if j, ok := m.lookup(id); ok && j.settle(StateCanceled, nil, context.Canceled, now, m.cfg.ResultTTL) {
		m.log(j, slog.LevelInfo, "job_canceled", slog.String("while", "queued"))
	}
}

// failClaimOnDisk marks a claimed-but-unrunnable job failed so it stops
// being claimable.
func (m *Manager) failClaimOnDisk(man *store.Manifest, cause error) {
	_, err := m.cfg.Store.UpdateClaimed(man.ID, m.node, man.Fence, func(sm *store.Manifest) error {
		sm.State = store.StateFailed
		sm.Error = fmt.Sprintf("unrunnable on %s: %v", m.node, cause)
		t := time.Now()
		sm.FinishedAt = &t
		return nil
	})
	if err != nil {
		m.logBare(slog.LevelWarn, "job_persist_failed",
			slog.String("run_id", man.ID), slog.String("error", err.Error()))
	}
	m.failed.Inc()
	m.logBare(slog.LevelWarn, "job_failed",
		slog.String("run_id", man.ID), slog.String("error", cause.Error()))
}

// runClaimed executes one claimed job end to end under its lease:
// in-memory transition, renewal ticker, the anonymization itself, and
// the fenced terminal commit. Every outcome that is not "we still own
// the lease and finished" degrades safely: a lost lease discards local
// state (the thief owns the job now), a drain deadline releases the
// job back to the queue for a restart or a peer to finish.
func (m *Manager) runClaimed(job *Job, man *store.Manifest, stolen bool) {
	fence := man.Fence
	timeout := m.cfg.JobTimeout
	if job.Req.Timeout > 0 && job.Req.Timeout < timeout {
		timeout = job.Req.Timeout
	}
	ctx, cancel := context.WithTimeout(m.baseCtx, timeout)
	defer cancel()
	job.mu.Lock()
	job.state = StateRunning
	job.started = time.Now()
	job.cancel = cancel
	job.claimNode = m.cfg.NodeID
	wait := job.started.Sub(job.submitted)
	if job.userCanceled {
		cancel() // a Cancel that raced the claim
	}
	job.mu.Unlock()

	m.runningGauge.Add(1)
	defer m.runningGauge.Add(-1)
	m.queueWait.ObserveDuration(wait)
	m.leasesClaimed.Inc()
	if stolen {
		m.leasesStolen.Inc()
	}
	m.log(job, slog.LevelInfo, "lease_claimed",
		slog.Uint64("fence", fence), slog.Bool("stolen", stolen),
		slog.String("algo", job.Req.Algorithm.String()), slog.Int("k", job.Req.K))
	m.log(job, slog.LevelInfo, "job_started", slog.Duration("queue_wait", wait))
	o := m.startJobObs(job)
	o.journal.Record(obs.JournalEvent{Event: obs.EvClaimed, Fence: fence,
		Detail: fmt.Sprintf("algo=%s k=%d stolen=%t", job.Req.Algorithm, job.Req.K, stolen)})
	o.journal.Record(obs.JournalEvent{Event: obs.EvPhaseStart, Phase: "anonymize"})

	var lost, userCancel atomic.Bool
	renewStop := make(chan struct{})
	renewDone := make(chan struct{})
	go m.renewLoop(job, fence, cancel, &lost, &userCancel, renewStop, renewDone)

	res, resumed, err := m.execute(ctx, job, o)
	close(renewStop)
	<-renewDone

	o.journal.Record(obs.JournalEvent{Event: obs.EvPhaseDone, Phase: "anonymize"})
	// Persist the final timeline only while the lease looks ours: after a
	// loss the thief owns trace.json, and a late flush would overwrite
	// its fuller view. (A commit below can still discover a loss after
	// this flush — the thief's next flush repairs the file; the journal,
	// being append-only, never has this race.)
	finalTrace := m.finishJobObs(job, o, !lost.Load())
	if err == nil && job.Req.Trace {
		res.Stats = finalTrace
	}

	job.mu.Lock()
	userCanceled := job.userCanceled || userCancel.Load()
	job.mu.Unlock()

	switch {
	case err == nil:
		m.commit(job, fence, StateSucceeded, res, nil, resumed)
	case errors.Is(err, context.Canceled) && lost.Load():
		m.abandonLost(job)
	case errors.Is(err, context.Canceled) && !userCanceled:
		m.releaseClaimed(job, fence)
	case errors.Is(err, context.Canceled):
		m.commit(job, fence, StateCanceled, nil, err, 0)
	default:
		// Deadline exhaustion and instance errors both land here; the
		// error text tells them apart.
		m.commit(job, fence, StateFailed, nil, err, 0)
	}
}

// renewLoop extends the job's lease at TTL/3 until stopped. A fenced
// renewal means the lease was stolen: the loop flags the loss and
// cancels the run so the stale node stops burning CPU on work it no
// longer owns. Renewals also carry back cross-node cancellation
// requests. Transient store errors are logged and retried — the lease
// survives until its deadline, so one slow fsync does not forfeit it.
func (m *Manager) renewLoop(job *Job, fence uint64, cancel context.CancelFunc, lost, userCancel *atomic.Bool, stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	tick := time.NewTicker(max(m.cfg.LeaseTTL/3, 10*time.Millisecond))
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
		}
		man, err := m.cfg.Store.RenewLease(job.ID, m.node, fence, m.cfg.LeaseTTL, time.Now())
		if errors.Is(err, store.ErrFenced) {
			lost.Store(true)
			m.leaseLost(job, fence)
			cancel()
			return
		}
		if err != nil {
			m.log(job, slog.LevelWarn, "lease_renew_failed", slog.String("error", err.Error()))
			continue
		}
		m.leasesRenewed.Inc()
		m.journal(job.ID).Record(obs.JournalEvent{Event: obs.EvLeaseRenewed, Fence: fence})
		if man.CancelRequested && !userCancel.Load() {
			userCancel.Store(true)
			m.journal(job.ID).Record(obs.JournalEvent{Event: obs.EvCancelRequested, Fence: fence})
			m.log(job, slog.LevelInfo, "job_cancel_requested", slog.String("while", "running"))
			cancel()
			// Keep renewing: holding the lease through the unwind stops a
			// peer from stealing a job that is about to be cancelled.
		}
	}
}

// commit persists a run's outcome under its fence and mirrors it on the
// local handle. The journal event, counters, and log land before the
// manifest flips: a reader who sees the terminal state in the store
// finds them too, and waiters on the handle see a fully committed job.
// A success spools its release first, so a succeeded manifest always
// has a readable result. An outcome whose flip cannot land is
// abandoned: after a fenced write the thief is authoritative (and, the
// jobs being deterministic, byte-identical; this run's outcome stays
// counted and journaled, followed by lease_lost); after a store failure
// the manifest stays running and the lease's expiry hands the job to a
// re-run — durability degraded to retry, never to a phantom result.
func (m *Manager) commit(job *Job, fence uint64, state State, res *kanon.Result, cause error, resumed int) {
	if res != nil {
		if err := m.cfg.Store.WriteResult(job.ID, res.Header, res.Rows); err != nil {
			m.log(job, slog.LevelWarn, "job_persist_failed", slog.String("error", err.Error()))
			m.abandonLost(job)
			return
		}
	}
	now := time.Now()
	job.mu.Lock()
	dur := now.Sub(job.started)
	job.mu.Unlock()
	m.jobDur.ObserveDuration(dur)
	switch state {
	case StateSucceeded:
		m.journal(job.ID).Record(obs.JournalEvent{Event: obs.EvSucceeded, Fence: fence,
			Detail: fmt.Sprintf("cost=%d", res.Cost)})
		m.succeeded.Inc()
		m.jobCost.Observe(int64(res.Cost))
		if resumed > 0 {
			m.blocksResumed.Add(int64(resumed))
			m.log(job, slog.LevelInfo, "job_blocks_resumed", slog.Int("blocks_resumed", resumed))
		}
		m.log(job, slog.LevelInfo, "job_done", slog.Int("cost", res.Cost), slog.Duration("wall", dur),
			slog.Int("blocks_resumed", resumed))
	case StateCanceled:
		m.journal(job.ID).Record(obs.JournalEvent{Event: obs.EvCanceled, Fence: fence, Detail: cause.Error()})
		m.canceled.Inc()
		m.log(job, slog.LevelInfo, "job_canceled", slog.String("while", "running"), slog.Duration("wall", dur))
	default:
		m.journal(job.ID).Record(obs.JournalEvent{Event: obs.EvFailed, Fence: fence, Detail: cause.Error()})
		m.failed.Inc()
		m.log(job, slog.LevelWarn, "job_failed", slog.String("error", cause.Error()), slog.Duration("wall", dur))
	}
	_, err := m.cfg.Store.UpdateClaimed(job.ID, m.node, fence, func(sm *store.Manifest) error {
		sm.State = string(state)
		t := now
		sm.FinishedAt = &t
		if res != nil {
			c := res.Cost
			sm.Cost = &c
		} else {
			sm.Error = cause.Error()
		}
		return nil
	})
	if err != nil {
		if errors.Is(err, store.ErrFenced) {
			m.leaseLost(job, fence)
		} else {
			m.log(job, slog.LevelWarn, "job_persist_failed", slog.String("error", err.Error()))
		}
		m.abandonLost(job)
		return
	}
	job.settle(state, res, cause, now, m.cfg.ResultTTL)
}

// leaseLost records that a fenced write showed this node no longer
// holds the job's lease.
func (m *Manager) leaseLost(job *Job, fence uint64) {
	m.leasesLost.Inc()
	m.journal(job.ID).Record(obs.JournalEvent{Event: obs.EvLeaseLost, Fence: fence})
	m.log(job, slog.LevelWarn, "lease_lost", slog.Uint64("fence", fence))
}

// abandonLost resets the local view of a job whose lease this node no
// longer holds: in memory it goes back to queued (the new owner's
// manifest is authoritative, and StatusOf reads through to it), nothing
// is written to the store, and the done channel stays open — the job
// is not finished, it is just no longer ours.
func (m *Manager) abandonLost(job *Job) {
	job.mu.Lock()
	job.state = StateQueued
	job.started = time.Time{}
	job.cancel = nil
	job.claimNode = ""
	job.mu.Unlock()
	m.log(job, slog.LevelInfo, "job_abandoned")
}

// releaseClaimed hands a job cut off by the drain deadline back to the
// store — state queued, claim cleared, fenced so the release cannot
// clobber a faster thief — for a restart or a peer to finish. The local
// handle ends canceled: this process will not run the job again.
func (m *Manager) releaseClaimed(job *Job, fence uint64) {
	_, err := m.cfg.Store.ReleaseJob(job.ID, m.node, fence)
	switch {
	case errors.Is(err, store.ErrFenced):
		m.leaseLost(job, fence)
	case err != nil:
		m.log(job, slog.LevelWarn, "job_persist_failed", slog.String("error", err.Error()))
	default:
		m.leasesReleased.Inc()
		m.journal(job.ID).Record(obs.JournalEvent{Event: obs.EvLeaseReleased, Fence: fence,
			Detail: "drain: released back to the queue"})
		m.log(job, slog.LevelInfo, "lease_released", slog.Uint64("fence", fence))
	}
	job.settle(StateCanceled, nil, context.Canceled, time.Now(), m.cfg.ResultTTL)
}
