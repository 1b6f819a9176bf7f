package server

import (
	"context"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"kanon"
	"kanon/internal/dataset"
	"kanon/internal/relation"
	"kanon/internal/store"
)

// renderTable flattens a relation table into the header/rows shape the
// manager ingests.
func renderTable(t *relation.Table) (header []string, rows [][]string) {
	header = t.Schema().Names()
	rows = make([][]string, t.Len())
	for i := range rows {
		rows[i] = t.Strings(i)
	}
	return header, rows
}

func openTestStore(t *testing.T) *store.Store {
	t.Helper()
	s, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func waitDone(t *testing.T, j *Job) {
	t.Helper()
	select {
	case <-j.Done():
	case <-time.After(30 * time.Second):
		t.Fatalf("job %s did not finish", j.ID)
	}
}

func shutdownManager(t *testing.T, m *Manager) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := m.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

// TestRecoverQueuedJob: a queued manifest left behind by a crash is
// re-admitted at startup and runs to the same release a live submission
// produces.
func TestRecoverQueuedJob(t *testing.T) {
	st := openTestStore(t)
	rng := rand.New(rand.NewSource(51))
	header, rows := renderTable(dataset.Census(rng, 60, 4))

	// Simulate the crash's leftovers directly: CreateJob is exactly what
	// a pre-crash Submit persisted.
	man := &store.Manifest{
		ID: "crashed-q", State: store.StateQueued, K: 3, Algo: "ball",
		Rows: len(rows), Cols: len(header), SubmittedAt: time.Now().UTC(),
	}
	if err := st.CreateJob(man, header, rows); err != nil {
		t.Fatal(err)
	}

	m := newTestManager(t, Config{Store: st})
	job, ok := m.Get("crashed-q")
	if !ok {
		t.Fatal("recovered job not in manager")
	}
	waitDone(t, job)
	res, ok := job.Result()
	if !ok {
		t.Fatalf("recovered job did not succeed: %+v", job.Status())
	}
	if got := m.Snapshot().Counters["server.jobs_recovered"]; got != 1 {
		t.Errorf("jobs_recovered = %d, want 1", got)
	}

	direct, err := kanon.Anonymize(header, rows, 3, &kanon.Options{Algorithm: kanon.AlgoGreedyBall})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost != direct.Cost || len(res.Rows) != len(direct.Rows) {
		t.Fatalf("recovered run cost/rows %d/%d, direct %d/%d", res.Cost, len(res.Rows), direct.Cost, len(direct.Rows))
	}
	for i := range direct.Rows {
		for j := range direct.Rows[i] {
			if res.Rows[i][j] != direct.Rows[i][j] {
				t.Fatalf("cell (%d,%d): %q, want %q", i, j, res.Rows[i][j], direct.Rows[i][j])
			}
		}
	}
}

// TestRecoverCrashedStreamJob: a stream job that crashed mid-run
// restarts from its surviving block checkpoints — the completed blocks
// are replayed (counted by server.blocks_resumed), and the release is
// byte-identical to the uninterrupted run.
func TestRecoverCrashedStreamJob(t *testing.T) {
	st := openTestStore(t)
	rng := rand.New(rand.NewSource(52))
	header, rows := renderTable(dataset.Census(rng, 120, 4))

	// The uninterrupted run, for both the byte-identity baseline and a
	// fully populated checkpoint directory.
	m1 := NewManager(Config{Store: st, JobTimeout: time.Minute, ResultTTL: time.Hour})
	job1, err := m1.Submit(header, rows, JobRequest{K: 3, Algorithm: kanon.AlgoGreedyBall, BlockRows: 30})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, job1)
	want, ok := job1.Result()
	if !ok {
		t.Fatalf("baseline job failed: %+v", job1.Status())
	}
	shutdownManager(t, m1)

	// Rewind the disk to "crashed mid-run": manifest back to running,
	// result spool gone, only the first two block checkpoints surviving.
	man, err := st.ReadManifest(job1.ID)
	if err != nil {
		t.Fatal(err)
	}
	man.State = store.StateRunning
	man.Cost = nil
	man.FinishedAt = nil
	if err := st.WriteManifest(man); err != nil {
		t.Fatal(err)
	}
	jobDir := filepath.Join(st.Dir(), "jobs", job1.ID)
	if err := os.Remove(filepath.Join(jobDir, "result.csv")); err != nil {
		t.Fatal(err)
	}
	ckptDir := filepath.Join(jobDir, "checkpoints")
	entries, err := os.ReadDir(ckptDir)
	if err != nil {
		t.Fatal(err)
	}
	removed := 0
	for _, e := range entries {
		// Keep blocks [0,30) and [30,60); drop the rest (both spool files,
		// so the surviving set is internally consistent).
		lo := e.Name()[len("block-") : len("block-")+9]
		if lo != "000000000" && lo != "000000030" {
			if err := os.Remove(filepath.Join(ckptDir, e.Name())); err != nil {
				t.Fatal(err)
			}
			removed++
		}
	}
	if removed == 0 {
		t.Fatal("no checkpoints removed; crash simulation is vacuous")
	}

	m2 := newTestManager(t, Config{Store: st, ResultTTL: time.Hour})
	job2, ok := m2.Get(job1.ID)
	if !ok {
		t.Fatal("crashed job not recovered")
	}
	waitDone(t, job2)
	got, ok := job2.Result()
	if !ok {
		t.Fatalf("recovered job failed: %+v", job2.Status())
	}
	if got.Cost != want.Cost {
		t.Fatalf("resumed cost %d, want %d", got.Cost, want.Cost)
	}
	for i := range want.Rows {
		for j := range want.Rows[i] {
			if got.Rows[i][j] != want.Rows[i][j] {
				t.Fatalf("cell (%d,%d): %q, want %q", i, j, got.Rows[i][j], want.Rows[i][j])
			}
		}
	}
	snap := m2.Snapshot()
	if snap.Counters["server.blocks_resumed"] != 2 {
		t.Errorf("blocks_resumed = %d, want 2", snap.Counters["server.blocks_resumed"])
	}
	if snap.Counters["server.jobs_recovered"] != 1 {
		t.Errorf("jobs_recovered = %d, want 1", snap.Counters["server.jobs_recovered"])
	}
}

// TestTerminalJobsSurviveRestart: succeeded and failed manifests are
// reloaded read-only — status and results stay retrievable without
// re-running anything.
func TestTerminalJobsSurviveRestart(t *testing.T) {
	st := openTestStore(t)
	rng := rand.New(rand.NewSource(53))
	header, rows := renderTable(dataset.Census(rng, 40, 4))

	m1 := NewManager(Config{Store: st, JobTimeout: time.Minute, ResultTTL: time.Hour})
	job, err := m1.Submit(header, rows, JobRequest{K: 2, Algorithm: kanon.AlgoGreedyBall})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, job)
	want, ok := job.Result()
	if !ok {
		t.Fatalf("job failed: %+v", job.Status())
	}
	shutdownManager(t, m1)

	// A failed job alongside it, injected as a crashed process would have
	// left it.
	fman := &store.Manifest{
		ID: "failed-1", State: store.StateFailed, K: 2, Algo: "ball",
		Rows: len(rows), Cols: len(header), Error: "deadline exceeded",
		SubmittedAt: time.Now().UTC(),
	}
	fin := time.Now().UTC()
	fman.FinishedAt = &fin
	if err := st.CreateJob(fman, header, rows); err != nil {
		t.Fatal(err)
	}

	m2 := newTestManager(t, Config{Store: st, ResultTTL: time.Hour})
	re, ok := m2.Get(job.ID)
	if !ok {
		t.Fatal("succeeded job gone after restart")
	}
	status := re.Status()
	if status.State != StateSucceeded || status.Cost == nil || *status.Cost != want.Cost {
		t.Fatalf("reloaded status %+v, want succeeded with cost %d", status, want.Cost)
	}
	if status.Rows != len(rows) || status.Cols != len(header) {
		t.Errorf("reloaded shape %dx%d, want %dx%d", status.Rows, status.Cols, len(rows), len(header))
	}
	res, ok := re.Result()
	if !ok || len(res.Rows) != len(want.Rows) {
		t.Fatalf("reloaded result unavailable or truncated")
	}
	fre, ok := m2.Get("failed-1")
	if !ok {
		t.Fatal("failed job gone after restart")
	}
	if s := fre.Status(); s.State != StateFailed || s.Error != "deadline exceeded" {
		t.Fatalf("failed job status %+v", s)
	}
	// Recovered terminal jobs must not be re-run or re-counted.
	if got := m2.Snapshot().Counters["server.jobs_recovered"]; got != 0 {
		t.Errorf("jobs_recovered = %d, want 0", got)
	}
}

// TestLifecyclePersisted: every state transition lands on disk — the
// manifest tracks queued → running → succeeded, and a successful job's
// result spool is readable and matches what the API serves.
func TestLifecyclePersisted(t *testing.T) {
	st := openTestStore(t)
	rng := rand.New(rand.NewSource(55))
	header, rows := renderTable(dataset.Census(rng, 30, 3))

	m := newTestManager(t, Config{Store: st, ResultTTL: time.Hour})
	job, err := m.Submit(header, rows, JobRequest{K: 2, Algorithm: kanon.AlgoGreedyBall})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, job)
	res, ok := job.Result()
	if !ok {
		t.Fatalf("job failed: %+v", job.Status())
	}

	man, err := st.ReadManifest(job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if man.State != store.StateSucceeded {
		t.Errorf("persisted state %q", man.State)
	}
	if man.Cost == nil || *man.Cost != res.Cost {
		t.Errorf("persisted cost %v, want %d", man.Cost, res.Cost)
	}
	if man.StartedAt == nil || man.FinishedAt == nil {
		t.Errorf("persisted timestamps missing: %+v", man)
	}
	_, spooled, err := st.ReadResult(job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(spooled) != len(res.Rows) {
		t.Fatalf("spooled %d rows, served %d", len(spooled), len(res.Rows))
	}
	for i := range res.Rows {
		for j := range res.Rows[i] {
			if spooled[i][j] != res.Rows[i][j] {
				t.Fatalf("spooled cell (%d,%d): %q, want %q", i, j, spooled[i][j], res.Rows[i][j])
			}
		}
	}
}

// TestJanitorReapsDirectories: once a terminal job's TTL expires, its
// directory is deleted along with its in-memory record.
func TestJanitorReapsDirectories(t *testing.T) {
	st := openTestStore(t)
	rng := rand.New(rand.NewSource(56))
	header, rows := renderTable(dataset.Census(rng, 20, 3))

	m := newTestManager(t, Config{Store: st, ResultTTL: 40 * time.Millisecond})
	job, err := m.Submit(header, rows, JobRequest{K: 2, Algorithm: kanon.AlgoGreedyBall})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, job)

	dir := filepath.Join(st.Dir(), "jobs", job.ID)
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, inMem := m.Get(job.ID)
		_, statErr := os.Stat(dir)
		if !inMem && os.IsNotExist(statErr) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("job not reaped: in-memory=%v, dir err=%v", inMem, statErr)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestJanitorSweepsOrphanedTrash: a jobs/.<id>.rm-* directory left by
// a RemoveAll that crashed between its rename and its delete is gone
// after one janitor pass and no longer reported as skipped; one younger
// than trashGrace may be a delete in flight and is kept.
func TestJanitorSweepsOrphanedTrash(t *testing.T) {
	st := openTestStore(t)
	m := newTestManager(t, Config{Store: st})
	orphan := filepath.Join(st.Dir(), "jobs", ".job-x.rm-123", "job-x")
	fresh := filepath.Join(st.Dir(), "jobs", ".job-y.rm-456")
	for _, dir := range []string{orphan, fresh} {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(filepath.Join(orphan, "manifest.json"), []byte("{}"), 0o644); err != nil {
		t.Fatal(err)
	}
	old := time.Now().Add(-time.Hour)
	if err := os.Chtimes(filepath.Dir(orphan), old, old); err != nil {
		t.Fatal(err)
	}
	if _, skipped, err := st.Jobs(); err != nil || len(skipped) != 2 {
		t.Fatalf("before the sweep: skipped = %v, err = %v; want both trash dirs", skipped, err)
	}

	m.evictExpired(time.Now())

	if _, err := os.Stat(filepath.Dir(orphan)); !os.IsNotExist(err) {
		t.Errorf("orphaned trash survived the janitor pass: %v", err)
	}
	if _, err := os.Stat(fresh); err != nil {
		t.Errorf("trash younger than trashGrace was swept: %v", err)
	}
	_, skipped, err := st.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	if len(skipped) != 1 || skipped[0] != ".job-y.rm-456" {
		t.Errorf("after the sweep: skipped = %v, want only the fresh trash dir", skipped)
	}
}

// TestRestartReclaimsOwnLease: a cluster node restarted under the same
// NodeID re-claims the job its previous life was running at once, long
// before that life's lease would expire — restart recovery does not
// wait out LeaseTTL.
func TestRestartReclaimsOwnLease(t *testing.T) {
	dir := t.TempDir()
	header, rows, direct := smallInstance(t, 57)
	probe := openStoreAt(t, dir)
	man := &store.Manifest{
		ID: "mid-run", State: store.StateQueued, K: 3, Algo: "ball",
		Rows: len(rows), Cols: len(header), SubmittedAt: time.Now().UTC(),
	}
	if err := probe.CreateJob(man, header, rows); err != nil {
		t.Fatal(err)
	}
	// The previous life claimed it under an hour-long lease, then died.
	if _, _, err := probe.ClaimJob("mid-run", "node-a", time.Hour, time.Now()); err != nil {
		t.Fatal(err)
	}

	start := time.Now()
	m := newClusterManager(t, dir, "node-a", func(c *Config) { c.LeaseTTL = time.Hour })
	got := waitManifestState(t, probe, "mid-run", store.StateSucceeded)
	if wait := time.Since(start); wait > 20*time.Second {
		t.Errorf("re-claim took %v", wait)
	}
	if got.Fence != 2 {
		t.Errorf("fence after re-claim = %d, want 2", got.Fence)
	}
	if n := m.Snapshot().Counters["server.jobs_recovered"]; n != 1 {
		t.Errorf("jobs_recovered = %d, want 1", n)
	}
	h, r, err := m.ResultBytes("mid-run")
	if err != nil {
		t.Fatal(err)
	}
	assertSameRelease(t, h, r, direct)

	// A live lease of another node is still left alone.
	other := &store.Manifest{
		ID: "peer-run", State: store.StateQueued, K: 3, Algo: "ball",
		Rows: len(rows), Cols: len(header), SubmittedAt: time.Now().UTC(),
	}
	if err := probe.CreateJob(other, header, rows); err != nil {
		t.Fatal(err)
	}
	if _, _, err := probe.ClaimJob("peer-run", "node-b", time.Hour, time.Now().Add(-time.Minute)); err != nil {
		t.Fatal(err)
	}
	m.pokeClaim()
	time.Sleep(100 * time.Millisecond)
	if pm, err := probe.ReadManifest("peer-run"); err != nil || pm.Claim == nil || pm.Claim.Node != "node-b" {
		t.Fatalf("peer's live lease disturbed: %+v %v", pm, err)
	}
}
