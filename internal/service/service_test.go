package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"ncap/internal/cluster"
	"ncap/internal/report"
	"ncap/internal/runner"
)

// tinyE11 is the standard sweep used across service tests: one workload,
// millisecond simulation windows — 21 jobs (3 loss rates x 7 policies),
// fast enough for CI.
func tinyE11() SubmitRequest {
	return SubmitRequest{
		Family:   "e11",
		Workload: "apache",
		Seed:     1,
		Windows:  &Windows{WarmupNs: 10_000_000, MeasureNs: 30_000_000, DrainNs: 10_000_000},
	}
}

const e11Jobs = 21 // len(E11LossRates()) * len(cluster.AllPolicies())

func openService(t *testing.T, dir string, mutate func(*Options)) *Service {
	t.Helper()
	opts := Options{Dir: dir, Workers: 2, LeaseTTL: 5 * time.Second, Logf: t.Logf}
	if mutate != nil {
		mutate(&opts)
	}
	s, err := Open(opts)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return s
}

func mustWaitDone(t *testing.T, s *Service, id string) SweepStatus {
	t.Helper()
	st, err := s.Wait(id, 2*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateDone {
		t.Fatalf("sweep %s finished %s: %s", id, st.State, st.Error)
	}
	return st
}

// TestSweepEndToEnd: submit -> local workers simulate -> report.
func TestSweepEndToEnd(t *testing.T) {
	s := openService(t, t.TempDir(), nil)
	defer s.Close()

	id, err := s.Submit(tinyE11())
	if err != nil {
		t.Fatal(err)
	}
	st := mustWaitDone(t, s, id)
	if st.Completed != e11Jobs || st.Failed != 0 {
		t.Fatalf("completed=%d failed=%d, want %d/0", st.Completed, st.Failed, e11Jobs)
	}

	blob, err := s.Report(id)
	if err != nil {
		t.Fatal(err)
	}
	var rep report.Report
	if err := json.Unmarshal(blob, &rep); err != nil {
		t.Fatalf("report is not JSON: %v", err)
	}
	if rep.Schema != report.Schema || len(rep.Runs) != e11Jobs {
		t.Fatalf("schema %q, %d runs; want %q, %d", rep.Schema, len(rep.Runs), report.Schema, e11Jobs)
	}
	if rep.Interrupted {
		t.Fatal("uninterrupted run marked interrupted")
	}
	if tbl, err := s.Table(id); err != nil || len(tbl) == 0 {
		t.Fatalf("table: %d bytes, err %v", len(tbl), err)
	}
}

// runUninterrupted produces the golden report for byte-identity checks.
func runUninterrupted(t *testing.T, req SubmitRequest) []byte {
	t.Helper()
	s := openService(t, t.TempDir(), nil)
	defer s.Close()
	id, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	mustWaitDone(t, s, id)
	blob, err := s.Report(id)
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// TestCrashRecoveryByteIdenticalReport is the headline guarantee: kill -9
// mid-sweep (journal fd dropped cold), restart over the same directory,
// and the resumed sweep's report is byte-identical to an uninterrupted
// run's.
func TestCrashRecoveryByteIdenticalReport(t *testing.T) {
	req := tinyE11()
	golden := runUninterrupted(t, req)

	dir := t.TempDir()
	s1 := openService(t, dir, nil)
	id, err := s1.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	// Let some jobs commit, then crash with most of the sweep outstanding.
	deadline := time.Now().Add(time.Minute)
	for {
		st, _ := s1.Status(id)
		if st.Completed >= 2 {
			break
		}
		if st.State != StateRunning {
			t.Fatalf("sweep ended early: %+v", st)
		}
		if time.Now().After(deadline) {
			t.Fatal("no progress before crash point")
		}
		time.Sleep(2 * time.Millisecond)
	}
	evsBefore, _, _, _ := s1.EventsSince(id, 0)
	s1.Abort()

	s2 := openService(t, dir, nil)
	defer s2.Close()
	st, ok := s2.Status(id)
	if !ok {
		t.Fatalf("sweep %s lost across restart", id)
	}
	if st.Completed == 0 {
		t.Fatal("journaled completions lost across restart")
	}
	mustWaitDone(t, s2, id)
	resumed, err := s2.Report(id)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resumed, golden) {
		t.Fatalf("resumed report differs from uninterrupted run (%d vs %d bytes)", len(resumed), len(golden))
	}

	// Cursor stability: everything a client saw before the crash was
	// already fsynced, so the replayed event log starts with the exact
	// same prefix — a watcher resuming from its last cursor misses
	// nothing and re-reads nothing inconsistent.
	evsAfter, _, _, ok := s2.EventsSince(id, 0)
	if !ok {
		t.Fatal("events lost across restart")
	}
	if len(evsAfter) < len(evsBefore) {
		t.Fatalf("replayed %d events, client had seen %d", len(evsAfter), len(evsBefore))
	}
	for i, e := range evsBefore {
		r := evsAfter[i]
		if r.Seq != e.Seq || r.Type != e.Type || r.Key != e.Key || r.Completed != e.Completed {
			t.Fatalf("event %d changed across restart: before %+v, after %+v", i, e, r)
		}
	}
	// And resuming from a mid-stream cursor yields exactly the tail.
	mid := len(evsBefore) / 2
	tail, _, _, _ := s2.EventsSince(id, mid)
	if len(tail) != len(evsAfter)-mid || tail[0].Seq != mid+1 {
		t.Fatalf("cursor %d resume: got %d events starting at %d", mid, len(tail), tail[0].Seq)
	}
}

// TestDrainParksAndResumes: SIGTERM-style drain journals the undispatched
// tail, Close seals cleanly, and a reopen finishes the sweep to the same
// bytes.
func TestDrainParksAndResumes(t *testing.T) {
	req := tinyE11()
	golden := runUninterrupted(t, req)

	dir := t.TempDir()
	s1 := openService(t, dir, nil)
	id, err := s1.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(time.Minute)
	for {
		st, _ := s1.Status(id)
		if st.Completed >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no progress before drain")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}
	if st, _ := s1.Status(id); st.State != StateRunning {
		t.Fatalf("drained sweep should stay running (parked), got %s", st.State)
	}
	// Draining rejects new submissions.
	if _, err := s1.Submit(req); err == nil {
		t.Fatal("submit accepted while draining")
	}

	s2 := openService(t, dir, nil)
	defer s2.Close()
	mustWaitDone(t, s2, id)
	resumed, err := s2.Report(id)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resumed, golden) {
		t.Fatal("drain-resumed report differs from uninterrupted run")
	}
}

// TestRestartAfterDoneKeepsReport: a finished sweep survives restart as
// done, with the same report bytes.
func TestRestartAfterDoneKeepsReport(t *testing.T) {
	dir := t.TempDir()
	s1 := openService(t, dir, nil)
	id, err := s1.Submit(tinyE11())
	if err != nil {
		t.Fatal(err)
	}
	mustWaitDone(t, s1, id)
	before, _ := s1.Report(id)
	s1.Close()

	s2 := openService(t, dir, func(o *Options) { o.Workers = 0 })
	defer s2.Close()
	st, ok := s2.Status(id)
	if !ok || st.State != StateDone {
		t.Fatalf("finished sweep replayed as %+v", st)
	}
	after, err := s2.Report(id)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatal("report changed across restart")
	}
}

// simulate runs a job the way a remote worker would, so dispatcher-level
// tests can complete leases with real results.
func simulate(t *testing.T, pool *runner.Pool, job runner.Job) cluster.Result {
	t.Helper()
	oc := pool.RunOne(job)
	if oc.Err != nil {
		t.Fatalf("simulate %s: %v", job.Tag, oc.Err)
	}
	return oc.Result
}

// TestLeaseExpiryRedispatch drives a whole sweep through the remote-lease
// API with no local workers, silently "killing" the worker holding the
// first lease. The job must re-dispatch (with a journaled requeue event)
// and the finished report must contain exactly one row per job — the
// acceptance criterion for lost workers.
func TestLeaseExpiryRedispatch(t *testing.T) {
	golden := runUninterrupted(t, tinyE11())

	s := openService(t, t.TempDir(), func(o *Options) {
		o.Workers = 0
		o.Retries = 2
		o.RetryBackoff = time.Millisecond
	})
	defer s.Close()
	id, err := s.Submit(tinyE11())
	if err != nil {
		t.Fatal(err)
	}

	pool := runner.New(runner.Options{Jobs: 1})
	expired := false
	deadline := time.Now().Add(2 * time.Minute)
	for {
		st, _ := s.Status(id)
		if st.State != StateRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("sweep stuck: %+v", st)
		}
		tk, leaseID := s.disp.next("w1", false)
		if tk == nil {
			time.Sleep(time.Millisecond)
			continue
		}
		if !expired {
			// First lease: the worker dies silently. The scan loop is on a
			// TTL/4 cadence; use the test hook instead of waiting it out.
			expired = true
			s.disp.expire(tk)
			if s.disp.heartbeat(leaseID) {
				t.Fatal("expired lease still heartbeats")
			}
			continue
		}
		if !s.disp.heartbeat(leaseID) {
			t.Fatal("live lease rejected heartbeat")
		}
		if err := s.disp.complete(leaseID, simulate(t, pool, tk.job)); err != nil {
			t.Fatal(err)
		}
	}

	st := mustWaitDone(t, s, id)
	if st.Completed != e11Jobs || st.Failed != 0 {
		t.Fatalf("completed=%d failed=%d, want %d/0", st.Completed, st.Failed, e11Jobs)
	}
	evs, _, _, _ := s.EventsSince(id, 0)
	requeues, completes := 0, map[string]int{}
	for _, e := range evs {
		switch e.Type {
		case "requeue":
			requeues++
		case "complete":
			completes[e.Key]++
		}
	}
	if requeues != 1 {
		t.Fatalf("%d requeue events, want exactly 1", requeues)
	}
	for k, n := range completes {
		if n != 1 {
			t.Fatalf("job %s completed %d times", k, n)
		}
	}
	blob, _ := s.Report(id)
	var rep report.Report
	if err := json.Unmarshal(blob, &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Runs) != e11Jobs {
		t.Fatalf("report has %d rows, want %d (no duplicates from the re-dispatch)", len(rep.Runs), e11Jobs)
	}
	if !bytes.Equal(blob, golden) {
		t.Fatal("report after lease expiry differs from a clean run")
	}
}

// TestStaleCompletionAfterExpiry: a worker presumed dead delivers its
// result after its lease expired. The result is accepted (deterministic
// results make the race harmless) and the re-dispatched copy's later
// completion is dropped — exactly-once-effective either way.
func TestStaleCompletionAfterExpiry(t *testing.T) {
	var completions atomic.Int32
	d := newDispatcher(time.Hour, time.Millisecond)
	defer d.close()
	d.onComplete = func(t *ticket, res cluster.Result) { completions.Add(1) }
	d.onRequeue = func(*ticket, string) {}

	tk := &ticket{sweepID: "s1", key: "k", maxAttempts: 3, ch: make(chan struct{})}
	d.enqueue(tk)
	tk1, lease1 := d.next("slow", false)
	if tk1 != tk {
		t.Fatal("wrong ticket")
	}
	d.expire(tk)
	// Re-dispatch happens after backoff; wait for the queue to refill.
	var lease2 string
	for i := 0; i < 1000; i++ {
		if tk2, l2 := d.next("fresh", false); tk2 != nil {
			lease2 = l2
			break
		}
		time.Sleep(time.Millisecond)
	}
	if lease2 == "" {
		t.Fatal("expired ticket never re-dispatched")
	}

	// The "dead" worker finishes first, through the expired lease.
	if err := d.complete(lease1, cluster.Result{Completed: 1}); err != nil {
		t.Fatalf("stale completion rejected: %v", err)
	}
	<-tk.ch
	if tk.err != nil || tk.res.Completed != 1 {
		t.Fatalf("ticket settled wrong: res=%+v err=%v", tk.res, tk.err)
	}
	// The re-dispatched copy lands later: dropped, no double commit.
	if err := d.complete(lease2, cluster.Result{Completed: 99}); err != nil {
		t.Fatalf("duplicate completion errored: %v", err)
	}
	if tk.res.Completed != 1 {
		t.Fatal("duplicate completion overwrote the committed result")
	}
	if n := completions.Load(); n != 1 {
		t.Fatalf("onComplete ran %d times, want 1", n)
	}
	// A stale failure after settlement is also a no-op.
	if err := d.fail(lease2, "late error"); err == nil {
		// lease2 already consumed by complete; unknown now.
	}
}

// TestStaleFailureDoesNotBurnAttempt: an expired lease's late failure
// report must not consume a second attempt (the expiry already did).
func TestStaleFailureDoesNotBurnAttempt(t *testing.T) {
	var requeues, fails atomic.Int32
	d := newDispatcher(time.Hour, time.Millisecond)
	defer d.close()
	d.onComplete = func(*ticket, cluster.Result) {}
	d.onRequeue = func(*ticket, string) { requeues.Add(1) }
	d.onFail = func(*ticket, string) { fails.Add(1) }

	tk := &ticket{sweepID: "s1", key: "k", maxAttempts: 2, ch: make(chan struct{})}
	d.enqueue(tk)
	_, lease1 := d.next("w", false)
	d.expire(tk) // attempt 1 burned -> requeue
	if err := d.fail(lease1, "late failure from dead worker"); err != nil {
		t.Fatalf("stale fail: %v", err)
	}
	if n := requeues.Load(); n != 1 {
		t.Fatalf("%d requeues, want 1 (stale failure must not requeue again)", n)
	}
	if n := fails.Load(); n != 0 {
		t.Fatalf("stale failure terminally failed the ticket (%d)", n)
	}
	// The second (last) attempt failing for real is terminal.
	var l2 string
	for i := 0; i < 1000; i++ {
		if tk2, l := d.next("w", false); tk2 != nil {
			l2 = l
			break
		}
		time.Sleep(time.Millisecond)
	}
	if l2 == "" {
		t.Fatal("never re-dispatched")
	}
	if err := d.fail(l2, "boom"); err != nil {
		t.Fatal(err)
	}
	<-tk.ch
	if tk.err == nil {
		t.Fatal("exhausted ticket settled without error")
	}
	if n := fails.Load(); n != 1 {
		t.Fatalf("onFail ran %d times, want 1", n)
	}
}

// TestFailedJobReplaysAcrossRestart: a job that exhausts its attempts is
// journaled failed, and a restart replays the same failure instead of
// re-executing — the report (with its error row) is stable.
func TestFailedJobReplaysAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	s1 := openService(t, dir, func(o *Options) {
		o.Workers = 0
		o.Retries = 0
		o.RetryBackoff = time.Millisecond
	})
	id, err := s1.Submit(tinyE11())
	if err != nil {
		t.Fatal(err)
	}
	pool := runner.New(runner.Options{Jobs: 1})
	failedKey := ""
	deadline := time.Now().Add(2 * time.Minute)
	for {
		st, _ := s1.Status(id)
		if st.State != StateRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("sweep stuck: %+v", st)
		}
		tk, leaseID := s1.disp.next("w1", false)
		if tk == nil {
			time.Sleep(time.Millisecond)
			continue
		}
		if failedKey == "" {
			failedKey = tk.key
			if err := s1.disp.fail(leaseID, "injected worker failure"); err != nil {
				t.Fatal(err)
			}
			continue
		}
		if err := s1.disp.complete(leaseID, simulate(t, pool, tk.job)); err != nil {
			t.Fatal(err)
		}
	}
	st, err := s1.Wait(id, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateDone || st.Failed != 1 || st.Completed != e11Jobs-1 {
		t.Fatalf("status %+v, want done with 1 failed row", st)
	}
	before, err := s1.Report(id)
	if err != nil {
		t.Fatal(err)
	}
	var rep report.Report
	if err := json.Unmarshal(before, &rep); err != nil {
		t.Fatal(err)
	}
	errRows := 0
	for _, r := range rep.Runs {
		if r.Error != "" {
			errRows++
			if r.Error != "injected worker failure" {
				t.Fatalf("error row says %q", r.Error)
			}
		}
	}
	if errRows != 1 {
		t.Fatalf("%d error rows, want 1", errRows)
	}
	s1.Close()

	// Restart with zero workers: nothing can execute, so a done state and
	// identical bytes prove the failure (and everything else) replayed.
	s2 := openService(t, dir, func(o *Options) { o.Workers = 0 })
	defer s2.Close()
	st2, ok := s2.Status(id)
	if !ok || st2.State != StateDone || st2.Failed != 1 {
		t.Fatalf("restart replayed %+v", st2)
	}
	after, err := s2.Report(id)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatal("failed-job report changed across restart")
	}
}

// TestSubmitValidation: garbage never reaches the journal.
func TestSubmitValidation(t *testing.T) {
	s := openService(t, t.TempDir(), func(o *Options) { o.Workers = 0 })
	defer s.Close()
	for _, req := range []SubmitRequest{
		{},                   // no family
		{Family: "nonsense"}, // unknown family
		{Family: "e11", Workload: "oracle"},
		{Family: "e11", Windows: &Windows{WarmupNs: -1, MeasureNs: 1, DrainNs: 1}},
	} {
		if _, err := s.Submit(req); err == nil {
			t.Fatalf("Submit(%+v) accepted", req)
		}
	}
	if len(s.List()) != 0 {
		t.Fatal("rejected submissions left sweeps behind")
	}
}

// TestResultCacheSharedAcrossSubmissions: with a cache directory, a
// resubmitted sweep re-uses content-addressed results instead of
// re-simulating, and still produces identical bytes.
func TestResultCacheSharedAcrossSubmissions(t *testing.T) {
	cache := t.TempDir()
	s := openService(t, t.TempDir(), func(o *Options) { o.CacheDir = cache })
	defer s.Close()

	id1, err := s.Submit(tinyE11())
	if err != nil {
		t.Fatal(err)
	}
	mustWaitDone(t, s, id1)
	first, _ := s.Report(id1)

	start := time.Now()
	id2, err := s.Submit(tinyE11())
	if err != nil {
		t.Fatal(err)
	}
	mustWaitDone(t, s, id2)
	cached := time.Since(start)
	second, _ := s.Report(id2)
	if !bytes.Equal(first, second) {
		t.Fatal("cached resubmission produced different report bytes")
	}
	t.Logf("cached resubmission took %v", cached)
}

// TestExecuteJobInterruptedWhileDraining: drivers see ErrInterrupted for
// jobs that reach the executor mid-drain, which parks the sweep.
func TestExecuteJobInterruptedWhileDraining(t *testing.T) {
	s := openService(t, t.TempDir(), func(o *Options) { o.Workers = 0 })
	id, err := s.Submit(tinyE11())
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	st, ok := s.Status(id)
	if !ok || st.State != StateRunning {
		t.Fatalf("sweep with zero progress should park running, got %+v", st)
	}
	sw := s.sweeps[id]
	if _, err := s.executeJob(sw, runner.Job{Tag: "x"}); !errors.Is(err, runner.ErrInterrupted) {
		t.Fatalf("executeJob while draining: %v, want ErrInterrupted", err)
	}
}
