package service

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"ncap/internal/cluster"
	"ncap/internal/experiments"
	"ncap/internal/report"
	"ncap/internal/runner"
)

// Sweep states.
const (
	StateRunning = "running"
	StateDone    = "done"
	StateFailed  = "failed"
)

// Event is one entry of a sweep's progress stream. Seq is the sweep-local
// cursor: events derive only from fsynced journal records, so a client
// that reconnects after a server crash and replays from its last seen
// cursor observes the same prefix with no gaps and no reordering.
type Event struct {
	Seq       int    `json:"seq"`
	Type      string `json:"type"` // submitted, complete, fail, requeue, done, failed, drain
	Tag       string `json:"tag,omitempty"`
	Key       string `json:"key,omitempty"`
	Error     string `json:"error,omitempty"`
	Attempt   int    `json:"attempt,omitempty"`
	Completed int    `json:"completed"` // running totals, for progress bars
	Failed    int    `json:"failed"`
}

// SweepStatus is the GET /v1/sweeps/{id} document.
type SweepStatus struct {
	ID        string `json:"id"`
	Family    string `json:"family"`
	Workload  string `json:"workload,omitempty"`
	State     string `json:"state"`
	Completed int    `json:"completed"`
	Failed    int    `json:"failed"`
	Events    int    `json:"events"`
	Error     string `json:"error,omitempty"`
}

// sweep is one submission's full state: the journaled request, the
// replayed/accumulated per-job results, and the event stream.
type sweep struct {
	id  string
	req SubmitRequest

	state     string
	stateErr  string
	completed map[string]cluster.Result
	failed    map[string]string
	events    []Event

	done   chan struct{} // closed when state leaves StateRunning
	notify chan struct{} // closed+replaced on every event append
}

// Options configures a Service.
type Options struct {
	// Dir is the state directory: journal segments under Dir/journal,
	// finished reports under Dir/reports.
	Dir string
	// CacheDir shares the content-addressed result cache across
	// submissions; empty disables caching.
	CacheDir string
	// Workers is the supervised in-process worker count. Zero runs no
	// local workers — jobs then wait for remote workers (or tests driving
	// the lease API directly).
	Workers int
	// LeaseTTL bounds a worker's silence before its job is re-dispatched.
	// Zero means 30s.
	LeaseTTL time.Duration
	// RetryBackoff delays a re-enqueued job, doubling per attempt. Zero
	// means 250ms.
	RetryBackoff time.Duration
	// Retries is how many re-dispatches a job gets after its first lease
	// (lost worker or reported failure) before it is journaled failed.
	Retries int
	// Timeout is the per-simulation wall-clock watchdog on the local
	// execution pool. Zero means 10 minutes.
	Timeout time.Duration
	// Logf, when non-nil, receives operational log lines.
	Logf func(format string, args ...any)
}

func (o Options) withDefaults() Options {
	if o.LeaseTTL <= 0 {
		o.LeaseTTL = 30 * time.Second
	}
	if o.RetryBackoff <= 0 {
		o.RetryBackoff = 250 * time.Millisecond
	}
	if o.Retries < 0 {
		o.Retries = 0
	}
	if o.Timeout <= 0 {
		o.Timeout = 10 * time.Minute
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
	return o
}

// Service is the sweep orchestrator. Open replays the journal and resumes
// every incomplete sweep; Close drains gracefully.
type Service struct {
	opts Options
	jrnl *Journal
	disp *dispatcher
	exec *runner.Pool // executes simulations (local workers), shared cache

	mu       sync.Mutex
	sweeps   map[string]*sweep
	order    []string
	draining bool

	drivers sync.WaitGroup
	workers sync.WaitGroup
}

// Open starts a service over the state directory: the journal is
// replayed, torn tails recovered, incomplete sweeps resumed, and local
// workers started.
func Open(opts Options) (*Service, error) {
	opts = opts.withDefaults()
	jrnl, recs, err := OpenJournal(filepath.Join(opts.Dir, "journal"))
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(filepath.Join(opts.Dir, "reports"), 0o755); err != nil {
		jrnl.Close()
		return nil, fmt.Errorf("service: %w", err)
	}
	s := &Service{
		opts:   opts,
		jrnl:   jrnl,
		sweeps: map[string]*sweep{},
		exec: runner.New(runner.Options{
			Jobs:     max(opts.Workers, 1),
			CacheDir: opts.CacheDir,
			Timeout:  opts.Timeout,
		}),
	}
	s.disp = newDispatcher(opts.LeaseTTL, opts.RetryBackoff)
	s.disp.onComplete = s.commitComplete
	s.disp.onFail = s.commitFail
	s.disp.onLease = s.journalLease
	s.disp.onRequeue = s.commitRequeue

	if err := s.replay(recs); err != nil {
		s.disp.close()
		jrnl.Close()
		return nil, err
	}
	for i := 0; i < opts.Workers; i++ {
		s.workers.Add(1)
		go s.localWorker(fmt.Sprintf("local-%d", i))
	}
	// Resume every sweep the journal left running.
	s.mu.Lock()
	for _, id := range s.order {
		if sw := s.sweeps[id]; sw.state == StateRunning {
			s.opts.Logf("service: resuming sweep %s (%s, %d jobs already complete)",
				sw.id, sw.req.Family, len(sw.completed))
			s.startDriverLocked(sw)
		}
	}
	s.mu.Unlock()
	return s, nil
}

// replay folds journal records back into sweep state. Any record shape
// the current submit path could not have produced is an error — the
// journal is trusted for durability, not for validity.
func (s *Service) replay(recs []Record) error {
	for _, r := range recs {
		switch r.Type {
		case recSubmit:
			req, err := reparse(r.Request)
			if err != nil {
				return fmt.Errorf("service: journal record %d: %w", r.Seq, err)
			}
			if r.Sweep == "" || s.sweeps[r.Sweep] != nil {
				return fmt.Errorf("service: journal record %d: bad sweep id %q", r.Seq, r.Sweep)
			}
			sw := newSweep(r.Sweep, req)
			s.sweeps[sw.id] = sw
			s.order = append(s.order, sw.id)
			sw.appendEvent(Event{Type: "submitted"})
		case recComplete:
			sw := s.sweeps[r.Sweep]
			if sw == nil || r.Key == "" || r.Result == nil {
				return fmt.Errorf("service: journal record %d: complete without sweep/key/result", r.Seq)
			}
			if _, dup := sw.completed[r.Key]; !dup {
				sw.completed[r.Key] = *r.Result
				sw.appendEvent(Event{Type: "complete", Tag: r.Tag, Key: r.Key})
			}
		case recFail:
			sw := s.sweeps[r.Sweep]
			if sw == nil || r.Key == "" {
				return fmt.Errorf("service: journal record %d: fail without sweep/key", r.Seq)
			}
			if _, dup := sw.failed[r.Key]; !dup {
				sw.failed[r.Key] = r.Error
				sw.appendEvent(Event{Type: "fail", Tag: r.Tag, Key: r.Key, Error: r.Error, Attempt: r.Attempt})
			}
		case recRequeue:
			sw := s.sweeps[r.Sweep]
			if sw == nil {
				return fmt.Errorf("service: journal record %d: requeue without sweep", r.Seq)
			}
			sw.appendEvent(Event{Type: "requeue", Tag: r.Tag, Key: r.Key, Error: r.Error, Attempt: r.Attempt})
		case recDone:
			sw := s.sweeps[r.Sweep]
			if sw == nil {
				return fmt.Errorf("service: journal record %d: done without sweep", r.Seq)
			}
			// Trust done only if the report actually survived the crash —
			// it is written and fsynced before the done record commits, but
			// paranoia is the house style here.
			if _, err := os.Stat(s.reportPath(sw.id)); err == nil {
				sw.setState(StateDone, "")
				sw.appendEvent(Event{Type: "done"})
			}
		case recSweepFail:
			sw := s.sweeps[r.Sweep]
			if sw == nil {
				return fmt.Errorf("service: journal record %d: sweepfail without sweep", r.Seq)
			}
			sw.setState(StateFailed, r.Error)
			sw.appendEvent(Event{Type: "failed", Error: r.Error})
		case recLease, recDrain:
			// Leases do not survive a restart; drain marks are informational.
		default:
			return fmt.Errorf("service: journal record %d: unknown type %q", r.Seq, r.Type)
		}
	}
	return nil
}

func newSweep(id string, req SubmitRequest) *sweep {
	return &sweep{
		id:        id,
		req:       req,
		state:     StateRunning,
		completed: map[string]cluster.Result{},
		failed:    map[string]string{},
		done:      make(chan struct{}),
		notify:    make(chan struct{}),
	}
}

// appendEvent stamps running totals and the cursor, then wakes watchers.
// Callers hold s.mu (or are single-threaded during replay).
func (sw *sweep) appendEvent(e Event) {
	e.Seq = len(sw.events) + 1
	e.Completed = len(sw.completed)
	e.Failed = len(sw.failed)
	sw.events = append(sw.events, e)
	close(sw.notify)
	sw.notify = make(chan struct{})
}

func (sw *sweep) setState(state, msg string) {
	if sw.state != StateRunning {
		return
	}
	sw.state = state
	sw.stateErr = msg
	close(sw.done)
}

// Submit validates, journals, and starts a sweep, returning its ID.
func (s *Service) Submit(req SubmitRequest) (string, error) {
	if err := req.validate(); err != nil {
		return "", err
	}
	if req.Seed == 0 {
		req.Seed = 1
	}
	raw, err := req.canonical()
	if err != nil {
		return "", fmt.Errorf("service: %w", err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return "", fmt.Errorf("service: draining, not accepting submissions")
	}
	id := fmt.Sprintf("s%06d", len(s.order)+1)
	if _, err := s.jrnl.Append(Record{Type: recSubmit, Sweep: id, Request: raw}, true); err != nil {
		return "", err
	}
	sw := newSweep(id, req)
	s.sweeps[id] = sw
	s.order = append(s.order, id)
	sw.appendEvent(Event{Type: "submitted"})
	s.startDriverLocked(sw)
	s.opts.Logf("service: sweep %s submitted (%s)", id, req.Family)
	return id, nil
}

// startDriverLocked launches the sweep's driver goroutine. Caller holds
// s.mu.
func (s *Service) startDriverLocked(sw *sweep) {
	s.drivers.Add(1)
	go s.runDriver(sw)
}

// runDriver re-runs the sweep's experiment family end to end through a
// pool whose Executor resolves each job — from the journal when already
// complete, otherwise by dispatching it to a lease. Because the family
// code enumerates jobs deterministically and the pool preserves
// submission order, a driver resumed after any number of crashes
// assembles outcomes identical to an uninterrupted run's.
func (s *Service) runDriver(sw *sweep) {
	defer s.drivers.Done()
	o, profiles, err := sw.req.options()
	if err != nil { // unreachable after validate; belt and braces
		s.commitSweepFail(sw, err.Error())
		return
	}
	pool := runner.New(runner.Options{
		Jobs:   max(2*s.opts.Workers, 4), // jobs in flight per sweep driver
		Record: true,
		Executor: func(job runner.Job) (cluster.Result, error) {
			return s.executeJob(sw, job)
		},
	})
	o.Runner = pool

	var table bytes.Buffer
	if rerr := experiments.Render(&table, sw.req.Family, o, profiles); rerr != nil {
		s.commitSweepFail(sw, rerr.Error())
		return
	}
	outcomes := pool.Outcomes()
	for _, oc := range outcomes {
		if errors.Is(oc.Err, runner.ErrInterrupted) {
			// Drained mid-sweep: state stays running, nothing journaled —
			// the next Open resumes exactly here.
			s.opts.Logf("service: sweep %s parked by drain", sw.id)
			return
		}
	}

	rep := report.New("ncapd", sw.req.Family)
	rep.AddOutcomes(outcomes)
	var buf bytes.Buffer
	if err := rep.Write(&buf); err != nil {
		s.commitSweepFail(sw, err.Error())
		return
	}
	if err := runner.WriteFileDurable(s.reportPath(sw.id), buf.Bytes()); err != nil {
		s.commitSweepFail(sw, err.Error())
		return
	}
	if err := runner.WriteFileDurable(s.tablePath(sw.id), table.Bytes()); err != nil {
		s.commitSweepFail(sw, err.Error())
		return
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if sw.state != StateRunning {
		return
	}
	if _, err := s.jrnl.Append(Record{Type: recDone, Sweep: sw.id}, true); err != nil {
		// Journal gone (abort/teardown): leave the sweep running so a
		// restart re-derives it; the report on disk is not trusted without
		// its done record.
		s.opts.Logf("service: sweep %s: done record lost: %v", sw.id, err)
		return
	}
	sw.setState(StateDone, "")
	sw.appendEvent(Event{Type: "done"})
	s.opts.Logf("service: sweep %s done (%d runs)", sw.id, len(rep.Runs))
}

// executeJob is the driver pool's Executor: journal replay first, then
// lease-based dispatch.
func (s *Service) executeJob(sw *sweep, job runner.Job) (cluster.Result, error) {
	key := job.Key()
	s.mu.Lock()
	if res, ok := sw.completed[key]; ok {
		s.mu.Unlock()
		return res, nil
	}
	if msg, ok := sw.failed[key]; ok {
		// Replay terminal failures too: they were committed, and replaying
		// them keeps a resumed report identical to the pre-crash timeline.
		s.mu.Unlock()
		return cluster.Result{}, errors.New(msg)
	}
	if s.draining {
		s.mu.Unlock()
		return cluster.Result{}, runner.ErrInterrupted
	}
	s.mu.Unlock()

	t := &ticket{
		sweepID:     sw.id,
		job:         job,
		key:         key,
		maxAttempts: s.opts.Retries + 1,
		ch:          make(chan struct{}),
	}
	s.disp.enqueue(t)
	<-t.ch
	return t.res, t.err
}

// commitComplete journals a job completion (fsync — this is the commit
// point that makes re-execution unnecessary) and updates sweep state.
func (s *Service) commitComplete(t *ticket, res cluster.Result) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sw := s.sweeps[t.sweepID]
	if sw == nil {
		return
	}
	if _, dup := sw.completed[t.key]; dup {
		return
	}
	if _, err := s.jrnl.Append(Record{
		Type: recComplete, Sweep: sw.id, Key: t.key, Tag: t.job.Tag, Result: &res,
	}, true); err != nil {
		s.opts.Logf("service: sweep %s: journal: %v", sw.id, err)
		// The result still settles the waiting driver; it is just not
		// durable — after a crash the job re-executes, which is safe.
	}
	sw.completed[t.key] = res
	sw.appendEvent(Event{Type: "complete", Tag: t.job.Tag, Key: t.key})
}

// commitFail journals a job's terminal failure.
func (s *Service) commitFail(t *ticket, msg string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sw := s.sweeps[t.sweepID]
	if sw == nil {
		return
	}
	if _, dup := sw.failed[t.key]; dup {
		return
	}
	if _, err := s.jrnl.Append(Record{
		Type: recFail, Sweep: sw.id, Key: t.key, Tag: t.job.Tag, Error: msg, Attempt: t.attempt,
	}, true); err != nil {
		s.opts.Logf("service: sweep %s: journal: %v", sw.id, err)
	}
	sw.failed[t.key] = msg
	sw.appendEvent(Event{Type: "fail", Tag: t.job.Tag, Key: t.key, Error: msg, Attempt: t.attempt})
}

// commitRequeue journals a lease expiry / worker failure that leaves
// attempts on the table.
func (s *Service) commitRequeue(t *ticket, msg string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sw := s.sweeps[t.sweepID]
	if sw == nil {
		return
	}
	if _, err := s.jrnl.Append(Record{
		Type: recRequeue, Sweep: sw.id, Key: t.key, Tag: t.job.Tag, Error: msg, Attempt: t.attempt,
	}, true); err != nil {
		s.opts.Logf("service: sweep %s: journal: %v", sw.id, err)
	}
	sw.appendEvent(Event{Type: "requeue", Tag: t.job.Tag, Key: t.key, Error: msg, Attempt: t.attempt})
}

// journalLease records a grant (advisory, unsynced — losing it to a crash
// costs nothing, since leases die with the process anyway).
func (s *Service) journalLease(t *ticket, worker string) {
	if _, err := s.jrnl.Append(Record{
		Type: recLease, Sweep: t.sweepID, Key: t.key, Tag: t.job.Tag, Worker: worker, Attempt: t.attempt,
	}, false); err != nil {
		s.opts.Logf("service: journal: %v", err)
	}
}

// commitSweepFail marks the whole sweep failed (driver-level error).
func (s *Service) commitSweepFail(sw *sweep, msg string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if sw.state != StateRunning {
		return
	}
	if _, err := s.jrnl.Append(Record{Type: recSweepFail, Sweep: sw.id, Error: msg}, true); err != nil {
		s.opts.Logf("service: sweep %s: journal: %v", sw.id, err)
	}
	sw.setState(StateFailed, msg)
	sw.appendEvent(Event{Type: "failed", Error: msg})
	s.opts.Logf("service: sweep %s failed: %s", sw.id, msg)
}

// localWorker is one supervised in-process worker: lease, simulate on the
// shared execution pool, complete. Heartbeats keep long simulations from
// being declared dead.
func (s *Service) localWorker(name string) {
	defer s.workers.Done()
	for {
		t, leaseID := s.disp.next(name, true)
		if t == nil {
			return
		}
		stop := s.keepAlive(leaseID)
		oc := s.exec.RunOne(t.job)
		stop()
		if oc.Err != nil {
			_ = s.disp.fail(leaseID, oc.Err.Error())
		} else {
			_ = s.disp.complete(leaseID, oc.Result)
		}
	}
}

// keepAlive heartbeats a lease every TTL/3 until stopped or rejected.
func (s *Service) keepAlive(leaseID string) (stop func()) {
	ch := make(chan struct{})
	go func() {
		tick := time.NewTicker(s.opts.LeaseTTL / 3)
		defer tick.Stop()
		for {
			select {
			case <-ch:
				return
			case <-tick.C:
				if !s.disp.heartbeat(leaseID) {
					return
				}
			}
		}
	}()
	var once sync.Once
	return func() { once.Do(func() { close(ch) }) }
}

// Status returns a sweep's status document, or false.
func (s *Service) Status(id string) (SweepStatus, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sw := s.sweeps[id]
	if sw == nil {
		return SweepStatus{}, false
	}
	return s.statusLocked(sw), true
}

func (s *Service) statusLocked(sw *sweep) SweepStatus {
	return SweepStatus{
		ID:        sw.id,
		Family:    sw.req.Family,
		Workload:  sw.req.Workload,
		State:     sw.state,
		Completed: len(sw.completed),
		Failed:    len(sw.failed),
		Events:    len(sw.events),
		Error:     sw.stateErr,
	}
}

// List returns every sweep's status in submission order.
func (s *Service) List() []SweepStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]SweepStatus, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.statusLocked(s.sweeps[id]))
	}
	return out
}

// EventsSince returns the sweep's events after cursor, plus a channel
// that closes when newer events (or a state change) arrive — the
// long-poll/SSE building block. ok is false for an unknown sweep.
func (s *Service) EventsSince(id string, cursor int) (evs []Event, notify <-chan struct{}, done <-chan struct{}, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sw := s.sweeps[id]
	if sw == nil {
		return nil, nil, nil, false
	}
	if cursor < 0 {
		cursor = 0
	}
	if cursor < len(sw.events) {
		evs = append(evs, sw.events[cursor:]...)
	}
	return evs, sw.notify, sw.done, true
}

// Report returns a finished sweep's ncap-report-v1 bytes.
func (s *Service) Report(id string) ([]byte, error) {
	s.mu.Lock()
	sw := s.sweeps[id]
	state := ""
	if sw != nil {
		state = sw.state
	}
	s.mu.Unlock()
	if sw == nil {
		return nil, fmt.Errorf("service: unknown sweep %q", id)
	}
	if state != StateDone {
		return nil, fmt.Errorf("service: sweep %s is %s, report not available", id, state)
	}
	return os.ReadFile(s.reportPath(id))
}

// Table returns a finished sweep's rendered text tables.
func (s *Service) Table(id string) ([]byte, error) {
	if _, err := s.Report(id); err != nil { // same availability gate
		return nil, err
	}
	return os.ReadFile(s.tablePath(id))
}

// Wait blocks until the sweep leaves the running state or the timeout
// elapses, returning its final status.
func (s *Service) Wait(id string, timeout time.Duration) (SweepStatus, error) {
	s.mu.Lock()
	sw := s.sweeps[id]
	s.mu.Unlock()
	if sw == nil {
		return SweepStatus{}, fmt.Errorf("service: unknown sweep %q", id)
	}
	select {
	case <-sw.done:
	case <-time.After(timeout):
		return SweepStatus{}, fmt.Errorf("service: sweep %s still running after %v", id, timeout)
	}
	st, _ := s.Status(id)
	return st, nil
}

// Drain stops dispatching: queued jobs settle interrupted (their sweeps
// park for the next boot), in-flight leases finish, and the undispatched
// tail is journaled. Idempotent.
func (s *Service) Drain() {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return
	}
	s.draining = true
	s.mu.Unlock()
	// Lock discipline: dispatcher callbacks acquire s.mu, so s.mu is never
	// held across dispatcher calls.
	pending := s.disp.pendingCount()
	if _, err := s.jrnl.Append(Record{Type: recDrain, Pending: pending}, true); err != nil {
		s.opts.Logf("service: journal: %v", err)
	}
	s.opts.Logf("service: draining (%d undispatched jobs parked)", pending)
	s.disp.close()
}

// Close drains, waits for in-flight work and drivers, and seals the
// journal.
func (s *Service) Close() error {
	s.Drain()
	s.workers.Wait()
	s.drivers.Wait()
	return s.jrnl.Close()
}

// Abort is the kill -9 test hook: the journal drops its file handle with
// no flush, dispatching stops, and everything in memory is abandoned —
// the on-disk state is exactly what a real crash at this instant leaves.
// The returned Service is unusable; reopen the directory to recover.
func (s *Service) Abort() {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	s.jrnl.Abort()
	s.disp.close()
	s.exec.Stop()
	s.workers.Wait()
	s.drivers.Wait()
}

func (s *Service) reportPath(id string) string {
	return filepath.Join(s.opts.Dir, "reports", id+".json")
}

func (s *Service) tablePath(id string) string {
	return filepath.Join(s.opts.Dir, "reports", id+".txt")
}
