package runner

import (
	"errors"
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"ncap/internal/audit"
	"ncap/internal/cluster"
)

// Options configures a Pool.
type Options struct {
	// Jobs is the number of concurrent simulations; <= 0 selects
	// runtime.GOMAXPROCS(0). 1 reproduces serial execution exactly.
	Jobs int
	// CacheDir enables the content-keyed result cache when non-empty: a
	// job whose key has a stored result is not run. The directory is
	// created on first use and is safe to share between processes.
	CacheDir string
	// Timeout bounds each job's wall-clock time; 0 means no limit. A
	// timed-out job yields an Outcome.Err and its worker moves on; the
	// abandoned simulation is halted (sim.Engine.Halt), so its goroutine
	// exits after the event in flight instead of simulating to the end.
	Timeout time.Duration
	// Progress, when non-nil, receives human-readable batch progress
	// (completed/total, cache hits, ETA). Point it at stderr so sweep
	// tables on stdout stay byte-identical at any worker count.
	Progress io.Writer
	// Record keeps every Outcome of every Run for later export (see
	// Outcomes). Off by default: a long-lived pool recording forever
	// would grow without bound.
	Record bool
	// Audit runs every job with the runtime invariant auditor wired
	// through the simulator (see internal/audit). Auditing is pure
	// observation — Results stay byte-identical — but audited jobs are
	// never served from the cache: a skipped job cannot vouch for its
	// invariants. Violations land on Outcome.Violations.
	Audit bool
	// Executor, when non-nil, replaces in-process simulation: instead of
	// constructing and running the cluster locally, the pool hands each
	// job to this function and treats its return as the job's execution.
	// The orchestration service uses it to dispatch jobs to lease-based
	// workers while keeping the pool's ordering, caching and
	// outcome-recording semantics. The executor owns isolation (panics
	// on its own goroutine are still recovered into failure rows, but
	// timeouts and retries of the remote work are its business).
	Executor func(Job) (cluster.Result, error)
}

// ErrInterrupted marks a job the pool never dispatched because Stop was
// called first. Report writers skip these outcomes: the rows are absent,
// not failed, and a resumed sweep fills them in.
var ErrInterrupted = errors.New("runner: interrupted before dispatch")

// Outcome is one job's fate: a result, or an error from a panic or
// timeout. Err is nil on success. A failed Outcome is a reportable row,
// not an abort: the rest of the batch still runs to completion. A job
// runs at most once per Run or RunOne; a failure is never cached, so a
// rerun over the same cache directory executes exactly the failures.
type Outcome struct {
	Job      Job
	Result   cluster.Result
	Err      error
	CacheHit bool
	// Violations are the invariant violations an audited run collected
	// (Options.Audit); nil when auditing is off or the run was clean.
	Violations []audit.Violation
}

// Stats accumulates across every Run on a pool.
type Stats struct {
	Jobs      int64 // jobs submitted
	Ran       int64 // simulations actually executed
	CacheHits int64
	Failures  int64 // jobs that timed out or panicked
}

// Pool runs batches of simulation jobs across a bounded set of workers.
// Between batches a Pool keeps only its cache directory, cumulative Stats
// and the storages its finished simulations leave for the next ones; it
// is safe to reuse across many Run calls. Run batches should be issued
// from one goroutine at a time, but RunOne may be called concurrently
// from many goroutines — the cache, stats and storages are internally
// synchronized.
type Pool struct {
	opts  Options
	cache *cache

	// stop is closed by Stop: the feeder quits dispatching, in-flight
	// jobs finish, and undispatched jobs get ErrInterrupted outcomes.
	stop     chan struct{}
	stopOnce sync.Once

	jobs, ran, hits, fails atomic.Int64

	// recorded accumulates outcomes in submission order when Options.Record
	// is set. Appended only after each batch's wg.Wait() (and under mu for
	// RunOne), so the order is deterministic at any worker count.
	mu       sync.Mutex
	recorded []Outcome

	// idle holds the storages of finished simulations, at most one per
	// job the pool has run at once: each in-process job takes one (or a
	// new one) and gives it back only if its run returned normally, so a
	// worker's next job reuses its predecessor's memory.
	idleMu sync.Mutex
	idle   []*cluster.Storage
}

// New creates a pool. An unusable cache directory disables caching and
// surfaces the error on every Outcome of the first Run — construction
// itself cannot fail, which keeps CLI wiring simple.
func New(opts Options) *Pool {
	if opts.Jobs <= 0 {
		opts.Jobs = runtime.GOMAXPROCS(0)
	}
	p := &Pool{opts: opts, stop: make(chan struct{})}
	if opts.CacheDir != "" {
		c, err := openCache(opts.CacheDir)
		if err != nil {
			// Fall back to uncached execution; the sweep still works.
			if opts.Progress != nil {
				fmt.Fprintf(opts.Progress, "runner: %v (caching disabled)\n", err)
			}
		} else {
			p.cache = c
		}
	}
	return p
}

// Stop asks the pool to drain gracefully: no further jobs are dispatched,
// in-flight simulations run to completion, and every undispatched job's
// Outcome carries ErrInterrupted. Safe to call from a signal handler
// goroutine, concurrently with Run, and more than once.
func (p *Pool) Stop() {
	p.stopOnce.Do(func() { close(p.stop) })
}

// Stopped reports whether Stop has been called.
func (p *Pool) Stopped() bool {
	select {
	case <-p.stop:
		return true
	default:
		return false
	}
}

// Workers returns the effective concurrency.
func (p *Pool) Workers() int { return p.opts.Jobs }

// Stats returns cumulative counters across all Run calls.
func (p *Pool) Stats() Stats {
	return Stats{
		Jobs:      p.jobs.Load(),
		Ran:       p.ran.Load(),
		CacheHits: p.hits.Load(),
		Failures:  p.fails.Load(),
	}
}

// Run executes a batch and returns one Outcome per job, in job order —
// outcomes[i] always belongs to jobs[i], whatever order the workers
// finished in. Workers pull jobs from a shared queue, so a batch larger
// than the worker count keeps every worker busy until the queue drains.
func (p *Pool) Run(jobs []Job) []Outcome {
	out := make([]Outcome, len(jobs))
	if len(jobs) == 0 {
		return out
	}
	p.jobs.Add(int64(len(jobs)))
	prog := newProgress(p.opts.Progress, len(jobs))

	workers := p.opts.Jobs
	if workers > len(jobs) {
		workers = len(jobs)
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range idx {
				// A job dispatched but not yet started when Stop lands is
				// not in-flight: it is marked interrupted, not run. The
				// check is deterministic — a closed stop channel always
				// wins over default.
				select {
				case <-p.stop:
					out[i] = Outcome{Job: jobs[i], Err: ErrInterrupted}
				default:
					out[i] = p.runOne(jobs[i])
				}
				prog.jobDone(out[i].CacheHit)
			}
		}()
	}
	// The feeder dispatches in submission order and quits at Stop; the
	// channel is unbuffered, so every index that left the loop is with a
	// worker and will be filled in before wg.Wait returns. Undispatched
	// jobs are exactly the tail [sent, len). The non-blocking check first
	// gives Stop deterministic priority over an already-sendable dispatch.
	sent := len(jobs)
feed:
	for i := range jobs {
		select {
		case <-p.stop:
			sent = i
			break feed
		default:
		}
		select {
		case idx <- i:
		case <-p.stop:
			sent = i
			break feed
		}
	}
	close(idx)
	wg.Wait()
	for i := sent; i < len(jobs); i++ {
		out[i] = Outcome{Job: jobs[i], Err: ErrInterrupted}
	}
	p.record(out)
	return out
}

// RunOne executes a single job with the pool's isolation and caching.
// Unlike Run, RunOne is safe to call from many goroutines concurrently —
// the orchestration service's workers share one pool this way.
func (p *Pool) RunOne(job Job) Outcome {
	p.jobs.Add(1)
	o := p.runOne(job)
	p.record([]Outcome{o})
	return o
}

func (p *Pool) record(out []Outcome) {
	if !p.opts.Record {
		return
	}
	p.mu.Lock()
	p.recorded = append(p.recorded, out...)
	p.mu.Unlock()
}

// Outcomes returns every outcome recorded so far, in submission order
// across batches. It returns nil unless Options.Record was set. The
// returned slice is a copy; mutating it does not affect the pool.
func (p *Pool) Outcomes() []Outcome {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.recorded == nil {
		return nil
	}
	out := make([]Outcome, len(p.recorded))
	copy(out, p.recorded)
	return out
}

func (p *Pool) runOne(job Job) (o Outcome) {
	o = Outcome{Job: job}
	// Last-resort recovery: execute already fences the simulation
	// goroutine, but a panic on the worker's own path — job.Key() on a
	// non-serializable config, a cache fault — would otherwise take down
	// the whole sweep. It becomes a failure row like any other error.
	defer func() {
		if r := recover(); r != nil {
			o.Err = fmt.Errorf("runner: job %q panicked: %v\n%s", job.Tag, r, debug.Stack())
			p.fails.Add(1)
		}
	}()

	if p.opts.Audit {
		job.Config.Audit = true
	}
	var key string
	if job.Cacheable() && p.cache != nil {
		key = job.Key()
		if res, ok := p.cache.load(key); ok {
			p.hits.Add(1)
			o.Result, o.CacheHit = res, true
			return o
		}
	}

	o.Result, o.Violations, o.Err = p.execute(job)
	if o.Err != nil {
		p.fails.Add(1)
		return o
	}
	p.ran.Add(1)
	if key != "" {
		if err := p.cache.store(key, job.Tag, job, o.Result); err != nil && p.opts.Progress != nil {
			fmt.Fprintf(p.opts.Progress, "runner: %v\n", err)
		}
	}
	return o
}

// jobResult crosses the isolation goroutine boundary. The channel is
// buffered so an abandoned (timed-out, halted) simulation can still
// deposit its result and exit instead of leaking forever.
type jobResult struct {
	res        cluster.Result
	violations []audit.Violation
	err        error
}

// execute runs one simulation in its own goroutine so a panic inside the
// simulator (a pathological configuration tripping an internal invariant)
// or a hung run cannot take down or stall the whole sweep.
func (p *Pool) execute(job Job) (cluster.Result, []audit.Violation, error) {
	if p.opts.Executor != nil {
		res, err := p.opts.Executor(job)
		return res, nil, err
	}
	st := p.takeStorage()
	ch := make(chan jobResult, 1)
	// A timeout halts the simulation's engine. It may fire while the
	// cluster is still being built, so each side checks the other's flag
	// after setting its own: one of them always sees both.
	var (
		live     atomic.Pointer[cluster.Cluster]
		timedOut atomic.Bool
	)
	go func() {
		defer func() {
			if r := recover(); r != nil {
				ch <- jobResult{err: fmt.Errorf("runner: job %q panicked: %v\n%s",
					job.Tag, r, debug.Stack())}
			}
		}()
		cl := cluster.NewWith(job.Config, st)
		live.Store(cl)
		if timedOut.Load() {
			cl.Engine().Halt()
		}
		res := cl.Run()
		ch <- jobResult{res: res, violations: cl.AuditViolations()}
	}()

	var timeout <-chan time.Time
	if p.opts.Timeout > 0 {
		timer := time.NewTimer(p.opts.Timeout)
		defer timer.Stop()
		timeout = timer.C
	}
	select {
	case r := <-ch:
		// A panicked run may have left its objects anywhere: its storage
		// is dropped with it.
		if r.err == nil {
			p.putStorage(st)
		}
		return r.res, r.violations, r.err
	case <-timeout:
		// The abandoned simulation may still be running on its storage,
		// which is never taken again.
		timedOut.Store(true)
		if cl := live.Load(); cl != nil {
			cl.Engine().Halt()
		}
		return cluster.Result{}, nil, fmt.Errorf("runner: job %q exceeded the %v wall-clock timeout",
			job.Tag, p.opts.Timeout)
	}
}

// takeStorage returns an idle storage, or a new one.
func (p *Pool) takeStorage() *cluster.Storage {
	p.idleMu.Lock()
	defer p.idleMu.Unlock()
	if n := len(p.idle); n > 0 {
		st := p.idle[n-1]
		p.idle = p.idle[:n-1]
		return st
	}
	return cluster.NewStorage()
}

// putStorage gives back the storage of a run that returned normally.
func (p *Pool) putStorage(st *cluster.Storage) {
	p.idleMu.Lock()
	p.idle = append(p.idle, st)
	p.idleMu.Unlock()
}
