package service

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"sync"
	"time"

	"ncap/internal/cluster"
	"ncap/internal/runner"
)

// ticket is one job's dispatch state. Executors (driver goroutines) wait
// on ch; workers complete the ticket through a lease. Every executeJob
// call whose content key has not completed yet makes a fresh ticket, so
// two copies of one config in flight in a sweep are dispatched twice;
// commitComplete journals the first completion of the key and drops the
// second. Duplicate completions of one ticket (a re-leased job finishing
// twice) settle it once: results are a pure function of the config, so
// whichever copy arrives first is the result.
type ticket struct {
	sweepID     string
	job         runner.Job
	key         string
	attempt     int // lease attempts consumed
	maxAttempts int

	ch        chan struct{} // closed exactly once, on completion or drain
	res       cluster.Result
	err       error
	completed bool
}

// lease is one time-bounded grant of a ticket to a worker. Expired leases
// stay in the table (marked) until their ticket completes, so a stale
// completion from a presumed-dead worker can still be matched — and
// either accepted (ticket still open: deterministic results make the
// re-execution race harmless) or ignored (ticket already settled).
type lease struct {
	t        *ticket
	worker   string
	deadline time.Time
	expired  bool
}

// dispatcher owns the ready queue and the lease table. It never touches
// sweep state or the journal itself; completions are handed back to the
// service through the commit callbacks wired in newDispatcher.
type dispatcher struct {
	ttl     time.Duration
	backoff time.Duration

	onComplete func(t *ticket, res cluster.Result) // journals + settles
	onFail     func(t *ticket, msg string)         // journals + settles
	onLease    func(t *ticket, worker string)      // journals (advisory)
	onRequeue  func(t *ticket, msg string)         // journals + event

	mu     sync.Mutex
	cond   *sync.Cond
	queue  []*ticket
	leases map[string]*lease
	closed bool

	stopScan chan struct{}
	scanDone chan struct{}
}

func newDispatcher(ttl, backoff time.Duration) *dispatcher {
	d := &dispatcher{
		ttl:      ttl,
		backoff:  backoff,
		leases:   map[string]*lease{},
		stopScan: make(chan struct{}),
		scanDone: make(chan struct{}),
	}
	d.cond = sync.NewCond(&d.mu)
	go d.scan()
	return d
}

// enqueue adds a ticket to the ready queue.
func (d *dispatcher) enqueue(t *ticket) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		d.settleLocked(t, cluster.Result{}, runner.ErrInterrupted)
		return
	}
	d.queue = append(d.queue, t)
	d.cond.Signal()
}

// settleLocked closes a ticket exactly once with the given outcome.
// Callers hold d.mu.
func (d *dispatcher) settleLocked(t *ticket, res cluster.Result, err error) {
	if t.completed {
		return
	}
	t.completed = true
	t.res = res
	t.err = err
	close(t.ch)
}

// next blocks until a ticket is available (or the dispatcher is closed,
// returning nil) and leases the first live one to worker. block false
// polls instead — the remote lease endpoint uses that.
func (d *dispatcher) next(worker string, block bool) (*ticket, string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for {
		if d.closed {
			return nil, ""
		}
		// Drop tickets settled while queued, then grant the first.
		live := d.queue[:0]
		for _, t := range d.queue {
			if !t.completed {
				live = append(live, t)
			}
		}
		d.queue = live
		if len(d.queue) > 0 {
			t := d.queue[0]
			d.queue = append(d.queue[:0], d.queue[1:]...)
			t.attempt++
			id := newLeaseID()
			d.leases[id] = &lease{t: t, worker: worker, deadline: time.Now().Add(d.ttl)}
			if d.onLease != nil {
				d.onLease(t, worker)
			}
			return t, id
		}
		if !block {
			return nil, ""
		}
		d.cond.Wait()
	}
}

// heartbeat extends a live lease and reports whether it is still valid.
// An expired or unknown lease returns false: the worker must abandon the
// job (its re-execution is already queued or settled elsewhere).
func (d *dispatcher) heartbeat(id string) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	l, ok := d.leases[id]
	if !ok || l.expired || l.t.completed {
		return false
	}
	l.deadline = time.Now().Add(d.ttl)
	return true
}

// complete settles a leased ticket with a result. Duplicate and stale
// completions are idempotent: the first settle wins, later ones are
// dropped. Unknown lease IDs are an error (malformed or fabricated).
func (d *dispatcher) complete(id string, res cluster.Result) error {
	d.mu.Lock()
	l, ok := d.leases[id]
	if !ok {
		d.mu.Unlock()
		return fmt.Errorf("unknown lease %q", id)
	}
	delete(d.leases, id)
	t := l.t
	if t.completed {
		d.mu.Unlock()
		return nil // already settled — duplicate or stale completion, drop
	}
	// Note: an expired lease still completes here. The worker was presumed
	// dead and the job re-queued, but results are a pure function of the
	// config, so the late copy is the same result — take it.
	t.completed = true
	t.res = res
	t.err = nil
	d.mu.Unlock()
	// Journal + sweep bookkeeping outside d.mu (the commit fsyncs).
	d.onComplete(t, res)
	close(t.ch)
	return nil
}

// fail records a worker-reported failure for a leased ticket. A failure
// consumes the lease's attempt; with attempts left the ticket re-enqueues
// after backoff, otherwise it settles failed. Stale failures (ticket
// already settled) are ignored — a result always beats an error.
func (d *dispatcher) fail(id, msg string) error {
	d.mu.Lock()
	l, ok := d.leases[id]
	if !ok {
		d.mu.Unlock()
		return fmt.Errorf("unknown lease %q", id)
	}
	delete(d.leases, id)
	t := l.t
	if t.completed || l.expired {
		// Settled, or this lease already consumed its attempt when it
		// expired — a stale failure must not burn a second attempt.
		d.mu.Unlock()
		return nil
	}
	d.retryOrFailLocked(t, msg)
	d.mu.Unlock()
	return nil
}

// retryOrFailLocked re-enqueues a ticket with attempts remaining (after
// exponential backoff) or settles it failed. Callers hold d.mu; the
// terminal-failure commit runs outside it.
func (d *dispatcher) retryOrFailLocked(t *ticket, msg string) {
	if d.closed {
		// Draining: the sweep parks and re-runs on the next boot, so the
		// attempt is not terminal — settle interrupted, journal nothing.
		d.settleLocked(t, cluster.Result{}, runner.ErrInterrupted)
		return
	}
	if t.attempt < t.maxAttempts {
		delay := d.backoff << (t.attempt - 1)
		if d.onRequeue != nil {
			d.onRequeue(t, msg)
		}
		time.AfterFunc(delay, func() { d.enqueue(t) })
		return
	}
	t.completed = true
	t.err = fmt.Errorf("%s", msg)
	go func() { // onFail journals with fsync; keep it off the lock
		d.onFail(t, msg)
		close(t.ch)
	}()
}

// scan is the expiry loop: every ttl/4 it sweeps the lease table, prunes
// leases whose tickets settled, and treats overdue heartbeats as worker
// death — the ticket consumes the attempt and requeues or fails.
func (d *dispatcher) scan() {
	defer close(d.scanDone)
	tick := time.NewTicker(d.ttl / 4)
	defer tick.Stop()
	for {
		select {
		case <-d.stopScan:
			return
		case now := <-tick.C:
			d.mu.Lock()
			for id, l := range d.leases {
				if l.t.completed {
					delete(d.leases, id)
					continue
				}
				if l.expired || now.Before(l.deadline) {
					continue
				}
				// Mark expired but keep the lease in the table until its
				// ticket settles, so a stale completion still matches.
				l.expired = true
				d.retryOrFailLocked(l.t, fmt.Sprintf("lease expired (worker %s, attempt %d/%d)",
					l.worker, l.t.attempt, l.t.maxAttempts))
			}
			d.mu.Unlock()
		}
	}
}

// expire force-expires every live lease holding the given ticket — the
// test hook for "worker died silently" without waiting out the TTL.
func (d *dispatcher) expire(t *ticket) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, l := range d.leases {
		if l.t != t || l.expired || t.completed {
			continue
		}
		l.expired = true
		d.retryOrFailLocked(t, fmt.Sprintf("lease expired (worker %s, attempt %d/%d)",
			l.worker, t.attempt, t.maxAttempts))
	}
}

// close drains the dispatcher: queued (undispatched) tickets settle as
// interrupted so their drivers can park the sweep for the next boot, new
// enqueues settle immediately, and blocked next callers wake with nil.
// In-flight leases are left to finish — that is the graceful half of
// SIGTERM draining.
func (d *dispatcher) close() {
	d.mu.Lock()
	if !d.closed {
		d.closed = true
		for _, t := range d.queue {
			d.settleLocked(t, cluster.Result{}, runner.ErrInterrupted)
		}
		d.queue = nil
		close(d.stopScan)
	}
	d.cond.Broadcast()
	d.mu.Unlock()
	<-d.scanDone
}

// pendingCount reports queued (undispatched) tickets, for the drain
// journal record.
func (d *dispatcher) pendingCount() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.queue)
}

// newLeaseID returns a random 128-bit hex token. Lease IDs are
// capability-style: completing a job requires presenting one, which keeps
// accidental cross-talk between workers impossible.
func newLeaseID() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(fmt.Sprintf("service: lease id entropy: %v", err)) // crypto/rand never fails on supported platforms
	}
	return hex.EncodeToString(b[:])
}
