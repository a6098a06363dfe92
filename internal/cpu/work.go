// Package cpu models the server processor: four out-of-order cores with
// chip-wide DVFS (P-states) and per-core sleep states (C-states), matching
// the paper's Table 1 configuration.
//
// Execution is modeled at task granularity: work items carry cycle budgets
// and their wall-clock duration scales with the chip frequency, which is
// what makes DVFS decisions matter. Hardware interrupts preempt softirqs,
// which preempt tasks — the priority structure the Linux network stack
// imposes on packet processing.
package cpu

import "fmt"

// Priority orders work classes on a core. Lower values preempt higher ones.
type Priority int

const (
	// PrioIRQ is hardware interrupt context: preempts everything.
	PrioIRQ Priority = iota
	// PrioSoftIRQ is softirq context (NET_RX/NET_TX processing).
	PrioSoftIRQ
	// PrioTask is ordinary schedulable work (application threads).
	PrioTask

	numPrios
)

func (p Priority) String() string {
	switch p {
	case PrioIRQ:
		return "irq"
	case PrioSoftIRQ:
		return "softirq"
	case PrioTask:
		return "task"
	}
	return fmt.Sprintf("prio?%d", int(p))
}

// Work is a unit of execution: a cycle budget plus a completion callback.
// A Work is owned by whoever submits it, never by the Core: the Core holds
// it only while it is queued or running and drops it before OnDone runs,
// so OnDone may resubmit it and owners may embed or pool their Works.
// Submitting a Work that is already queued or running panics.
type Work struct {
	// Name labels the work for debugging and tracing.
	Name string
	// Cycles is the remaining cycle budget. Non-positive budgets are
	// clamped to one cycle at submission.
	Cycles int64
	// Prio selects the execution class.
	Prio Priority
	// OnDone runs (in event context) when the budget is exhausted. It may
	// submit new work. May be nil.
	OnDone func()

	// held is set from Submit until the Core clears it just before OnDone.
	held bool
}

// Pending reports whether w is queued or running on a core.
func (w *Work) Pending() bool { return w.held }

// workRing is a FIFO of queued Works with a cheap push at the front — a
// preempted item resumes before its class's other queued work. Its buffer
// grows lazily to a power of two and is reused from then on.
type workRing struct {
	buf  []*Work
	head int
	n    int
}

func (r *workRing) grow() {
	if r.n < len(r.buf) {
		return
	}
	buf := make([]*Work, max(4, 2*len(r.buf)))
	for i := 0; i < r.n; i++ {
		buf[i] = r.buf[(r.head+i)&(len(r.buf)-1)]
	}
	r.buf, r.head = buf, 0
}

func (r *workRing) pushBack(w *Work) {
	r.grow()
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = w
	r.n++
}

func (r *workRing) pushFront(w *Work) {
	r.grow()
	r.head = (r.head - 1) & (len(r.buf) - 1)
	r.buf[r.head] = w
	r.n++
}

func (r *workRing) popFront() *Work {
	w := r.buf[r.head]
	r.buf[r.head] = nil
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return w
}
