// Package oskernel models the slice of the Linux kernel the paper's
// mechanism flows through: hardware IRQ dispatch (with level-triggered
// coalescing), softirq scheduling, high-resolution kernel timers (whose
// deadlines bound the menu governor's idle predictions), and run-queue
// task placement.
package oskernel

import (
	"fmt"

	"ncap/internal/cpu"
	"ncap/internal/sim"
	"ncap/internal/stats"
)

// Kernel is one node's OS instance.
type Kernel struct {
	eng     *sim.Engine
	chip    *cpu.Chip
	irqCore int
	timers  []*Timer

	// HardIRQs and SoftIRQs count dispatched handler executions.
	HardIRQs stats.Counter
	SoftIRQs stats.Counter
}

// New builds a kernel over the chip. Hardware interrupts are routed to
// core 0, as with the default single-queue NIC affinity in the paper.
func New(chip *cpu.Chip) *Kernel {
	return &Kernel{eng: chip.Engine(), chip: chip, irqCore: 0}
}

// Chip returns the processor the kernel runs on.
func (k *Kernel) Chip() *cpu.Chip { return k.chip }

// Engine returns the simulation engine.
func (k *Kernel) Engine() *sim.Engine { return k.eng }

// IRQCore returns the core hardware interrupts are routed to.
func (k *Kernel) IRQCore() int { return k.irqCore }

// IRQ is a registered hardware interrupt line. Asserting it queues the
// handler on its affinity core; further assertions while the handler is
// queued are coalesced, matching level-triggered ICR semantics — the
// handler reads all accumulated causes in one go. Coalescing means at
// most one handler run is in flight, so the line embeds its one Work.
type IRQ struct {
	k       *Kernel
	coreID  int
	cycles  int64
	handler func()
	pending bool
	work    cpu.Work
}

// NewIRQ registers an interrupt line with default affinity (core 0).
// cycles covers the handler's fixed cost (register save, ICR read over
// PCIe, cause demux).
func (k *Kernel) NewIRQ(name string, cycles int64, handler func()) *IRQ {
	return k.NewIRQOn(k.irqCore, name, cycles, handler)
}

// NewIRQOn registers an interrupt line pinned to a specific core — the
// per-queue MSI-X vectors of a multi-queue NIC.
func (k *Kernel) NewIRQOn(coreID int, name string, cycles int64, handler func()) *IRQ {
	if handler == nil {
		panic("oskernel: NewIRQ with nil handler")
	}
	if coreID < 0 || coreID >= len(k.chip.Cores()) {
		panic(fmt.Sprintf("oskernel: IRQ affinity core %d out of range", coreID))
	}
	i := &IRQ{k: k, coreID: coreID, cycles: cycles, handler: handler}
	i.work = cpu.Work{Name: name, Prio: cpu.PrioIRQ, OnDone: i.run}
	return i
}

// Core returns the IRQ's affinity core.
func (i *IRQ) Core() int { return i.coreID }

// Assert raises the interrupt line.
func (i *IRQ) Assert() {
	if i.pending {
		return
	}
	i.pending = true
	i.k.HardIRQs.Inc()
	i.work.Cycles = i.cycles
	i.k.chip.Core(i.coreID).Submit(&i.work)
}

func (i *IRQ) run() {
	i.pending = false
	i.handler()
}

// SoftIRQ is a deferred-work vector (NET_RX-style). Raising it queues the
// handler at softirq priority on its core; raises while queued coalesce,
// so the vector embeds the one Work a raise can have in flight.
type SoftIRQ struct {
	k      *Kernel
	name   string
	coreID int
	cycles int64
	fn     func()
	raised bool
	work   cpu.Work
}

// NewSoftIRQ registers a softirq vector on the given core. cycles is the
// dispatch overhead charged per handler run (do_softirq entry).
func (k *Kernel) NewSoftIRQ(name string, coreID int, cycles int64, fn func()) *SoftIRQ {
	if fn == nil {
		panic("oskernel: NewSoftIRQ with nil fn")
	}
	s := &SoftIRQ{k: k, name: name, coreID: coreID, cycles: cycles, fn: fn}
	s.work = cpu.Work{Name: name, Prio: cpu.PrioSoftIRQ, OnDone: s.run}
	return s
}

// Raise schedules the softirq.
func (s *SoftIRQ) Raise() {
	if s.raised {
		return
	}
	s.raised = true
	s.k.SoftIRQs.Inc()
	s.work.Cycles = s.cycles
	s.k.chip.Core(s.coreID).Submit(&s.work)
}

func (s *SoftIRQ) run() {
	s.raised = false
	s.fn()
}

// Run executes the caller-owned w (its Cycles and OnDone set by the
// caller) as softirq-context work on the vector's core, without
// coalescing — the per-packet portion of a poll. Run stamps w's Name and
// Prio.
func (s *SoftIRQ) Run(w *cpu.Work) {
	w.Name, w.Prio = s.name, cpu.PrioSoftIRQ
	s.k.chip.Core(s.coreID).Submit(w)
}

// Timer is a high-resolution kernel timer pinned to a core. Expiry runs
// the callback as IRQ-priority work (the timer interrupt), waking the core
// if needed. Its deadline is visible to the menu governor via TimerHint.
//
// Expiries are not coalesced: a periodic timer whose handler is still
// queued when the next period elapses queues a second run. Each expiry
// therefore takes its own Work from the timer's free list.
type Timer struct {
	k      *Kernel
	name   string
	coreID int
	cycles int64
	fn     func()
	inner  *sim.Timer
	period sim.Duration // 0 for one-shot
	free   []*timerExpiry
}

// timerExpiry is one queued run of a Timer's callback.
type timerExpiry struct {
	work cpu.Work
	t    *Timer
}

// run returns the expiry to its timer's free list, then runs the callback.
func (e *timerExpiry) run() {
	e.t.free = append(e.t.free, e)
	e.t.fn()
}

// NewTimer creates a stopped timer on the given core. cycles is the timer
// interrupt's CPU cost.
func (k *Kernel) NewTimer(name string, coreID int, cycles int64, fn func()) *Timer {
	if fn == nil {
		panic("oskernel: NewTimer with nil fn")
	}
	t := &Timer{k: k, name: name, coreID: coreID, cycles: cycles, fn: fn}
	t.inner = sim.NewTimer(k.eng, t.expire)
	k.timers = append(k.timers, t)
	return t
}

// Arm schedules a one-shot expiry after d.
func (t *Timer) Arm(d sim.Duration) {
	t.period = 0
	t.inner.Arm(d)
}

// ArmPeriodic schedules recurring expiries every period.
func (t *Timer) ArmPeriodic(period sim.Duration) {
	if period <= 0 {
		panic("oskernel: ArmPeriodic needs a positive period")
	}
	t.period = period
	t.inner.Arm(period)
}

// Stop cancels the timer.
func (t *Timer) Stop() { t.period = 0; t.inner.Stop() }

func (t *Timer) expire() {
	if t.period > 0 {
		t.inner.Arm(t.period)
	}
	var e *timerExpiry
	if n := len(t.free); n > 0 {
		e, t.free = t.free[n-1], t.free[:n-1]
	} else {
		e = &timerExpiry{t: t}
		e.work = cpu.Work{Name: t.name, Prio: cpu.PrioIRQ, OnDone: e.run}
	}
	e.work.Cycles = t.cycles
	t.k.chip.Core(t.coreID).Submit(&e.work)
}

// NextTimerDelay returns the delay until the earliest armed timer on the
// core, or -1 when none is pending — the menu governor's next-event bound.
func (k *Kernel) NextTimerDelay(coreID int) sim.Duration {
	now := k.eng.Now()
	best := sim.Duration(-1)
	for _, t := range k.timers {
		if t.coreID != coreID || !t.inner.Pending() {
			continue
		}
		d := t.inner.Deadline() - now
		if d < 0 {
			d = 0
		}
		if best < 0 || d < best {
			best = d
		}
	}
	return best
}

// TimerHint adapts NextTimerDelay for the menu governor.
func (k *Kernel) TimerHint() func(coreID int) sim.Duration {
	return k.NextTimerDelay
}

// SubmitTask places the caller-owned application work w on the
// least-loaded core — an idle core if one exists, otherwise the shortest
// task queue, a simplified CFS placement — and returns that core. It
// stamps w's Prio; the caller sets Name, Cycles and OnDone.
func (k *Kernel) SubmitTask(w *cpu.Work) *cpu.Core {
	cores := k.chip.Cores()
	best := cores[0]
	bestScore := placementScore(best)
	for _, c := range cores[1:] {
		if s := placementScore(c); s < bestScore {
			best, bestScore = c, s
		}
	}
	w.Prio = cpu.PrioTask
	best.Submit(w)
	return best
}

// SubmitTaskOn pins the caller-owned application work w to a specific
// core, stamping its Prio.
func (k *Kernel) SubmitTaskOn(coreID int, w *cpu.Work) {
	w.Prio = cpu.PrioTask
	k.chip.Core(coreID).Submit(w)
}

// SubmitSoftIRQOn runs the caller-owned w at softirq priority on a
// specific core — deferred kernel work (NET_TX transmission) that preempts
// application tasks but yields to hard interrupts. It stamps w's Prio.
func (k *Kernel) SubmitSoftIRQOn(coreID int, w *cpu.Work) {
	k.SoftIRQs.Inc()
	w.Prio = cpu.PrioSoftIRQ
	k.chip.Core(coreID).Submit(w)
}

func placementScore(c *cpu.Core) int {
	score := c.QueueLen(cpu.PrioTask) * 2
	if c.Busy() {
		score++
	}
	return score
}

// String aids debugging.
func (k *Kernel) String() string {
	return fmt.Sprintf("kernel(cores=%d, irq=%d)", len(k.chip.Cores()), k.irqCore)
}
