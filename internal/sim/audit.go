// Audit hooks for the event queue: a livelock watchdog that fires when
// simulated time stops advancing while events keep executing, and a full
// structural walk of the near/overflow heaps, wheel buckets, and free list
// that cross-checks Pending(). Both are opt-in; the engine's hot path pays
// a single integer test when they are off.
package sim

import (
	"fmt"

	"ncap/internal/audit"
)

// DefaultLivelockLimit is the consecutive same-instant event count at
// which the watchdog trips. Legitimate same-instant chains (a request
// burst fanning through softirq and task dispatch) run to a few thousand
// events; an event loop that reschedules itself at the current time never
// advances the clock and crosses any finite limit.
const DefaultLivelockLimit = 1 << 21

// SetLivelockWatchdog arms the livelock watchdog: trip is called once,
// from inside Run, when limit consecutive events fire at the same
// simulated instant. A limit of 0 disarms. The trip callback may call
// Stop to abort the run.
func (e *Engine) SetLivelockWatchdog(limit int, trip func(count int, at Time)) {
	e.wdLimit = limit
	e.wdTrip = trip
	e.wdSame = 0
	e.wdLast = -1
}

// watchdog is called from Run for every fired event while armed.
func (e *Engine) watchdog(when Time) {
	if when != e.wdLast {
		e.wdLast = when
		e.wdSame = 0
		return
	}
	e.wdSame++
	if e.wdSame >= e.wdLimit {
		n := e.wdSame
		e.wdLimit = 0 // disarm: report a given livelock once
		if e.wdTrip != nil {
			e.wdTrip(n, when)
		}
	}
}

// AuditIntegrity walks every queue structure and reports violations into
// a: the live-event count across near heap, overflow heap, and wheel
// buckets must equal Pending(); both heaps must satisfy the (when, seq)
// heap property with correct back-indices; wheel events must sit in the
// slot their fire time hashes to, with consistent intrusive links and
// occupied bits; free-list entries must be marked inFree; and the wheel
// cursor must not have moved backward since lastCursor (pass 0 on the
// first call). It returns the current cursor for the next call. The walk
// is O(pending + free) and runs only from audit epochs.
func (e *Engine) AuditIntegrity(a *audit.Auditor, lastCursor uint64) uint64 {
	const comp = "sim.engine"
	now := int64(e.now)
	if e.cur < lastCursor {
		a.Report(comp, "cursor-monotonic", now,
			fmt.Sprintf(">= %d", lastCursor), fmt.Sprintf("%d", e.cur))
	}
	var total int64
	e.auditHeap(a, "near", e.near, inNear, &total)
	e.auditHeap(a, "overflow", e.overflow, inOverflow, &total)
	for lvl := range e.levels {
		l := &e.levels[lvl]
		shift := uint(nearBits + lvl*levelBits)
		for slot := 0; slot < wheelSlots; slot++ {
			b := &l.slots[slot]
			occ := l.occupied&(1<<uint(slot)) != 0
			if occ != (b.head != nil) {
				a.Report(comp, "wheel-occupied-bit", now,
					fmt.Sprintf("level %d slot %d bit=%v", lvl, slot, b.head != nil),
					fmt.Sprintf("bit=%v", occ))
			}
			var prev *Event
			for ev := b.head; ev != nil; ev = ev.next {
				total++
				if ev.where != inWheel || int(ev.level) != lvl || int(ev.slot) != slot {
					a.Report(comp, "wheel-event-location", now,
						fmt.Sprintf("where=inWheel level=%d slot=%d", lvl, slot),
						fmt.Sprintf("where=%d level=%d slot=%d", ev.where, ev.level, ev.slot))
				}
				if want := (uint64(ev.when) >> shift) & (wheelSlots - 1); want != uint64(slot) {
					a.Report(comp, "wheel-slot-hash", now,
						fmt.Sprintf("slot %d for when=%d at level %d", want, ev.when, lvl),
						fmt.Sprintf("slot %d", slot))
				}
				if ev.prev != prev {
					a.Report(comp, "wheel-bucket-links", now,
						fmt.Sprintf("prev link intact in level %d slot %d", lvl, slot), "broken prev link")
				}
				prev = ev
			}
			if b.tail != prev {
				a.Report(comp, "wheel-bucket-links", now,
					fmt.Sprintf("tail matches last event in level %d slot %d", lvl, slot), "stale tail")
			}
		}
	}
	a.CheckInt(comp, "pending-count", now, int64(e.pending), total)
	for ev := e.free; ev != nil; ev = ev.next {
		if ev.where != inFree {
			a.Report(comp, "free-list-state", now, "where=inFree",
				fmt.Sprintf("where=%d", ev.where))
			break
		}
	}
	return e.cur
}

// auditHeap verifies one heap's ordering, indices, and location labels,
// adding its size to total.
func (e *Engine) auditHeap(a *audit.Auditor, name string, h eventHeap, where uint8, total *int64) {
	const comp = "sim.engine"
	now := int64(e.now)
	for i, ev := range h {
		*total++
		if ev.where != where {
			a.Report(comp, "heap-event-location", now,
				fmt.Sprintf("%s heap where=%d", name, where), fmt.Sprintf("where=%d", ev.where))
		}
		if ev.index != i {
			a.Report(comp, "heap-index", now,
				fmt.Sprintf("%s heap index %d", name, i), fmt.Sprintf("%d", ev.index))
		}
		if i > 0 {
			if parent := h[(i-1)/2]; ev.less(&parent.Key) {
				a.Report(comp, "heap-order", now,
					fmt.Sprintf("%s heap parent (when=%d seq=%d) <= child", name, parent.when, parent.seq),
					fmt.Sprintf("child (when=%d seq=%d) earlier", ev.when, ev.seq))
			}
		}
	}
}
