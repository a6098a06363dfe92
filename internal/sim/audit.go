// Audit hooks for the event queue: a livelock watchdog that fires when
// simulated time stops advancing while events keep executing, and a full
// structural walk of the near window, wheel buckets, and free list that
// cross-checks Pending(). Both are opt-in; the engine's hot path pays a
// single integer test when they are off.
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
// a: the live-event count across near window and wheel buckets must
// equal Pending(); each near-window slot must hold its own events of the
// cursor's near window in (when, seq) order, under matching occupancy
// bits; wheel events must sit in the slot their fire time hashes to, with
// consistent intrusive links and occupied bits; a valid cached earliest
// granule must match a fresh scan of the nine levels; free-list entries
// must be marked inFree; and the wheel cursor must not have moved
// backward since lastCursor (pass 0 on the first call). It returns the
// current cursor for the next call. The walk is O(pending + free) and
// runs only from audit epochs.
func (e *Engine) AuditIntegrity(a *audit.Auditor, lastCursor uint64) uint64 {
	const comp = "sim.engine"
	now := int64(e.now)
	if e.cur < lastCursor {
		a.Report(comp, "cursor-monotonic", now,
			fmt.Sprintf(">= %d", lastCursor), fmt.Sprintf("%d", e.cur))
	}
	var total int64
	e.auditNear(a, &total)
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
			var prev *event
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
	if g := e.scanWheel(); e.wmin.valid && e.wmin != g {
		a.Report(comp, "wheel-min-cache", now,
			fmt.Sprintf("start=%d level=%d slot=%d", g.start, g.lvl, g.slot),
			fmt.Sprintf("start=%d level=%d slot=%d", e.wmin.start, e.wmin.lvl, e.wmin.slot))
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

// auditNear verifies the near window: occupancy bits match the slots,
// every event sits in its slot within the cursor's near window (at or
// after the cursor and fewer than 64 slots ahead of its slot), and each
// slot is in strict (when, seq) order with intact links. It adds the
// window's events to total.
func (e *Engine) auditNear(a *audit.Auditor, total *int64) {
	const comp = "sim.engine"
	now := int64(e.now)
	w := &e.near
	for s := range w.slots {
		b := &w.slots[s]
		if occ := w.occupied&(1<<s) != 0; occ != (b.head != nil) {
			a.Report(comp, "near-occupied-bit", now,
				fmt.Sprintf("slot %d bit=%v", s, b.head != nil), fmt.Sprintf("bit=%v", occ))
		}
		var prev *event
		for ev := b.head; ev != nil; ev = ev.next {
			*total++
			if t := uint64(ev.when); ev.where != inNear || nearSlot(ev.when) != uint64(s) || t < e.cur || !inNearWindow(t, e.cur) {
				a.Report(comp, "near-event-location", now,
					fmt.Sprintf("where=inNear in slot %d of the cursor's window (cursor %d)", s, e.cur),
					fmt.Sprintf("where=%d when=%d", ev.where, ev.when))
			}
			if ev.prev != prev || prev != nil && !prev.less(&ev.Key) {
				a.Report(comp, "near-slot-order", now,
					fmt.Sprintf("slot %d linked in (when, seq) order", s),
					fmt.Sprintf("(when=%d seq=%d) after a broken link or a later key", ev.when, ev.seq))
			}
			prev = ev
		}
		if b.tail != prev {
			a.Report(comp, "near-slot-order", now,
				fmt.Sprintf("tail matches last event in slot %d", s), "stale tail")
		}
	}
}
