package sim

import "math/bits"

// Near-window geometry: the cursor's near page (2^nearBits ns) is split
// into 64 slots of 2^nearSlotShift ns, so one word of occupancy bits
// covers the page and the slot array stays within a few cache lines.
const (
	nearSlotShift = nearBits - 6
	nearSlots     = 1 << 6
)

// nearWindow holds the events due in the wheel cursor's near page: the
// 2^nearBits nanoseconds whose time shares every higher bit with the
// cursor. Each slot is an intrusive list kept in exact (when, seq) order,
// and the occupancy word finds the earliest occupied slot with one
// TrailingZeros64, so the window's first event is the earliest of all.
// An event that orders after its slot's tail — the common case: same-
// instant events arrive in sequence order, and a slot spans only 64 ns —
// is appended in O(1); any other walks back from the tail.
type nearWindow struct {
	occupied uint64 // bit s set iff slots[s] is non-empty
	slots    [nearSlots]bucket
}

func nearSlot(when Time) uint64 { return uint64(when) >> nearSlotShift & (nearSlots - 1) }

// min returns the earliest event in the window without removing it, or nil.
func (w *nearWindow) min() *Event {
	if w.occupied == 0 {
		return nil
	}
	return w.slots[bits.TrailingZeros64(w.occupied)].head
}

// push adds ev, which must lie in the cursor's near page.
func (w *nearWindow) push(ev *Event) {
	s := nearSlot(ev.when)
	b := &w.slots[s]
	p := b.tail
	for p != nil && ev.less(&p.Key) {
		p = p.prev
	}
	ev.prev = p
	if p == nil {
		ev.next = b.head
		b.head = ev
		w.occupied |= 1 << s
	} else {
		ev.next = p.next
		p.next = ev
	}
	if ev.next != nil {
		ev.next.prev = ev
	} else {
		b.tail = ev
	}
}

// remove unlinks ev from its slot.
func (w *nearWindow) remove(ev *Event) {
	s := nearSlot(ev.when)
	b := &w.slots[s]
	if ev.prev != nil {
		ev.prev.next = ev.next
	} else {
		b.head = ev.next
	}
	if ev.next != nil {
		ev.next.prev = ev.prev
	} else {
		b.tail = ev.prev
	}
	ev.next, ev.prev = nil, nil
	if b.head == nil {
		w.occupied &^= 1 << s
	}
}

// each calls fn for every event in the window, in fire order.
func (w *nearWindow) each(fn func(*Event)) {
	for occ := w.occupied; occ != 0; occ &= occ - 1 {
		for ev := w.slots[bits.TrailingZeros64(occ)].head; ev != nil; ev = ev.next {
			fn(ev)
		}
	}
}
