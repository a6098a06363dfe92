package sim

import "math/bits"

// Near-window geometry: 64 slots of 2^nearSlotShift ns, so the window
// spans 2^nearBits ns, one word of occupancy bits covers it, and the slot
// array stays within a few cache lines.
const (
	nearSlotShift = nearBits - 6
	nearSlots     = 1 << 6
)

// nearWindow holds the events due in the 64 slots that start at the wheel
// cursor's slot: an event at time t ≥ cursor belongs to it iff
// t>>nearSlotShift − cursor>>nearSlotShift < 64 (see inNearWindow). The
// window slides with the cursor rather than snapping to an aligned page,
// so an event a few microseconds ahead skips the wheel even when it lies
// across a page boundary. Slot s holds the times whose slot number is s
// modulo 64; since the window spans exactly 64 slot numbers, each slot
// holds one slot number's events, and rotating the occupancy word by the
// cursor's slot puts the slots in time order. Each slot is an intrusive
// list kept in exact (when, seq) order, so the first event of the first
// slot after rotation is the earliest of all. An event that orders after
// its slot's tail — the common case: same-instant events arrive in
// sequence order, and a slot spans only 64 ns — is appended in O(1); any
// other walks back from the tail.
//
// The window stays valid as the cursor advances: the cursor only moves to
// a time at or before every event the window holds, so each event stays
// at or after the cursor's slot and within 64 slots of it.
type nearWindow struct {
	occupied uint64 // bit s set iff slots[s] is non-empty
	slots    [nearSlots]bucket
}

func nearSlot(when Time) uint64 { return uint64(when) >> nearSlotShift & (nearSlots - 1) }

// inNearWindow reports whether time w (≥ cur) lies in the near window of
// the cursor cur.
func inNearWindow(w, cur uint64) bool { return w>>nearSlotShift-cur>>nearSlotShift < nearSlots }

// min returns the earliest event in the window of cursor cur without
// removing it, or nil.
func (w *nearWindow) min(cur uint64) *event {
	if w.occupied == 0 {
		return nil
	}
	rot := cur >> nearSlotShift
	s := (rot + uint64(bits.TrailingZeros64(bits.RotateLeft64(w.occupied, -int(rot))))) & (nearSlots - 1)
	return w.slots[s].head
}

// push adds ev, which must lie in the cursor's near window.
func (w *nearWindow) push(ev *event) {
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
func (w *nearWindow) remove(ev *event) {
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

// each calls fn for every event in the window of cursor cur, in fire
// order.
func (w *nearWindow) each(cur uint64, fn func(*event)) {
	rot := cur >> nearSlotShift
	for occ := bits.RotateLeft64(w.occupied, -int(rot)); occ != 0; occ &= occ - 1 {
		s := (rot + uint64(bits.TrailingZeros64(occ))) & (nearSlots - 1)
		for ev := w.slots[s].head; ev != nil; ev = ev.next {
			fn(ev)
		}
	}
}
