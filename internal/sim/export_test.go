package sim

import "math/bits"

// Test-only views of engine internals for the external sim_test package.

// NextSeq returns the sequence number the next scheduled event will take.
func (e *Engine) NextSeq() uint64 { return e.seq }

// Front returns the key of the event firing, or last fired.
func (e *Engine) Front() Key { return e.front }

// Seq returns the key's sequence number.
func (k Key) Seq() uint64 { return k.seq }

// NearLen returns the number of events in the near heap.
func (e *Engine) NearLen() int { return len(e.near) }

// ForEachQueued calls fn with the key of every queued event.
func (e *Engine) ForEachQueued(fn func(Key)) {
	for _, ev := range e.near {
		fn(ev.Key)
	}
	for _, ev := range e.overflow {
		fn(ev.Key)
	}
	for lvl := range e.levels {
		for occ := e.levels[lvl].occupied; occ != 0; occ &= occ - 1 {
			for ev := e.levels[lvl].slots[bits.TrailingZeros64(occ)].head; ev != nil; ev = ev.next {
				fn(ev.Key)
			}
		}
	}
}
