package sim

import (
	"math/bits"
	"reflect"
	"runtime"
)

// Test-only views of engine internals for the external sim_test package.

// NextSeq returns the sequence number the next scheduled event will take.
func (e *Engine) NextSeq() uint64 { return e.seq }

// Front returns the key of the event firing, or last fired.
func (e *Engine) Front() Key { return e.front }

// NearLen returns the number of events in the near window.
func (e *Engine) NearLen() (n int) {
	e.near.each(e.cur, func(*event) { n++ })
	return n
}

// ForEachQueued calls fn with the key of every queued event.
func (e *Engine) ForEachQueued(fn func(Key)) {
	e.eachQueued(func(ev *event) { fn(ev.Key) })
}

// CountQueuedByClass adds one to counts[name] for every queued event,
// where name is the event's callback function.
// names caches a callback's name by its code pointer.
func (e *Engine) CountQueuedByClass(counts map[string]int, names map[uintptr]string) {
	e.eachQueued(func(ev *event) {
		pc := reflect.ValueOf(ev.afn2).Pointer()
		if ev.afn != nil {
			pc = reflect.ValueOf(ev.afn).Pointer()
		}
		name, ok := names[pc]
		if !ok {
			name = runtime.FuncForPC(pc).Name()
			names[pc] = name
		}
		counts[name]++
	})
}

// eachQueued calls fn with every queued event.
func (e *Engine) eachQueued(fn func(*event)) {
	e.near.each(e.cur, fn)
	for lvl := range e.levels {
		for occ := e.levels[lvl].occupied; occ != 0; occ &= occ - 1 {
			for ev := e.levels[lvl].slots[bits.TrailingZeros64(occ)].head; ev != nil; ev = ev.next {
				fn(ev)
			}
		}
	}
}
