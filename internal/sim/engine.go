// Package sim provides a deterministic discrete-event simulation engine.
//
// All simulated components schedule callbacks on a shared Engine. Time is
// measured in integer nanoseconds (Time). Events scheduled for the same
// instant fire in scheduling order, which — together with seeded random
// streams (see rng.go) — makes every simulation bit-reproducible.
//
// The event queue is a hierarchical timer wheel (Varghese & Lauck, as in
// kernel timers and Netty) in front of an exact near window. Events due
// within 2^nearBits ns of the wheel cursor's 64-ns slot live in the near
// window (see near.go), 64 slots kept in exact (when, seq) order, which
// alone decides fire order; farther events sit in O(1) wheel buckets and
// cascade toward the near window as the cursor advances; events beyond
// the wheel horizon (or behind the cursor) wait in an exact (when, seq)
// overflow heap. The engine caches the earliest occupied wheel granule, so a pop
// from the near window does constant wheel work; only a cascade, or a
// cancel that empties a bucket, forces a rescan of the five levels. Fired
// and canceled events return to a free list, so steady-state scheduling
// does not allocate.
package sim

import (
	"fmt"
	"math"
	"math/bits"
	"sync/atomic"
)

// Time is a simulated instant, in nanoseconds since the start of the run.
type Time int64

// Duration is a span of simulated time, in nanoseconds.
type Duration = Time

// Convenient duration units.
const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

// String formats t with a unit fitting its magnitude: "850ns", "12.3µs",
// "3.456ms", or "1.234567s".
func (t Time) String() string {
	abs := t
	if abs < 0 {
		abs = -abs
	}
	switch {
	case abs < Microsecond:
		return fmt.Sprintf("%dns", int64(t))
	case abs < Millisecond:
		return fmt.Sprintf("%.1fµs", t.Micros())
	case abs < Second:
		return fmt.Sprintf("%.3fms", t.Millis())
	}
	return fmt.Sprintf("%d.%06ds", int64(t)/int64(Second), (int64(abs)%int64(Second))/1000)
}

// Seconds returns t as a floating-point number of seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Micros returns t as a floating-point number of microseconds.
func (t Time) Micros() float64 { return float64(t) / float64(Microsecond) }

// Millis returns t as a floating-point number of milliseconds.
func (t Time) Millis() float64 { return float64(t) / float64(Millisecond) }

// Timer-wheel geometry. Events in the 64 slots of 2^(nearBits−6) ns that
// start at the wheel cursor's slot (≈ 4 µs) go straight to the exact near
// window. Past the cursor's near page (2^nearBits ns), five levels of 64
// slots each cover spans of 2^18, 2^24, 2^30, 2^36 and 2^42 ns (the last
// ≈ 73 simulated minutes); anything farther — or behind the cursor —
// lands in the overflow heap.
const (
	nearBits    = 12
	levelBits   = 6
	wheelSlots  = 1 << levelBits
	wheelLevels = 5
	maxTime     = Time(math.MaxInt64)
)

// Where an event currently lives. Only inFree events may be handed out by
// the pool, and a Handle treats inFree as "not scheduled".
const (
	inFree uint8 = iota
	inNear
	inWheel
	inOverflow
)

// Key is an event's position in the engine's fire order: events fire in
// increasing (when, seq). Keys are unique, because every event and every
// reservation (see Reserve) takes its own sequence number.
type Key struct {
	when Time
	seq  uint64 // tie-breaker: preserves scheduling order at equal times
}

// When returns the simulated time the event will fire (or fired).
func (k Key) When() Time { return k.when }

// Seq returns the key's sequence number: its rank among keys of one
// instant, in scheduling (or reservation) order.
func (k Key) Seq() uint64 { return k.seq }

func (k *Key) less(b *Key) bool {
	if k.when != b.when {
		return k.when < b.when
	}
	return k.seq < b.seq
}

// event is a scheduled callback, owned by the engine's free-list pool.
// Callers refer to it only through a Handle, which detects recycling.
type event struct {
	Key
	gen uint64 // incremented on recycle; validates Handles

	// Container linkage: heap index for inOverflow, intrusive
	// doubly-linked slot list for inNear, the same list plus (level, slot)
	// for inWheel. The free list reuses next.
	index       int
	next, prev  *event
	level, slot uint8
	where       uint8

	// Exactly one callback form is set: afn+a0 (one argument) or
	// afn2+a0+a1 (two arguments).
	afn  func(any)
	afn2 func(any, any)
	a0   any
	a1   any

	eng *Engine
}

// Handle is a safe, value-type reference to a scheduled event. It detects
// recycling: once the event fires or is canceled, the handle reports
// not-pending forever, even after the pooled storage is reused for an
// unrelated event. The zero Handle is valid and not pending.
type Handle struct {
	ev  *event
	gen uint64
}

// live reports whether the handle still refers to its original scheduling.
func (h Handle) live() bool { return h.ev != nil && h.ev.gen == h.gen && h.ev.where != inFree }

// Pending reports whether the referenced event is still scheduled.
func (h Handle) Pending() bool { return h.live() }

// When returns the fire time of a still-pending event, or -1.
func (h Handle) When() Time {
	if !h.live() {
		return -1
	}
	return h.ev.when
}

// Cancel prevents the referenced event from firing, unlinking it from the
// queue immediately, and reports whether it was still pending. Canceling
// an already-fired or already-canceled event is a no-op.
func (h Handle) Cancel() bool {
	if !h.live() {
		return false
	}
	ev, eng := h.ev, h.ev.eng
	switch ev.where {
	case inNear:
		eng.near.remove(ev)
	case inOverflow:
		eng.overflow.remove(ev.index)
	case inWheel:
		eng.unlinkBucket(ev)
	}
	eng.pending--
	eng.recycle(ev)
	return true
}

// bucket is an intrusive doubly-linked event list: one timer-wheel slot,
// whose order is irrelevant (the near window restores the exact (when,
// seq) order before anything fires), or one near-window slot, kept in it.
type bucket struct {
	head, tail *event
}

// wheelLevel is one ring of the hierarchical wheel. occupied has bit s set
// iff slots[s] is non-empty, so finding the earliest bucket is one
// TrailingZeros64.
type wheelLevel struct {
	occupied uint64
	slots    [wheelSlots]bucket
}

// granule is one wheel bucket located by its granule start: the earliest
// instant any of its events can fire. lvl is -1 when the wheel is empty
// (start is then MaxUint64). valid marks a cached copy as current.
type granule struct {
	start     uint64
	lvl, slot int
	valid     bool
}

// Engine is a discrete-event simulator. The zero value is not usable; call
// NewEngine.
type Engine struct {
	now     Time
	seq     uint64
	fired   uint64
	pending int
	running bool
	stopped bool
	halt    atomic.Bool // sticky Stop, settable from any goroutine

	// front is the engine's frontier in the fire order: the key of the
	// event firing (or last fired), or, once Run(until) returns without
	// Stop, a key just past every event at or before until. Passed
	// compares reserved keys against it.
	front Key

	// cur is the wheel cursor: a lower bound on every event reachable via
	// the near window or wheel. It never passes the clock once popMin
	// returns: a cascade moves it only to a granule start at or before
	// the limit, and a pop only to the popped event's time.
	cur      uint64
	near     nearWindow
	overflow eventHeap
	levels   [wheelLevels]wheelLevel

	// wmin caches the earliest occupied wheel granule (see wheelMin).
	// insert lowers it; cascade and unlinkBucket invalidate it.
	wmin granule

	free *event // free-list of recycled events, linked through next

	// Livelock watchdog (see SetLivelockWatchdog): when wdLimit > 0, Run
	// counts consecutive events firing at the same instant and trips once
	// the count reaches the limit. Off, it costs one predictable integer
	// test per fired event.
	wdLimit int
	wdSame  int
	wdLast  Time
	wdTrip  func(count int, at Time)
}

// NewEngine returns an empty engine at time 0.
func NewEngine() *Engine {
	// A frontier before time 0 orders before every key: nothing has fired.
	return &Engine{front: Key{when: -1}, wmin: granule{start: math.MaxUint64, lvl: -1, valid: true}}
}

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Fired returns the number of events executed so far (a progress metric).
func (e *Engine) Fired() uint64 { return e.fired }

// Pending returns the number of events still scheduled. Canceled events
// are unlinked eagerly and never counted.
func (e *Engine) Pending() int { return e.pending }

// Reserve claims the key an event scheduled now for time t (clamped at
// the current time) would carry, without scheduling anything: the
// sequence number is consumed exactly as AtArg would consume it, so every
// real event keeps the key it would have had. A component that only
// needs to know when such an event would have fired — and not to run a
// callback then — keeps the key and asks Passed.
func (e *Engine) Reserve(t Time) Key {
	if t < e.now {
		t = e.now
	}
	k := Key{when: t, seq: e.seq}
	e.seq++
	return k
}

// Passed reports whether an event with key k (from Reserve) would already
// have fired. Inside a callback that means k orders before the firing
// event; after Run(until) returns normally, k.When() ≤ until and k was
// reserved before Run returned; after Stop, k orders before the last
// event fired. The answer is exact because the engine's fire order never
// goes backward: every event scheduled or reserved orders after the
// frontier it was created at.
func (e *Engine) Passed(k Key) bool { return k.less(&e.front) }

// recycle returns a no-longer-queued event to the free list, invalidating
// outstanding Handles and dropping callback references.
func (e *Engine) recycle(ev *event) {
	ev.gen++
	ev.where = inFree
	ev.afn = nil
	ev.afn2 = nil
	ev.a0 = nil
	ev.a1 = nil
	ev.prev = nil
	ev.next = e.free
	e.free = ev
}

// insert places an allocated event into the near window, a wheel bucket, or
// the overflow heap, according to its distance from the wheel cursor.
// Callers account for pending.
func (e *Engine) insert(ev *event) {
	w := uint64(ev.when)
	if w < e.cur {
		// Behind the cursor. The cursor never passes the clock (see cur),
		// so this is a guard: the overflow heap accepts any time.
		ev.where = inOverflow
		e.overflow.push(ev)
		return
	}
	if inNearWindow(w, e.cur) {
		ev.where = inNear
		e.near.push(ev)
		return
	}
	// Past the near window the event lies beyond the cursor's near page,
	// so its time and the cursor differ at or above bit nearBits.
	lvl := (bits.Len64(w^e.cur) - nearBits - 1) / levelBits
	if lvl >= wheelLevels {
		ev.where = inOverflow
		e.overflow.push(ev)
		return
	}
	shift := uint(nearBits + lvl*levelBits)
	slot := (w >> shift) & (wheelSlots - 1)
	// The event shares the cursor's bits above its level, so its bucket's
	// granule start is its own time truncated to the level's granule.
	if start := w >> shift << shift; e.wmin.valid && start < e.wmin.start {
		e.wmin = granule{start: start, lvl: lvl, slot: int(slot), valid: true}
	}
	ev.where = inWheel
	ev.level = uint8(lvl)
	ev.slot = uint8(slot)
	b := &e.levels[lvl].slots[slot]
	ev.prev = b.tail
	ev.next = nil
	if b.tail != nil {
		b.tail.next = ev
	} else {
		b.head = ev
	}
	b.tail = ev
	e.levels[lvl].occupied |= 1 << slot
}

// unlinkBucket removes an inWheel event from its bucket list.
func (e *Engine) unlinkBucket(ev *event) {
	b := &e.levels[ev.level].slots[ev.slot]
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
	if b.head == nil {
		e.levels[ev.level].occupied &^= 1 << ev.slot
		// The emptied bucket may be the cached earliest one. Checking
		// which would push this function past the inlining budget.
		e.wmin.valid = false
	}
	ev.next = nil
	ev.prev = nil
}

// cascade drains one wheel bucket and reinserts its events relative to the
// advanced cursor. Every event moves to a lower level or the near window,
// because the cursor now shares its bucket's granule.
func (e *Engine) cascade(lvl, slot int) {
	e.wmin.valid = false
	b := &e.levels[lvl].slots[slot]
	ev := b.head
	b.head, b.tail = nil, nil
	e.levels[lvl].occupied &^= 1 << uint(slot)
	for ev != nil {
		next := ev.next
		ev.next, ev.prev = nil, nil
		e.insert(ev)
		ev = next
	}
}

// scanWheel finds the earliest occupied wheel granule by scanning all five
// levels. A level's occupied slots all lie in the cursor's page of that
// level, so its earliest bucket is one TrailingZeros64 away.
func (e *Engine) scanWheel() granule {
	g := granule{start: math.MaxUint64, lvl: -1, valid: true}
	for lvl := 0; lvl < wheelLevels; lvl++ {
		occ := e.levels[lvl].occupied
		if occ == 0 {
			continue
		}
		shift := uint(nearBits + lvl*levelBits)
		tz := bits.TrailingZeros64(occ)
		start := ((e.cur>>shift)&^(wheelSlots-1) | uint64(tz)) << shift
		if start < g.start {
			g.start, g.lvl, g.slot = start, lvl, tz
		}
	}
	return g
}

// wheelMin returns the earliest occupied wheel granule, rescanning only
// when the cache is invalid. Popping the near window's first event or the
// overflow heap's root never invalidates it: the popped event orders
// before the granule start, so raising the cursor to it keeps the cursor
// in every occupied bucket's page, and every granule start is unchanged.
func (e *Engine) wheelMin() granule {
	if !e.wmin.valid {
		e.wmin = e.scanWheel()
	}
	return e.wmin
}

// popMin removes and returns the earliest event with when ≤ limit, or nil.
// It compares the near window's first event and the overflow heap's root
// against the cached earliest wheel granule and cascades that bucket when
// it could hold the minimum; the exact (when, seq) comparator is the only
// thing that ever decides order between events. A pop from the near
// window costs one TrailingZeros64, an unlink, and no wheel scan.
func (e *Engine) popMin(limit Time) *event {
	for {
		best, near := e.near.min(e.cur), true
		if o := e.overflow.min(); o != nil && (best == nil || o.less(&best.Key)) {
			best, near = o, false
		}

		if g := e.wheelMin(); g.lvl >= 0 && (best == nil || g.start <= uint64(best.when)) {
			// The earliest wheel bucket may hold the true minimum; its
			// granule start is ≤ every event inside it, so advancing the
			// cursor there is safe. But if even the granule start is past
			// the limit, nothing eligible remains — return without
			// disturbing the cursor.
			if Time(g.start) > limit && (best == nil || best.when > limit) {
				return nil
			}
			// Raise-only: the cursor never moves backward, which keeps it
			// in the same wheel page as every occupied bucket (the
			// invariant scanWheel relies on).
			if g.start > e.cur {
				e.cur = g.start
			}
			e.cascade(g.lvl, g.slot)
			continue
		}
		if best == nil || best.when > limit {
			return nil
		}
		if near {
			e.near.remove(best)
		} else {
			e.overflow.popRoot()
		}
		if c := uint64(best.when); c > e.cur {
			e.cur = c
		}
		e.pending--
		return best
	}
}

// fire recycles ev and runs its callback. Recycling first keeps the pool
// hot when the callback immediately reschedules; Handles cannot observe
// the reuse thanks to the generation counter.
func (e *Engine) fire(ev *event) {
	afn, afn2, a0, a1 := ev.afn, ev.afn2, ev.a0, ev.a1
	e.recycle(ev)
	e.fired++
	if afn != nil {
		afn(a0)
	} else {
		afn2(a0, a1)
	}
}

// schedule is every scheduling method's body: it takes a pooled (or
// fresh) event, gives it a key and one of the two callback forms, and
// queues it. It panics if the callback is nil. k is either a key from
// Reserve, whose sequence number is below e.seq, or a new event's time
// paired with e.seq, which schedule turns into a key as Reserve does.
// Reserving here rather than in AtArg keeps AtArg and ScheduleArg small
// enough to inline, so a schedule costs one call.
func (e *Engine) schedule(k Key, afn func(any), afn2 func(any, any), a0, a1 any) Handle {
	if afn == nil && afn2 == nil {
		panic("sim: nil callback")
	}
	if k.seq == e.seq {
		k = e.Reserve(k.when)
	}
	ev := e.free
	if ev != nil {
		e.free = ev.next
		ev.next = nil
	} else {
		ev = &event{eng: e}
	}
	ev.Key = k
	ev.afn, ev.afn2 = afn, afn2
	ev.a0, ev.a1 = a0, a1
	e.insert(ev)
	e.pending++
	return Handle{ev: ev, gen: ev.gen}
}

// ScheduleArg runs fn(arg) after delay. A negative delay is treated as
// zero (fires at the current time, after already-queued events for that
// time). Because fn is typically a package-level function and arg a
// pointer, scheduling does not allocate in steady state.
func (e *Engine) ScheduleArg(delay Duration, fn func(any), arg any) Handle {
	return e.AtArg(e.now+delay, fn, arg) // AtArg clamps a negative delay
}

// AtArg runs fn(arg) at the absolute time t. If t is in the past it fires
// at the current time.
func (e *Engine) AtArg(t Time, fn func(any), arg any) Handle {
	return e.schedule(Key{when: t, seq: e.seq}, fn, nil, arg, nil)
}

// ScheduleArg2 runs fn(a0, a1) after delay (clamped at zero), for
// callbacks needing a receiver plus one argument without a closure.
func (e *Engine) ScheduleArg2(delay Duration, fn func(any, any), a0, a1 any) Handle {
	return e.AtArg2(e.now+delay, fn, a0, a1)
}

// AtArg2 runs fn(a0, a1) at the absolute time t (clamped at the current
// time).
func (e *Engine) AtArg2(t Time, fn func(any, any), a0, a1 any) Handle {
	return e.schedule(Key{when: t, seq: e.seq}, nil, fn, a0, a1)
}

// AtKeyArg2 runs fn(a0, a1) under k, a key from Reserve: the event fires
// exactly where an AtArg2 call made in place of that Reserve would have
// fired. A component with many callbacks pending in key order (a link's
// frames in flight) reserves each key when it commits to the callback and
// schedules only the earliest. It panics if k has already passed.
func (e *Engine) AtKeyArg2(k Key, fn func(any, any), a0, a1 any) Handle {
	if e.Passed(k) {
		panic(fmt.Sprintf("sim: AtKeyArg2 with key (%v, %d) already passed", k.when, k.seq))
	}
	return e.schedule(k, nil, fn, a0, a1)
}

// Run executes events until the queue drains or the clock would pass until.
// It returns the number of events fired during this call. Events scheduled
// exactly at until are executed.
func (e *Engine) Run(until Time) uint64 {
	if e.running {
		panic("sim: Run called re-entrantly")
	}
	e.running = true
	defer func() { e.running = false }()
	var fired uint64
	for !e.stopped && !e.halt.Load() {
		ev := e.popMin(until)
		if ev == nil {
			break
		}
		e.now = ev.when
		e.front = ev.Key
		if e.wdLimit != 0 {
			e.watchdog(ev.when)
		}
		e.fire(ev)
		fired++
	}
	if !e.stopped && !e.halt.Load() && until >= e.now {
		// Everything at or before until has fired, including keys
		// reserved for until; anything reserved from here on has not.
		e.now = until
		e.front = Key{when: until, seq: e.seq}
	}
	e.stopped = false
	return fired
}

// Step executes the single next pending event, if any, and reports whether
// one was executed. It panics if called from a callback Run is executing,
// as Run does: a nested Step would fire events out from under the running
// one. Step does not mark the engine running itself (that would cost a
// deferred reset per step), so a callback Step executes is not checked.
func (e *Engine) Step() bool {
	_, ok := e.StepUntil(maxTime)
	return ok
}

// StepUntil executes the next pending event if it is due at or before
// limit, and returns its key; it panics inside Run, as Step does.
// Stepping until it reports false, then calling Run(limit) (which fires
// nothing more), leaves the engine exactly as Run(limit) alone would, so a
// test can observe every event of a run without changing it.
func (e *Engine) StepUntil(limit Time) (Key, bool) {
	if e.running {
		panic("sim: Step called inside Run")
	}
	ev := e.popMin(limit)
	if ev == nil {
		return Key{}, false
	}
	k := ev.Key
	e.now = ev.when
	e.front = k
	e.fire(ev)
	return k, true
}

// Stop makes the current Run return after the in-flight event completes.
func (e *Engine) Stop() { e.stopped = true }

// Halt is a sticky Stop: the current Run returns after the in-flight
// event completes, and every later Run returns at once. Unlike the rest
// of the engine it is safe to call from any goroutine, so a wall-clock
// timeout can end a simulation it has abandoned.
func (e *Engine) Halt() { e.halt.Store(true) }

// Halted reports whether Halt has been called.
func (e *Engine) Halted() bool { return e.halt.Load() }

// eventHeap is a binary min-heap of events ordered by (when, seq), with
// index maintenance for O(log n) removal by position.
type eventHeap []*event

// min returns the earliest event without removing it, or nil.
func (h eventHeap) min() *event {
	if len(h) == 0 {
		return nil
	}
	return h[0]
}

func (h *eventHeap) push(ev *event) {
	ev.index = len(*h)
	*h = append(*h, ev)
	h.siftUp(ev.index)
}

// popRoot removes the minimum (the heap must be non-empty): the last entry
// moves to the root and sifts down, never up.
func (h *eventHeap) popRoot() {
	old := *h
	n := len(old) - 1
	old[0].index = -1
	if n > 0 {
		old[0] = old[n]
	}
	old[n] = nil
	*h = old[:n]
	if n > 0 {
		h.siftDown(0)
	}
}

// remove deletes the event at heap position i.
func (h *eventHeap) remove(i int) {
	old := *h
	n := len(old) - 1
	old[i].index = -1
	if i != n {
		old[i] = old[n]
		old[i].index = i
	}
	old[n] = nil
	*h = old[:n]
	if i != n {
		if !h.siftDown(i) {
			h.siftUp(i)
		}
	}
}

func (h eventHeap) siftUp(i int) {
	ev := h[i]
	for i > 0 {
		parent := (i - 1) / 2
		if !ev.less(&h[parent].Key) {
			break
		}
		h[i] = h[parent]
		h[i].index = i
		i = parent
	}
	h[i] = ev
	ev.index = i
}

// siftDown reports whether the element moved (so remove can try siftUp).
func (h eventHeap) siftDown(i int) bool {
	ev := h[i]
	start := i
	n := len(h)
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if r := child + 1; r < n && h[r].less(&h[child].Key) {
			child = r
		}
		if !h[child].less(&ev.Key) {
			break
		}
		h[i] = h[child]
		h[i].index = i
		i = child
	}
	h[i] = ev
	ev.index = i
	return i > start
}
