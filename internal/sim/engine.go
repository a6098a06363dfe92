// Package sim provides a deterministic discrete-event simulation engine.
//
// All simulated components schedule callbacks on a shared Engine. Time is
// measured in integer nanoseconds (Time). Events scheduled for the same
// instant fire in scheduling order, which — together with seeded random
// streams (see rng.go) — makes every simulation bit-reproducible.
//
// The event queue is a hybrid of a hierarchical timer wheel (Varghese &
// Lauck, as in kernel timers and Netty) and two exact (when, seq) min-heaps.
// Events due within nearSpan of the wheel cursor live in the "near" heap,
// which alone decides fire order; farther events sit in O(1) wheel buckets
// and cascade toward the near heap as the cursor advances; events beyond the
// wheel horizon (or behind the cursor) wait in an overflow heap. Fired and
// canceled events return to a free list, so steady-state scheduling does not
// allocate.
package sim

import (
	"fmt"
	"math"
	"math/bits"
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

// Timer-wheel geometry. Events within nearSpan (2^nearBits ns ≈ 4 µs) of
// the wheel cursor go straight to the exact near heap. Above that, five
// levels of 64 slots each cover spans of 2^18, 2^24, 2^30, 2^36 and 2^42 ns
// (the last ≈ 73 simulated minutes); anything farther — or behind the
// cursor — lands in the overflow heap.
const (
	nearBits    = 12
	levelBits   = 6
	wheelSlots  = 1 << levelBits
	wheelLevels = 5
	maxTime     = Time(math.MaxInt64)
)

// Where an event currently lives. Only inFree events may be handed out by
// the pool, and Cancel/Pending treat inFree as "not scheduled".
const (
	inFree uint8 = iota
	inNear
	inWheel
	inOverflow
)

// Key is an event's position in the engine's fire order: events fire in
// increasing (when, sat, aux, seq). Keys are unique, because every event
// and every reservation (see Reserve) takes its own sequence number.
type Key struct {
	when Time
	// sat is the simulated time the event was scheduled. For locally
	// scheduled events it equals the engine's now at the Schedule*/At*
	// call; cross-engine injections (InjectAt) carry the sender engine's
	// schedule time instead. Because seq increases monotonically and now
	// never decreases, ordering by (when, sat, aux, seq) is identical to
	// ordering by (when, seq) for purely local events — sat and aux only
	// matter when events from different engines meet in one queue.
	sat Time
	// aux is a tie-break key for injected events: 0 for every local
	// event, and a run-invariant identity (derived from the injecting
	// link and frame index, see internal/cluster) for injections — so the
	// fire order at equal (when, sat) does not depend on how a sharded
	// run was partitioned.
	aux uint64
	seq uint64 // tie-breaker: preserves scheduling order at equal times
}

// When returns the simulated time the event will fire (or fired).
func (k Key) When() Time { return k.when }

func (k *Key) less(b *Key) bool {
	if k.when != b.when {
		return k.when < b.when
	}
	if k.sat != b.sat {
		return k.sat < b.sat
	}
	if k.aux != b.aux {
		return k.aux < b.aux
	}
	return k.seq < b.seq
}

// Event is a scheduled callback, owned by the engine's free-list pool.
// The scheduling methods return *Event for transient cancellation only:
// once the event has fired or been canceled the pointer may be recycled
// for an unrelated callback, so callers that retain a reference across
// fires must hold a Handle (see Schedule*/At* Handle variants) instead.
type Event struct {
	Key
	gen uint64 // incremented on recycle; validates Handles

	// Container linkage: heap index for inNear/inOverflow, intrusive
	// doubly-linked bucket list plus (level, slot) for inWheel. The free
	// list reuses next.
	index       int
	next, prev  *Event
	level, slot uint8
	where       uint8

	// Exactly one callback form is set: fn (closure path), afn+a0
	// (one-argument fast path), or afn2+a0+a1 (two-argument fast path).
	fn   func()
	afn  func(any)
	afn2 func(any, any)
	a0   any
	a1   any

	eng *Engine
}

// Cancel prevents the event from firing, unlinks it from the queue
// immediately, and recycles it. Canceling an already-fired or
// already-canceled event is a no-op. Cancel reports whether the event was
// still pending.
func (e *Event) Cancel() bool {
	if e == nil || e.where == inFree {
		return false
	}
	eng := e.eng
	switch e.where {
	case inNear:
		eng.near.remove(e.index)
	case inOverflow:
		eng.overflow.remove(e.index)
	case inWheel:
		eng.unlinkBucket(e)
	}
	eng.pending--
	eng.recycle(e)
	return true
}

// Pending reports whether the event is scheduled and not canceled. After
// the event fires the underlying storage may be reused; prefer Handle for
// references held across fires.
func (e *Event) Pending() bool { return e != nil && e.where != inFree }

// Handle is a safe, value-type reference to a scheduled event. Unlike a
// retained *Event it detects recycling: once the event fires or is
// canceled, the handle reports not-pending forever, even after the pooled
// storage is reused for an unrelated event. The zero Handle is valid and
// not pending.
type Handle struct {
	ev  *Event
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

// Cancel cancels the referenced event if it is still pending and reports
// whether it was.
func (h Handle) Cancel() bool {
	if !h.live() {
		return false
	}
	return h.ev.Cancel()
}

// bucket is one timer-wheel slot: an intrusive doubly-linked event list.
// Order within a bucket is irrelevant; the near heap restores the exact
// (when, seq) order before anything fires.
type bucket struct {
	head, tail *Event
}

// wheelLevel is one ring of the hierarchical wheel. occupied has bit s set
// iff slots[s] is non-empty, so finding the earliest bucket is one
// TrailingZeros64.
type wheelLevel struct {
	occupied uint64
	slots    [wheelSlots]bucket
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

	// front is the engine's frontier in the fire order: the key of the
	// event firing (or last fired), or, once Run(until) returns without
	// Stop, a key just past every event at or before until. Passed
	// compares reserved keys against it.
	front Key

	// cur is the wheel cursor: a lower bound on every event reachable via
	// the near heap or wheel (the overflow heap also takes events behind
	// it). It can run ahead of now when a bounded Run stops before the
	// next event.
	cur      uint64
	near     eventHeap
	overflow eventHeap
	levels   [wheelLevels]wheelLevel

	free *Event // free-list of recycled events, linked through next

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
	return &Engine{front: Key{when: -1}}
}

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Fired returns the number of events executed so far (a progress metric).
func (e *Engine) Fired() uint64 { return e.fired }

// Pending returns the number of events still scheduled. Canceled events
// are unlinked eagerly and never counted.
func (e *Engine) Pending() int { return e.pending }

// alloc hands out a pooled (or fresh) event for time t.
func (e *Engine) alloc(t Time) *Event {
	if t < e.now {
		t = e.now
	}
	ev := e.free
	if ev != nil {
		e.free = ev.next
		ev.next = nil
	} else {
		ev = &Event{eng: e}
	}
	ev.Key = e.Reserve(t)
	return ev
}

// Reserve claims the key an event scheduled now for time t (clamped at
// the current time) would carry, without scheduling anything: the
// sequence number is consumed exactly as At would consume it, so every
// real event keeps the key it would have had. A component that only
// needs to know when such an event would have fired — and not to run a
// callback then — keeps the key and asks Passed.
func (e *Engine) Reserve(t Time) Key {
	if t < e.now {
		t = e.now
	}
	k := Key{when: t, sat: e.now, seq: e.seq}
	e.seq++
	return k
}

// Passed reports whether an event with key k (from Reserve) would already
// have fired. Inside a callback that means k orders before the firing
// event; after Run(until) returns normally, k.When() ≤ until and k was
// reserved before Run returned; after Stop, k orders before the last
// event fired. The answer is exact because the engine's fire order never
// goes backward: every event scheduled or reserved orders after the
// frontier it was created at, and InjectAt refuses keys that would not.
func (e *Engine) Passed(k Key) bool { return k.less(&e.front) }

// recycle returns a no-longer-queued event to the free list, invalidating
// outstanding Handles and dropping callback references.
func (e *Engine) recycle(ev *Event) {
	ev.gen++
	ev.where = inFree
	ev.fn = nil
	ev.afn = nil
	ev.afn2 = nil
	ev.a0 = nil
	ev.a1 = nil
	ev.prev = nil
	ev.next = e.free
	e.free = ev
}

// insert places an allocated event into the near heap, a wheel bucket, or
// the overflow heap, according to its distance from the wheel cursor.
// Callers account for pending.
func (e *Engine) insert(ev *Event) {
	w := uint64(ev.when)
	if w < e.cur {
		// Behind the cursor: possible when a bounded Run cascaded past
		// `until` and a later call schedules between now and cur. The
		// overflow heap accepts any time.
		ev.where = inOverflow
		e.overflow.push(ev)
		return
	}
	diff := w ^ e.cur
	if diff>>nearBits == 0 {
		ev.where = inNear
		e.near.push(ev)
		return
	}
	lvl := (bits.Len64(diff) - nearBits - 1) / levelBits
	if lvl >= wheelLevels {
		ev.where = inOverflow
		e.overflow.push(ev)
		return
	}
	slot := (w >> (nearBits + uint(lvl)*levelBits)) & (wheelSlots - 1)
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
func (e *Engine) unlinkBucket(ev *Event) {
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
	}
	ev.next = nil
	ev.prev = nil
}

// cascade drains one wheel bucket and reinserts its events relative to the
// advanced cursor. Every event moves to a lower level or the near heap,
// because the cursor now shares its bucket's granule.
func (e *Engine) cascade(lvl, slot int) {
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

// popMin removes and returns the earliest event with when ≤ limit, or nil.
// It cascades wheel buckets as needed; the near heap's exact (when, seq)
// comparator is the only thing that ever decides order between events.
func (e *Engine) popMin(limit Time) *Event {
	for {
		best := e.near.min()
		if o := e.overflow.min(); o != nil && (best == nil || o.less(&best.Key)) {
			best = o
		}

		// Earliest occupied wheel granule, if any.
		gStart := uint64(math.MaxUint64)
		gLvl, gSlot := -1, 0
		for lvl := 0; lvl < wheelLevels; lvl++ {
			occ := e.levels[lvl].occupied
			if occ == 0 {
				continue
			}
			shift := uint(nearBits + lvl*levelBits)
			tz := bits.TrailingZeros64(occ)
			start := ((e.cur>>shift)&^(wheelSlots-1) | uint64(tz)) << shift
			if start < gStart {
				gStart, gLvl, gSlot = start, lvl, tz
			}
		}

		if gLvl >= 0 && (best == nil || gStart <= uint64(best.when)) {
			// The earliest wheel bucket may hold the true minimum; its
			// granule start is ≤ every event inside it, so advancing the
			// cursor there is safe. But if even the granule start is past
			// the limit, nothing eligible remains — return without
			// disturbing the cursor.
			if Time(gStart) > limit && (best == nil || best.when > limit) {
				return nil
			}
			// Raise-only: the cursor never moves backward, which keeps it
			// in the same wheel page as every occupied bucket (the
			// invariant the granule-start computation above relies on).
			if gStart > e.cur {
				e.cur = gStart
			}
			e.cascade(gLvl, gSlot)
			continue
		}
		if best == nil || best.when > limit {
			return nil
		}
		if best.where == inNear {
			e.near.remove(best.index)
		} else {
			e.overflow.remove(best.index)
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
func (e *Engine) fire(ev *Event) {
	fn, afn, afn2, a0, a1 := ev.fn, ev.afn, ev.afn2, ev.a0, ev.a1
	e.recycle(ev)
	e.fired++
	switch {
	case fn != nil:
		fn()
	case afn != nil:
		afn(a0)
	default:
		afn2(a0, a1)
	}
}

// Schedule runs fn after delay. A negative delay is treated as zero (fires
// at the current time, after already-queued events for that time).
func (e *Engine) Schedule(delay Duration, fn func()) *Event {
	if delay < 0 {
		delay = 0
	}
	return e.At(e.now+delay, fn)
}

// At runs fn at the absolute time t. If t is in the past it fires at the
// current time.
func (e *Engine) At(t Time, fn func()) *Event {
	if fn == nil {
		panic("sim: At called with nil fn")
	}
	ev := e.alloc(t)
	ev.fn = fn
	e.insert(ev)
	e.pending++
	return ev
}

// ScheduleArg runs fn(arg) after delay (clamped at zero). Because fn is
// typically a package-level function and arg a pointer, this path does not
// allocate in steady state — unlike Schedule, whose closure usually does.
func (e *Engine) ScheduleArg(delay Duration, fn func(any), arg any) Handle {
	if delay < 0 {
		delay = 0
	}
	return e.AtArg(e.now+delay, fn, arg)
}

// AtArg runs fn(arg) at the absolute time t (clamped at the current time).
func (e *Engine) AtArg(t Time, fn func(any), arg any) Handle {
	if fn == nil {
		panic("sim: AtArg called with nil fn")
	}
	ev := e.alloc(t)
	ev.afn = fn
	ev.a0 = arg
	e.insert(ev)
	e.pending++
	return Handle{ev: ev, gen: ev.gen}
}

// ScheduleArg2 runs fn(a0, a1) after delay (clamped at zero), for
// callbacks needing a receiver plus one argument without a closure.
func (e *Engine) ScheduleArg2(delay Duration, fn func(any, any), a0, a1 any) Handle {
	if delay < 0 {
		delay = 0
	}
	return e.AtArg2(e.now+delay, fn, a0, a1)
}

// AtArg2 runs fn(a0, a1) at the absolute time t (clamped at the current
// time).
func (e *Engine) AtArg2(t Time, fn func(any, any), a0, a1 any) Handle {
	if fn == nil {
		panic("sim: AtArg2 called with nil fn")
	}
	ev := e.alloc(t)
	ev.afn2 = fn
	ev.a0 = a0
	ev.a1 = a1
	e.insert(ev)
	e.pending++
	return Handle{ev: ev, gen: ev.gen}
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
	for !e.stopped {
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
	if !e.stopped && until >= e.now {
		// Everything at or before until has fired, including keys
		// reserved for until; anything reserved from here on has not.
		e.now = until
		e.front = Key{when: until, sat: until, seq: e.seq}
	}
	e.stopped = false
	return fired
}

// Step executes the single next pending event, if any, and reports whether
// one was executed.
func (e *Engine) Step() bool {
	ev := e.popMin(maxTime)
	if ev == nil {
		return false
	}
	e.now = ev.when
	e.front = ev.Key
	e.fire(ev)
	return true
}

// Stop makes the current Run return after the in-flight event completes.
func (e *Engine) Stop() { e.stopped = true }

// NextEventBound returns a lower bound on the time of the next event to
// fire: the exact minimum of the near and overflow heaps, and for wheel
// buckets the start of the earliest occupied granule (which is ≤ every
// event inside it — computing the exact bucket minimum would defeat the
// wheel's O(1) insertion). The bound is never below the current time, and
// is maxTime when no events are pending. After Run(until) returns with
// events still pending, NextEventBound() > until: Run only stops early
// when popMin proves every remaining event is past the limit.
//
// The shard coordinator (internal/cluster) uses this to compute the
// conservative synchronization horizon without disturbing the queue.
func (e *Engine) NextEventBound() Time {
	bound := maxTime
	if ev := e.near.min(); ev != nil {
		bound = ev.when
	}
	if ev := e.overflow.min(); ev != nil && ev.when < bound {
		bound = ev.when
	}
	for lvl := 0; lvl < wheelLevels; lvl++ {
		occ := e.levels[lvl].occupied
		if occ == 0 {
			continue
		}
		shift := uint(nearBits + lvl*levelBits)
		tz := bits.TrailingZeros64(occ)
		start := ((e.cur>>shift)&^(wheelSlots-1) | uint64(tz)) << shift
		if Time(start) < bound {
			bound = Time(start)
		}
	}
	if bound != maxTime && bound < e.now {
		bound = e.now
	}
	return bound
}

// InjectAt schedules fn(a0, a1) at the absolute time when, carrying an
// explicit schedule time sat and tie-break key aux instead of the local
// (now, 0) that At/Schedule stamp. This is the cross-engine delivery
// primitive: a frame leaving one shard's engine arrives on another's with
// the sender's schedule time and a partition-invariant identity, so the
// receiving queue orders it exactly as the single-engine run would have
// (see Key.sat/aux). The event must order after the engine's frontier
// (see Passed) — after every event already fired, and after everything at
// or before until once Run(until) has returned — and sat must be before
// when: a frame is sent strictly before it arrives. Both are the
// conservative-sync contract, so violations panic rather than clamp.
func (e *Engine) InjectAt(when, sat Time, aux uint64, fn func(any, any), a0, a1 any) {
	if fn == nil {
		panic("sim: InjectAt called with nil fn")
	}
	if sat >= when {
		panic(fmt.Sprintf("sim: InjectAt sat %v not before when %v", sat, when))
	}
	k := Key{when: when, sat: sat, aux: aux, seq: e.seq}
	if !e.front.less(&k) {
		panic(fmt.Sprintf("sim: InjectAt at %v orders before the frontier at %v", when, e.front.when))
	}
	ev := e.alloc(when)
	ev.sat = sat
	ev.aux = aux
	ev.afn2 = fn
	ev.a0 = a0
	ev.a1 = a1
	e.insert(ev)
	e.pending++
}

// eventHeap is a binary min-heap of events ordered by (when, seq), with
// index maintenance for O(log n) removal by position.
type eventHeap []*Event

// min returns the earliest event without removing it, or nil.
func (h eventHeap) min() *Event {
	if len(h) == 0 {
		return nil
	}
	return h[0]
}

func (h *eventHeap) push(ev *Event) {
	ev.index = len(*h)
	*h = append(*h, ev)
	h.siftUp(ev.index)
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
