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
// alone decides fire order; every farther event, up to the largest Time,
// sits in an O(1) wheel bucket and cascades toward the near window as the
// cursor advances. The engine caches the earliest occupied wheel granule,
// so a pop from the near window does constant wheel work; only a cascade,
// or a cancel that empties a bucket, forces a rescan, which stops at the
// lowest occupied level. Fired and canceled events return to a free list,
// so steady-state scheduling does not allocate.
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
// window. Past the cursor's near page (2^nearBits ns), nine levels of 64
// slots each cover spans of 2^18, 2^24, …, 2^60 ns; the top level uses
// only its first 8 slots. An event at w ≥ cursor first differs from the
// cursor at a bit below 63, so its level (bits.Len64(w^cur) − 13)/6 is
// at most 8: the wheel reaches every Time.
const (
	nearBits    = 12
	levelBits   = 6
	wheelSlots  = 1 << levelBits
	wheelLevels = 9
	maxTime     = Time(math.MaxInt64)
)

// Where an event currently lives. Only inFree events may be handed out by
// the pool, and a Handle treats inFree as "not scheduled".
const (
	inFree uint8 = iota
	inNear
	inWheel
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

	// Container linkage: intrusive doubly-linked slot list for inNear,
	// the same list plus (level, slot) for inWheel. The free list reuses
	// next.
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
	if ev.where == inNear {
		eng.near.remove(ev)
	} else {
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

// noGranule is the valid cache of an empty wheel.
var noGranule = granule{start: math.MaxUint64, lvl: -1, valid: true}

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
	// Stop or StepUntil(until) reports false, a key just past every event
	// at or before until. Passed compares reserved keys against it.
	front Key

	// cur is the wheel cursor: a lower bound on every queued event. It
	// never passes the clock once Run, Step or StepUntil returns: a pop
	// moves it only to the popped event's time, and a cascade only to a
	// granule start at or before the limit, which the clock then settles
	// at when nothing more is due. So no event is ever scheduled behind
	// it.
	cur    uint64
	near   nearWindow
	levels [wheelLevels]wheelLevel

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
	return &Engine{front: Key{when: -1}, wmin: noGranule}
}

// Reset returns the engine to NewEngine's state, keeping up to keep
// events of its storage: every queued event is recycled, so a Handle from
// before the reset reports not-pending, and a next run that needs no more
// than keep events at once schedules without allocating. The free list
// is LIFO, so the events kept are the ones the run used last. It panics
// inside Run.
func (e *Engine) Reset(keep int) {
	if e.running {
		panic("sim: Reset called inside Run")
	}
	drop := func(slots []bucket, occupied uint64) {
		for ; occupied != 0; occupied &= occupied - 1 {
			for ev := slots[bits.TrailingZeros64(occupied)].head; ev != nil; {
				next := ev.next
				e.recycle(ev)
				ev = next
			}
		}
	}
	drop(e.near.slots[:], e.near.occupied)
	for lvl := range e.levels {
		drop(e.levels[lvl].slots[:], e.levels[lvl].occupied)
	}
	free := e.free
	if keep <= 0 {
		free = nil
	} else if free != nil {
		ev := free
		for i := 1; i < keep && ev.next != nil; i++ {
			ev = ev.next
		}
		ev.next = nil
	}
	*e = Engine{front: Key{when: -1}, wmin: noGranule, free: free}
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

// insert places an allocated event into the near window or a wheel
// bucket, according to its distance from the wheel cursor. Callers
// account for pending.
func (e *Engine) insert(ev *event) {
	w := uint64(ev.when)
	if w < e.cur {
		// The cursor never passes the clock (see cur), and every event is
		// due at or after the clock, so only a bug reaches this.
		panic(fmt.Sprintf("sim: event at %v behind the wheel cursor %d", ev.when, e.cur))
	}
	if inNearWindow(w, e.cur) {
		ev.where = inNear
		e.near.push(ev)
		return
	}
	// Past the near window the event lies beyond the cursor's near page,
	// so its time and the cursor differ at or above bit nearBits, and
	// below bit 63 (see wheelLevels).
	lvl := (bits.Len64(w^e.cur) - nearBits - 1) / levelBits
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

// scanWheel finds the earliest occupied wheel granule: the first occupied
// slot of the lowest occupied level. A level's occupied slots all lie in
// the cursor's page of that level, so its earliest bucket is one
// TrailingZeros64 away. A level-l event shares the cursor's bits above
// its level and sits in a later slot than the cursor's, while a higher
// level's event has a set bit above level l where the cursor has a clear
// one, so every event on a lower level fires before every granule on a
// higher one.
func (e *Engine) scanWheel() granule {
	for lvl := 0; lvl < wheelLevels; lvl++ {
		if occ := e.levels[lvl].occupied; occ != 0 {
			shift := uint(nearBits + lvl*levelBits)
			tz := bits.TrailingZeros64(occ)
			start := ((e.cur>>shift)&^(wheelSlots-1) | uint64(tz)) << shift
			return granule{start: start, lvl: lvl, slot: tz, valid: true}
		}
	}
	return noGranule
}

// wheelMin returns the earliest occupied wheel granule, rescanning only
// when the cache is invalid. Popping the near window's first event never
// invalidates it: the popped event orders before the granule start, so
// raising the cursor to it keeps the cursor in every occupied bucket's
// page, and every granule start is unchanged.
func (e *Engine) wheelMin() granule {
	if !e.wmin.valid {
		e.wmin = e.scanWheel()
	}
	return e.wmin
}

// popMin removes and returns the earliest event with when ≤ limit, or nil.
// It compares the near window's first event against the cached earliest
// wheel granule and cascades that bucket when it could hold the minimum;
// the near window's exact (when, seq) order is the only thing that ever
// decides order between events. A pop from the near window costs one
// TrailingZeros64, an unlink, and no wheel scan.
func (e *Engine) popMin(limit Time) *event {
	for {
		best := e.near.min(e.cur)
		if g := e.wheelMin(); g.lvl >= 0 && (best == nil || g.start <= uint64(best.when)) {
			// The earliest wheel bucket may hold the true minimum; its
			// granule start is ≤ every event inside it, so advancing the
			// cursor there is safe. But if even the granule start is past
			// the limit, nothing eligible remains — return without
			// disturbing the cursor.
			if Time(g.start) > limit && (best == nil || best.when > limit) {
				return nil
			}
			// The bucket lies in a later slot of its level than the
			// cursor's (see scanWheel), so this raises the cursor, and
			// keeps it in the page of every other occupied bucket.
			e.cur = g.start
			e.cascade(g.lvl, g.slot)
			continue
		}
		if best == nil || best.when > limit {
			return nil
		}
		e.near.remove(best)
		e.cur = uint64(best.when)
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
// delay is added to k's time, saturating at maxTime, so a delay past the
// end of time fires at the end of time rather than wrapping into the past.
// Reserving and saturating here rather than in AtArg and ScheduleArg keeps
// those small enough to inline, so a schedule costs one call.
func (e *Engine) schedule(k Key, delay Duration, afn func(any), afn2 func(any, any), a0, a1 any) Handle {
	if afn == nil && afn2 == nil {
		panic("sim: nil callback")
	}
	if w := k.when + delay; delay > 0 && w < k.when {
		k.when = maxTime
	} else {
		k.when = w
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
// time), and a delay past the end of time fires at maxTime. Because fn is
// typically a package-level function and arg a pointer, scheduling does
// not allocate in steady state.
func (e *Engine) ScheduleArg(delay Duration, fn func(any), arg any) Handle {
	return e.schedule(Key{when: e.now, seq: e.seq}, delay, fn, nil, arg, nil)
}

// AtArg runs fn(arg) at the absolute time t. If t is in the past it fires
// at the current time.
func (e *Engine) AtArg(t Time, fn func(any), arg any) Handle {
	return e.schedule(Key{when: t, seq: e.seq}, 0, fn, nil, arg, nil)
}

// ScheduleArg2 runs fn(a0, a1) after delay (clamped at zero and saturated
// at maxTime), for callbacks needing a receiver plus one argument without
// a closure.
func (e *Engine) ScheduleArg2(delay Duration, fn func(any, any), a0, a1 any) Handle {
	return e.schedule(Key{when: e.now, seq: e.seq}, delay, nil, fn, a0, a1)
}

// AtArg2 runs fn(a0, a1) at the absolute time t (clamped at the current
// time).
func (e *Engine) AtArg2(t Time, fn func(any, any), a0, a1 any) Handle {
	return e.schedule(Key{when: t, seq: e.seq}, 0, nil, fn, a0, a1)
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
	return e.schedule(k, 0, nil, fn, a0, a1)
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
	if !e.stopped && !e.halt.Load() {
		e.settle(until)
	}
	e.stopped = false
	return fired
}

// settle moves the clock to until once every event at or before until
// has fired. Keys reserved for until then count as passed, and anything
// reserved from here on does not. An until before the clock changes
// nothing.
func (e *Engine) settle(until Time) {
	if until >= e.now {
		e.now = until
		e.front = Key{when: until, seq: e.seq}
	}
}

// Step executes the single next pending event, if any, and reports whether
// one was executed. It panics if called from a callback Run is executing,
// as Run does: a nested Step would fire events out from under the running
// one. Step does not mark the engine running itself (that would cost a
// deferred reset per step), so a callback Step executes is not checked.
// Unlike StepUntil, it leaves the clock at the last event fired.
func (e *Engine) Step() bool {
	_, ok := e.step(maxTime)
	return ok
}

// StepUntil executes the next pending event if it is due at or before
// limit, and returns its key; it panics inside Run, as Step does. When
// nothing more is due by limit it reports false and moves the clock to
// limit, as Run(limit) does. So stepping until it reports false leaves
// the engine exactly as Run(limit) alone would (a Run(limit) after it
// fires nothing), and a test can observe every event of a run without
// changing it.
func (e *Engine) StepUntil(limit Time) (Key, bool) {
	k, ok := e.step(limit)
	if !ok {
		e.settle(limit)
	}
	return k, ok
}

// step is Step and StepUntil's body: it fires the next event due at or
// before limit, if any, without settling the clock.
func (e *Engine) step(limit Time) (Key, bool) {
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
