package sim

import (
	"sort"
	"testing"
	"testing/quick"

	"ncap/internal/audit"
)

// refEntry is one scheduled event in the reference model: a plain sorted
// list keyed by (when, schedule order), the specification the timer wheel
// must match exactly.
type refEntry struct {
	when Time
	ord  int
	id   int
}

// wheelModel drives a random stream of schedules (one- and two-argument
// callbacks,
// delays spanning the near window, every wheel level, and the overflow heap)
// and cancellations against an engine, and keeps the reference model the
// engine's fire order must match.
type wheelModel struct {
	t    *testing.T
	seed uint64
	rng  *Rand
	e    *Engine
	got  []firing
	ref  []refEntry
	ord  int

	// Cancelable events. Handles stay cancelable forever and must report
	// dead after firing.
	lives []liveEvent
	dead  map[int]bool
}

type firing struct {
	id int
	at Time
}

type liveEvent struct {
	id int
	h  Handle
}

func newWheelModel(t *testing.T, seed uint64) *wheelModel {
	return &wheelModel{t: t, seed: seed, rng: NewRand(seed, "wheel-prop"), e: NewEngine(), dead: map[int]bool{}}
}

// op performs one random schedule or cancel.
func (m *wheelModel) op() {
	rng, e := m.rng, m.e
	if len(m.lives) > 0 && rng.Bool(0.25) {
		// Cancel a random event (possibly one that already fired).
		i := rng.Intn(len(m.lives))
		v := m.lives[i]
		m.lives[i] = m.lives[len(m.lives)-1]
		m.lives = m.lives[:len(m.lives)-1]
		if m.dead[v.id] {
			if v.h.Cancel() {
				m.t.Errorf("seed %d: Cancel succeeded on fired handle %d", m.seed, v.id)
			}
			return
		}
		for j, r := range m.ref {
			if r.id == v.id {
				m.ref = append(m.ref[:j], m.ref[j+1:]...)
				break
			}
		}
		if !v.h.Cancel() {
			m.t.Errorf("seed %d: Cancel failed for pending event %d", m.seed, v.id)
		}
		return
	}
	// Schedule with a delay spanning 0ns to ~2^45ns so the near window,
	// every wheel level, and the overflow heap all see traffic.
	d := Duration(rng.Uint64() & ((1 << uint(rng.Intn(46))) - 1))
	id := m.ord
	m.ref = append(m.ref, refEntry{when: e.Now() + Time(d), ord: m.ord, id: id})
	m.ord++
	record := func() {
		m.got = append(m.got, firing{id, e.Now()})
		m.dead[id] = true
	}
	var h Handle
	if rng.Bool(0.5) {
		h = e.ScheduleArg(d, func(any) { record() }, nil)
	} else {
		h = e.ScheduleArg2(d, func(any, any) { record() }, nil, nil)
	}
	m.lives = append(m.lives, liveEvent{id, h})
}

// advance draws an uneven clock step; zero keeps several ops at one
// instant.
func (m *wheelModel) advance() Duration {
	return Duration(m.rng.Uint64() & ((1 << uint(m.rng.Intn(40))) - 1))
}

// check compares the fire order with the reference once the engine has
// drained.
func (m *wheelModel) check() bool {
	ref := m.ref
	sort.SliceStable(ref, func(i, j int) bool {
		if ref[i].when != ref[j].when {
			return ref[i].when < ref[j].when
		}
		return ref[i].ord < ref[j].ord
	})
	if len(m.got) != len(ref) {
		m.t.Errorf("seed %d: fired %d events, reference expects %d", m.seed, len(m.got), len(ref))
		return false
	}
	for i := range ref {
		if m.got[i].id != ref[i].id || m.got[i].at != ref[i].when {
			m.t.Errorf("seed %d: firing %d = (id %d, %v), reference (id %d, %v)",
				m.seed, i, m.got[i].id, m.got[i].at, ref[i].id, ref[i].when)
			return false
		}
	}
	return true
}

const wheelModelOps = 300

// TestWheelMatchesReferenceModel is the wheel's correctness property:
// under random interleavings of scheduling and cancellation, issued from
// inside callbacks of one unbounded Run, events fire in exactly the
// (when, schedule-order) sequence a naive sorted list predicts.
func TestWheelMatchesReferenceModel(t *testing.T) {
	prop := func(seed uint64) bool {
		m := newWheelModel(t, seed)
		remaining := wheelModelOps
		var step func(any)
		step = func(any) {
			if remaining == 0 {
				return
			}
			remaining--
			m.op()
			m.e.ScheduleArg(m.advance(), step, nil)
		}
		m.e.ScheduleArg(0, step, nil)
		m.e.Run(maxTime - 1)
		return m.check()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestWheelMatchesReferenceModelBoundedRuns drives the same stream from
// outside the engine, between a series of bounded Run(until) calls, so
// every op lands on a queue that a bounded Run left mid-wheel: cascades
// stopped short of their events, a cached earliest granule, and events
// pending on every level. After each run the structural audit (including
// the earliest-granule cache) must be clean, and the wheel cursor must not
// have run ahead of the clock — an insert behind the cursor would have to
// take the overflow heap's fallback path.
func TestWheelMatchesReferenceModelBoundedRuns(t *testing.T) {
	prop := func(seed uint64) bool {
		m := newWheelModel(t, seed)
		a := audit.New()
		var cursor uint64
		for i := 0; i < wheelModelOps; i++ {
			m.op()
			m.e.Run(m.e.Now() + m.advance())
			cursor = m.e.AuditIntegrity(a, cursor)
			if m.e.cur > uint64(m.e.Now()) {
				t.Errorf("seed %d: wheel cursor %d ahead of the clock %v after a bounded Run",
					seed, m.e.cur, m.e.Now())
				return false
			}
		}
		m.e.Run(maxTime - 1)
		m.e.AuditIntegrity(a, cursor)
		if vs := a.Violations(); len(vs) != 0 {
			t.Errorf("seed %d: integrity audit: %v", seed, vs)
			return false
		}
		return m.check()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestWheelFarFutureOrdering pins the overflow path: events beyond the
// wheel horizon migrate inward as the clock advances and still fire in
// exact schedule order at equal times.
func TestWheelFarFutureOrdering(t *testing.T) {
	e := NewEngine()
	var order []int
	far := Time(1) << 50 // far past the wheel horizon
	for i := 0; i < 32; i++ {
		i := i
		e.AtArg(far, func(any) { order = append(order, i) }, nil)
	}
	// Intermediate traffic drags the cursor across every level.
	for lvl := uint(0); lvl < 50; lvl += 3 {
		e.AtArg(Time(1)<<lvl, func(any) {}, nil)
	}
	e.Run(far)
	if len(order) != 32 {
		t.Fatalf("fired %d far-future events, want 32", len(order))
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("far-future events fired out of order: %v", order)
		}
	}
}

// TestEnginePendingExact verifies Pending tracks live events through
// schedule, cancel, and fire.
func TestEnginePendingExact(t *testing.T) {
	e := NewEngine()
	var hs []Handle
	for i := 0; i < 10; i++ {
		hs = append(hs, e.ScheduleArg(Duration(i)*Millisecond, func(any) {}, nil))
	}
	if got := e.Pending(); got != 10 {
		t.Fatalf("Pending = %d, want 10", got)
	}
	hs[3].Cancel()
	hs[7].Cancel()
	if got := e.Pending(); got != 8 {
		t.Fatalf("Pending after cancels = %d, want 8", got)
	}
	e.Run(4 * Millisecond)
	if got := e.Pending(); got != 4 {
		t.Fatalf("Pending after partial run = %d, want 4", got)
	}
	e.Run(Second)
	if got := e.Pending(); got != 0 {
		t.Fatalf("Pending after drain = %d, want 0", got)
	}
}

// TestHandleSurvivesReuse verifies a Handle to a fired event stays dead
// even after the engine recycles the underlying event for new work.
func TestHandleSurvivesReuse(t *testing.T) {
	e := NewEngine()
	h := e.ScheduleArg(Millisecond, func(any) {}, nil)
	e.Run(2 * Millisecond)
	if h.Pending() {
		t.Fatal("handle pending after its event fired")
	}
	// Recycle the pooled event into fresh events; the old handle must not
	// alias them.
	for i := 0; i < 8; i++ {
		e.ScheduleArg(Duration(i+3)*Millisecond, func(any) {}, nil)
	}
	if h.Pending() {
		t.Fatal("stale handle sees a recycled event as its own")
	}
	if h.Cancel() {
		t.Fatal("stale handle canceled a recycled event")
	}
	e.Run(Second)
}
