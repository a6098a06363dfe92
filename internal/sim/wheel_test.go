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
// callbacks, delays spanning the near window and every wheel level) and
// cancellations against an engine, and keeps the reference model the
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
	// Schedule with a delay spanning 0ns to ~2^62ns so the near window
	// and every wheel level see traffic.
	d := Duration(rng.Uint64() & ((1 << uint(rng.Intn(63))) - 1))
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

// checkBoundedAdvances drives the model's stream from outside the engine,
// between a series of bounded advances to limit, so every op lands on a
// queue that an advance left mid-wheel: cascades stopped short of their
// events, a cached earliest granule, and events pending on every level.
// After each advance the clock must read limit, the structural audit
// (including the earliest-granule cache) must be clean, and the wheel
// cursor must not have run ahead of the clock, where the next insert
// would land behind it.
func checkBoundedAdvances(t *testing.T, advance func(e *Engine, limit Time)) {
	prop := func(seed uint64) bool {
		m := newWheelModel(t, seed)
		a := audit.New()
		var cursor uint64
		for i := 0; i < wheelModelOps; i++ {
			m.op()
			limit := m.e.Now() + m.advance()
			advance(m.e, limit)
			cursor = m.e.AuditIntegrity(a, cursor)
			if m.e.Now() != limit || m.e.cur > uint64(m.e.Now()) {
				t.Errorf("seed %d: clock %v and wheel cursor %d after advancing to %v",
					seed, m.e.Now(), m.e.cur, limit)
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

// TestWheelMatchesReferenceModelBoundedRuns advances with Run(limit).
func TestWheelMatchesReferenceModelBoundedRuns(t *testing.T) {
	checkBoundedAdvances(t, func(e *Engine, limit Time) { e.Run(limit) })
}

// TestWheelMatchesReferenceModelBoundedSteps advances by calling
// StepUntil(limit) until it reports false, which must leave the clock at
// limit, as Run(limit) does, with the cursor no later.
func TestWheelMatchesReferenceModelBoundedSteps(t *testing.T) {
	checkBoundedAdvances(t, func(e *Engine, limit Time) {
		for {
			if _, ok := e.StepUntil(limit); !ok {
				return
			}
		}
	})
}

// TestWheelFarFutureOrdering pins the top of the wheel: ties at instants
// up to maxTime−1, on levels as high as the last, migrate inward as the
// clock advances and still fire in exact schedule order, with the
// structural audit clean at every stop.
func TestWheelFarFutureOrdering(t *testing.T) {
	e := NewEngine()
	a := audit.New()
	type tie struct {
		at Time
		i  int
	}
	var got []tie
	fars := []Time{1 << 50, 1 << 61, 1 << 62, maxTime - 1}
	// Interleave the ties' scheduling so that sequence numbers alone do
	// not sort them.
	for i := 0; i < 32; i++ {
		for _, far := range fars {
			e.AtArg(far, func(any) { got = append(got, tie{far, i}) }, nil)
		}
	}
	// Intermediate traffic drags the cursor across every level.
	for lvl := uint(0); lvl < 63; lvl += 3 {
		e.AtArg(Time(1)<<lvl, func(any) {}, nil)
	}
	var cursor uint64
	for _, far := range fars {
		e.Run(far)
		cursor = e.AuditIntegrity(a, cursor)
	}
	if vs := a.Violations(); len(vs) != 0 {
		t.Fatalf("integrity audit: %v", vs)
	}
	if len(got) != 32*len(fars) || e.Pending() != 0 {
		t.Fatalf("fired %d far-future events with %d pending, want %d and 0",
			len(got), e.Pending(), 32*len(fars))
	}
	for k, v := range got {
		if want := (tie{fars[k/32], k % 32}); v != want {
			t.Fatalf("firing %d = %+v, want %+v", k, v, want)
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
