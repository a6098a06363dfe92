package sim

import (
	"reflect"
	"testing"
)

// A probe pairs a reserved key with a real no-op event scheduled for the
// same instant right after it. Nothing can order between the two, so the
// reservation has been passed exactly when the real event has fired.
type probe struct {
	key   Key
	fired bool
}

// TestPassedMatchesRealEvents is the reservation primitive's correctness
// property: under random schedules with many same-instant ties, cancels,
// Stop, bounded Run(until) and Step, Passed agrees with the fate of a real
// event at every point it can be asked — inside every callback, between
// runs, and after events scheduled between runs.
func TestPassedMatchesRealEvents(t *testing.T) {
	for seed := uint64(1); seed <= 300; seed++ {
		checkPassedProperty(t, seed)
		if t.Failed() {
			return
		}
	}
}

func checkPassedProperty(t *testing.T, seed uint64) {
	rng := NewRand(seed, "passed-prop")
	e := NewEngine()
	var probes []*probe
	var fillers []Handle
	budget := 400

	check := func(where string) {
		t.Helper()
		for i, p := range probes {
			if got := e.Passed(p.key); got != p.fired {
				t.Errorf("seed %d, %s at %v: probe %d (when %v) Passed = %v, real event fired = %v",
					seed, where, e.Now(), i, p.key.When(), got, p.fired)
				return
			}
		}
	}
	// delay is mostly zero or a few ns (ties), sometimes far enough to
	// go through the timer wheel.
	delay := func() Duration {
		switch rng.Intn(4) {
		case 0:
			return 0
		case 1, 2:
			return Duration(rng.Intn(4))
		}
		return Duration(rng.Intn(1 << 14))
	}
	reserve := func() {
		p := &probe{key: e.Reserve(e.Now() + delay())}
		e.AtArg(p.key.When(), func(any) { p.fired = true }, nil)
		probes = append(probes, p)
	}

	var act func(any)
	act = func(any) {
		check("callback")
		for n := 1 + rng.Intn(3); n > 0 && budget > 0; n-- {
			budget--
			switch r := rng.Intn(20); {
			case r < 6:
				reserve()
			case r < 15:
				fillers = append(fillers, e.ScheduleArg(delay(), act, nil))
			case r < 19:
				if len(fillers) > 0 {
					fillers[rng.Intn(len(fillers))].Cancel()
				}
			default:
				e.Stop()
			}
		}
		check("callback after actions")
	}

	for i := 0; i < 4; i++ {
		e.ScheduleArg(delay(), act, nil)
	}
	for round := 0; (budget > 0 || e.Pending() > 0) && round < 5000; round++ {
		switch rng.Intn(5) {
		case 0:
			e.Step()
			check("after Step")
		case 1:
			// A bound at or before now (after a Stop, say) fires only what
			// remains at now, if anything.
			e.Run(e.Now() - Duration(rng.Intn(2)))
			check("after Run to the past")
		default:
			e.Run(e.Now() + delay())
			check("after Run")
		}
		// Between runs, reserve and schedule: both must order after the
		// frontier the last run left.
		if rng.Bool(0.3) {
			reserve()
			check("after reserve between runs")
		}
		if rng.Bool(0.3) {
			e.AtArg(e.Now()+1+Duration(rng.Intn(3)), act, nil)
			check("after AtArg between runs")
		}
	}
	e.Run(maxTime - 1)
	check("after drain")
	for i, p := range probes {
		if !p.fired {
			t.Errorf("seed %d: probe %d never fired", seed, i)
		}
	}
}

// keyWorld drives one engine through a random script of commitments
// (callbacks promised for a future instant) and cancelable fillers. The
// reference world schedules each commitment with AtArg2 on the spot; the
// keyed world reserves its key instead and, like a link's arrival FIFO,
// keeps commitments in a key-ordered lane with only the head scheduled
// by AtKeyArg2, giving one that would overtake the lane's tail its own.
type keyWorld struct {
	e       *Engine
	rng     *Rand
	keyed   bool
	lane    []laned
	labels  int
	log     []firing
	budget  int
	fillers []Handle
}

type laned struct {
	k     Key
	label int
}

func keyWorldFire(a0, a1 any) {
	w := a0.(*keyWorld)
	label, ok := a1.(int)
	if !ok { // the lane's head
		label = w.lane[0].label
		w.lane = w.lane[1:]
		if len(w.lane) > 0 {
			w.e.AtKeyArg2(w.lane[0].k, keyWorldFire, w, nil)
		}
	}
	w.log = append(w.log, firing{label, w.e.Now()})
	w.act()
}

// delay is mostly zero or a few ns (ties), sometimes far enough to go
// through the timer wheel.
func (w *keyWorld) delay() Duration {
	if w.rng.Intn(3) == 0 {
		return Duration(w.rng.Intn(1 << 14))
	}
	return Duration(w.rng.Intn(4))
}

func (w *keyWorld) label() int {
	w.labels++
	return w.labels
}

func (w *keyWorld) commit(t Time) {
	label := w.label()
	if !w.keyed {
		w.e.AtArg2(t, keyWorldFire, w, label)
		return
	}
	k := w.e.Reserve(t)
	switch {
	case len(w.lane) == 0:
		w.e.AtKeyArg2(k, keyWorldFire, w, nil)
	case k.When() < w.lane[len(w.lane)-1].k.When():
		w.e.AtKeyArg2(k, keyWorldFire, w, label)
		return
	}
	w.lane = append(w.lane, laned{k, label})
}

func (w *keyWorld) act() {
	for n := 1 + w.rng.Intn(3); n > 0 && w.budget > 0; n-- {
		w.budget--
		switch r := w.rng.Intn(10); {
		case r < 5:
			w.commit(w.e.Now() + w.delay())
		case r < 8:
			w.fillers = append(w.fillers, w.e.ScheduleArg2(w.delay(), keyWorldFire, w, w.label()))
		default:
			if len(w.fillers) > 0 {
				w.fillers[w.rng.Intn(len(w.fillers))].Cancel()
			}
		}
	}
}

// TestAtKeyArg2FiresInReserveOrder: an event scheduled by AtKeyArg2 fires
// exactly where an AtArg2 call at its Reserve would have, however late it
// is scheduled. Both worlds run the same script; their firings (time and
// label) must match one for one.
func TestAtKeyArg2FiresInReserveOrder(t *testing.T) {
	for seed := uint64(1); seed <= 100; seed++ {
		var worlds [2]*keyWorld
		for i := range worlds {
			w := &keyWorld{e: NewEngine(), rng: NewRand(seed, "keyed"), keyed: i == 1, budget: 600}
			for j := 0; j < 4; j++ {
				w.commit(w.delay())
			}
			for w.budget > 0 || w.e.Pending() > 0 {
				w.e.Run(w.e.Now() + w.delay())
				// Commit between runs too, and restart a script that ran dry.
				if w.budget > 0 && (w.e.Pending() == 0 || w.rng.Bool(0.2)) {
					w.budget--
					w.commit(w.e.Now() + 1 + w.delay())
				}
			}
			worlds[i] = w
		}
		ref, keyed := worlds[0], worlds[1]
		if len(ref.log) < 100 || !reflect.DeepEqual(ref.log, keyed.log) {
			t.Fatalf("seed %d: %d firings with AtArg2, %d with reserved keys; first differ at %d",
				seed, len(ref.log), len(keyed.log), firstDiff(ref.log, keyed.log))
		}
		if ref.e.Fired() != keyed.e.Fired() {
			t.Fatalf("seed %d: fired %d vs %d", seed, ref.e.Fired(), keyed.e.Fired())
		}
	}
}

func firstDiff(a, b []firing) int {
	for i := range a {
		if i >= len(b) || a[i] != b[i] {
			return i
		}
	}
	return len(a)
}

// TestAtKeyArg2HandleCancels: the Handle AtKeyArg2 returns reports the
// event pending at its key's time, and canceling it unschedules it.
func TestAtKeyArg2HandleCancels(t *testing.T) {
	e := NewEngine()
	fired := false
	h := e.AtKeyArg2(e.Reserve(10), func(any, any) { fired = true }, nil, nil)
	if !h.Pending() || h.When() != 10 || e.Pending() != 1 {
		t.Fatalf("pending=%v when=%v engine pending=%d", h.Pending(), h.When(), e.Pending())
	}
	if !h.Cancel() || h.Pending() || e.Pending() != 0 {
		t.Fatalf("cancel left pending=%v, engine pending=%d", h.Pending(), e.Pending())
	}
	e.Run(100)
	if fired {
		t.Fatal("canceled event fired")
	}
}

// TestAtKeyArg2PanicsOnPassedKey: a key whose moment has gone — before the
// frontier a Run left, or before the event firing now — cannot be
// scheduled.
func TestAtKeyArg2PanicsOnPassedKey(t *testing.T) {
	nop := func(any, any) {}
	mustPanic := func(where string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: AtKeyArg2 on a passed key did not panic", where)
			}
		}()
		fn()
	}

	e := NewEngine()
	k := e.Reserve(5)
	e.Run(10)
	mustPanic("between runs", func() { e.AtKeyArg2(k, nop, nil, nil) })

	e = NewEngine()
	early := e.Reserve(3) // same instant, reserved before the event below
	ran := false
	e.AtArg(3, func(any) {
		ran = true
		mustPanic("in a callback", func() { e.AtKeyArg2(early, nop, nil, nil) })
		e.AtKeyArg2(e.Reserve(3), nop, nil, nil) // a fresh key for now is fine
	}, nil)
	e.Run(10)
	if !ran || e.Fired() != 2 {
		t.Fatalf("callback ran=%v, fired %d, want 2", ran, e.Fired())
	}
}
