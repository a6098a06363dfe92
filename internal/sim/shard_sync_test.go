package sim

import (
	"math/rand"
	"testing"
)

// NextEventBound is the conservative-sync primitive: after any Run(until)
// it must lower-bound the earliest pending event, and when events remain
// it must exceed until (the coordinator's progress guarantee).
func TestNextEventBound(t *testing.T) {
	e := NewEngine()
	if e.NextEventBound() != Time(maxTime) {
		t.Fatalf("empty engine bound = %v, want maxTime", e.NextEventBound())
	}

	e.At(5*Microsecond, func() {})
	e.At(3*Millisecond, func() {})
	e.At(7*Second, func() {}) // far future: lands in a coarse wheel level
	if b := e.NextEventBound(); b > 5*Microsecond {
		t.Fatalf("bound %v exceeds the earliest event at 5µs", b)
	}

	e.Run(1 * Millisecond) // fires the 5µs event
	if b := e.NextEventBound(); b <= 1*Millisecond || b > 3*Millisecond {
		t.Fatalf("bound after Run(1ms) = %v, want in (1ms, 3ms]", b)
	}
	e.Run(1 * Second) // fires the 3ms event
	// The 7s event sits in a coarse level: the bound may round down to its
	// wheel-granule start, but never below now and never past the event.
	if b := e.NextEventBound(); b <= 1*Second || b > 7*Second {
		t.Fatalf("bound after Run(1s) = %v, want in (1s, 7s]", b)
	}

	e.Run(10 * Second)
	if e.NextEventBound() != Time(maxTime) {
		t.Fatalf("drained engine bound = %v, want maxTime", e.NextEventBound())
	}
}

// Property check against a randomized schedule: the bound never exceeds
// the true earliest pending event, and Run never outruns it.
func TestNextEventBoundNeverOvershoots(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	e := NewEngine()
	pending := map[Time]int{}
	earliest := func() Time {
		min := Time(maxTime)
		for at := range pending {
			if at < min {
				min = at
			}
		}
		return min
	}
	for i := 0; i < 2000; i++ {
		at := e.Now() + Time(rng.Int63n(int64(2*Second)))
		pending[at]++
		e.At(at, func() {
			pending[at]--
			if pending[at] == 0 {
				delete(pending, at)
			}
		})
		if b := e.NextEventBound(); b > earliest() {
			t.Fatalf("step %d: bound %v past earliest pending %v", i, b, earliest())
		}
		if i%16 == 0 {
			e.Run(e.Now() + Time(rng.Int63n(int64(100*Millisecond))))
			if b, min := e.NextEventBound(), earliest(); b > min {
				t.Fatalf("step %d: post-run bound %v past earliest pending %v", i, b, min)
			} else if min != Time(maxTime) && b <= e.Now() && e.Now() < min {
				t.Fatalf("step %d: bound %v not clamped up to now %v", i, b, e.Now())
			}
		}
	}
}

// InjectAt delivers with the caller's (sat, aux) ordering key: at one
// instant, earlier schedule times fire first, then smaller aux, and the
// local tail (sat = schedule instant, aux = 0) keeps FIFO order.
func TestInjectAtOrdering(t *testing.T) {
	e := NewEngine()
	var order []int
	note := func(a0, a1 any) { order = append(order, a0.(int)) }

	const at = 10 * Microsecond
	// Locals scheduled now carry sat = 0 (current now), aux = 0.
	e.At(at, func() { order = append(order, 100) })
	e.At(at, func() { order = append(order, 101) })
	// Injections at the same instant: sat dominates, then aux.
	e.InjectAt(at, 2*Microsecond, 7, note, 3, nil)
	e.InjectAt(at, 2*Microsecond, 4, note, 2, nil)
	e.InjectAt(at, 8*Microsecond, 1, note, 4, nil)
	e.InjectAt(at, 0, 5, note, 1, nil)

	e.Run(Second)
	// sat=0: locals (aux 0, FIFO) then injected aux=5; sat=2µs: aux 4, 7;
	// sat=8µs last.
	want := []int{100, 101, 1, 2, 3, 4}
	if len(order) != len(want) {
		t.Fatalf("fired %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("fired %v, want %v", order, want)
		}
	}
}

func TestInjectAtPanics(t *testing.T) {
	fn := func(a0, a1 any) {}
	for name, call := range map[string]func(e *Engine){
		"nil-fn":    func(e *Engine) { e.InjectAt(Microsecond, 0, 0, nil, nil, nil) },
		"past":      func(e *Engine) { e.Run(Millisecond); e.InjectAt(Microsecond, 0, 0, fn, nil, nil) },
		"sat-after": func(e *Engine) { e.InjectAt(Microsecond, 2*Microsecond, 0, fn, nil, nil) },
		"sat-equal": func(e *Engine) { e.InjectAt(Microsecond, Microsecond, 0, fn, nil, nil) },
		// Run(until) fired everything at until: an arrival there would
		// order before the frontier.
		"at-frontier": func(e *Engine) { e.Run(Millisecond); e.InjectAt(Millisecond, 0, 1, fn, nil, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: InjectAt did not panic", name)
				}
			}()
			call(NewEngine())
		}()
	}
}
