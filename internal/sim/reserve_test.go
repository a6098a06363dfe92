package sim

import (
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
// Stop, bounded Run(until), Step and InjectAt, Passed agrees with the
// fate of a real event at every point it can be asked — inside every
// callback, between runs, and after injections.
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
		// Between runs — where a shard coordinator injects — reserve and
		// inject: injections must order after the frontier, so they land
		// strictly later with a schedule time before their arrival.
		if rng.Bool(0.3) {
			reserve()
			check("after reserve between runs")
		}
		if rng.Bool(0.3) {
			when := e.Now() + 1 + Duration(rng.Intn(3))
			sat := when - 1 - Duration(rng.Intn(5))
			e.InjectAt(when, sat, uint64(rng.Intn(3)), func(a0, a1 any) { act(nil) }, nil, nil)
			check("after InjectAt")
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
