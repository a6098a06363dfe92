package governor

import (
	"sort"
	"testing"

	"ncap/internal/cpu"
	"ncap/internal/power"
	"ncap/internal/sim"
)

func newChip(eng *sim.Engine) *cpu.Chip {
	tab := power.DefaultTable()
	return cpu.New(eng, 4, tab, power.DefaultModel(), tab.Min())
}

func busyWork(ms int64, mhz int) *cpu.Work {
	return &cpu.Work{Cycles: ms * int64(mhz) * 1000, Prio: cpu.PrioTask}
}

func TestOndemandJumpsToMaxUnderLoad(t *testing.T) {
	eng := sim.NewEngine()
	chip := newChip(eng)
	o := NewOndemand(chip, 0, nil)
	o.Start()
	// Saturate core 0 for 100 ms (at any frequency).
	chip.Core(0).Submit(&cpu.Work{Cycles: 1 << 40, Prio: cpu.PrioTask})
	eng.Run(25 * sim.Millisecond)
	if chip.Target() != chip.Table().Max() {
		t.Fatalf("target = %v, want P0 under 100%% load", chip.Target())
	}
	if o.Invocations.Value() < 2 {
		t.Fatalf("invocations = %d", o.Invocations.Value())
	}
}

func TestOndemandScalesDownWhenIdle(t *testing.T) {
	eng := sim.NewEngine()
	tab := power.DefaultTable()
	chip := cpu.New(eng, 4, tab, power.DefaultModel(), tab.Max())
	o := NewOndemand(chip, 0, nil)
	o.Start()
	eng.Run(25 * sim.Millisecond)
	if chip.Target() != tab.Min() {
		t.Fatalf("target = %v, want deepest with zero load", chip.Target())
	}
	if o.Lowers.Value() == 0 {
		t.Fatal("no lowering decisions recorded")
	}
}

func TestOndemandReactionDelay(t *testing.T) {
	// The governor only reacts at period boundaries: load arriving right
	// after a tick is not served at P0 until the *next* tick — the delayed
	// reaction the paper exploits (Sec. 3).
	eng := sim.NewEngine()
	chip := newChip(eng)
	o := NewOndemand(chip, 0, nil)
	o.Start()
	var boostedAt sim.Time
	chip.OnPStateChange(func(p power.PState) {
		if p == chip.Table().Max() && boostedAt == 0 {
			boostedAt = eng.Now()
		}
	})
	// Burst starts at t=11ms, right after the 10ms tick.
	eng.AtArg(11*sim.Millisecond, func(any) {
		chip.Core(0).Submit(&cpu.Work{Cycles: 1 << 40, Prio: cpu.PrioTask})
	}, nil)
	eng.Run(100 * sim.Millisecond)
	if boostedAt < 20*sim.Millisecond {
		t.Fatalf("boost at %v, want >= 20ms (next tick)", boostedAt)
	}
}

func TestOndemandProportionalMidLoad(t *testing.T) {
	eng := sim.NewEngine()
	tab := power.DefaultTable()
	chip := cpu.New(eng, 1, tab, power.DefaultModel(), tab.Max())
	o := NewOndemand(chip, 0, nil)
	o.Start()
	// ~40% duty cycle on the core: 4 ms busy at P0 per 10 ms window.
	tick := func() {
		chip.Core(0).Submit(busyWork(4, tab.Max().MHz))
	}
	tk := sim.NewTicker(eng, 10*sim.Millisecond, tick)
	tick()
	tk.Start()
	eng.Run(95 * sim.Millisecond)
	got := chip.Target()
	if got == tab.Max() || got == tab.Min() {
		t.Fatalf("mid load target = %v, want intermediate state", got)
	}
}

func TestOndemandInhibit(t *testing.T) {
	eng := sim.NewEngine()
	tab := power.DefaultTable()
	chip := cpu.New(eng, 4, tab, power.DefaultModel(), tab.Max())
	o := NewOndemand(chip, 0, nil)
	o.Start()
	// Idle chip would be scaled down at t=10ms; an NCAP inhibit at t=9ms
	// must hold P0 through that tick.
	eng.AtArg(9*sim.Millisecond, func(any) { o.Inhibit() }, nil)
	eng.Run(15 * sim.Millisecond)
	if chip.Target() != tab.Max() {
		t.Fatalf("inhibited governor still changed state to %v", chip.Target())
	}
	eng.Run(30 * sim.Millisecond)
	if chip.Target() == tab.Max() {
		t.Fatal("governor never resumed after inhibit window")
	}
}

func TestOndemandInvokerCharged(t *testing.T) {
	eng := sim.NewEngine()
	chip := newChip(eng)
	var charged int64
	inv := func(cycles int64, fn func()) {
		charged += cycles
		fn()
	}
	o := NewOndemand(chip, 0, inv)
	o.Start()
	eng.Run(35 * sim.Millisecond)
	if charged != 3*OndemandInvokeCycles {
		t.Fatalf("charged = %d, want %d", charged, 3*OndemandInvokeCycles)
	}
}

func TestOndemandStop(t *testing.T) {
	eng := sim.NewEngine()
	chip := newChip(eng)
	o := NewOndemand(chip, 0, nil)
	o.Start()
	o.Stop()
	eng.Run(50 * sim.Millisecond)
	if o.Invocations.Value() != 0 {
		t.Fatalf("stopped governor ticked %d times", o.Invocations.Value())
	}
}

func TestStaticGovernors(t *testing.T) {
	eng := sim.NewEngine()
	tab := power.DefaultTable()
	chip := cpu.New(eng, 1, tab, power.DefaultModel(), tab.ByIndex(7))
	Performance(chip)
	eng.Run(sim.Millisecond)
	if chip.Current() != tab.Max() {
		t.Fatalf("performance -> %v", chip.Current())
	}
}

func TestMenuPicksDeepStateForLongIdle(t *testing.T) {
	eng := sim.NewEngine()
	chip := newChip(eng)
	m := NewMenu(chip, nil)
	core := chip.Core(0)
	// History of long sleeps.
	for i := 0; i < menuHistory; i++ {
		m.OnWake(core, 10*sim.Millisecond)
	}
	if got := m.SelectIdleState(core); got != power.C6 {
		t.Fatalf("long-idle selection = %v, want C6", got)
	}
}

func TestMenuPicksShallowStateForShortIdle(t *testing.T) {
	eng := sim.NewEngine()
	chip := newChip(eng)
	m := NewMenu(chip, nil)
	core := chip.Core(0)
	for i := 0; i < menuHistory; i++ {
		m.OnWake(core, 15*sim.Microsecond)
	}
	if got := m.SelectIdleState(core); got != power.C1 {
		t.Fatalf("short-idle selection = %v, want C1", got)
	}
}

func TestMenuTimerBound(t *testing.T) {
	eng := sim.NewEngine()
	chip := newChip(eng)
	// Next timer in 30 µs bounds the prediction even with long history.
	m := NewMenu(chip, func(int) sim.Duration { return 30 * sim.Microsecond })
	core := chip.Core(0)
	for i := 0; i < menuHistory; i++ {
		m.OnWake(core, 10*sim.Millisecond)
	}
	if got := m.SelectIdleState(core); got != power.C1 {
		t.Fatalf("timer-bounded selection = %v, want C1 (30µs < C3 residency)", got)
	}
}

func TestMenuSpikyHistoryPessimism(t *testing.T) {
	eng := sim.NewEngine()
	chip := newChip(eng)
	m := NewMenu(chip, nil)
	core := chip.Core(0)
	// Half the history is short idles (choppy traffic): the pessimistic
	// path predicts the minimum and stays shallow.
	for i := 0; i < menuHistory/2; i++ {
		m.OnWake(core, 10*sim.Millisecond)
	}
	for i := 0; i < menuHistory/2; i++ {
		m.OnWake(core, 20*sim.Microsecond)
	}
	if got := m.SelectIdleState(core); got != power.C1 {
		t.Fatalf("choppy history picked %v, want C1", got)
	}
	// A lone short idle among longs does not trigger pessimism: median.
	m2 := NewMenu(chip, nil)
	for i := 0; i < menuHistory-1; i++ {
		m2.OnWake(core, 10*sim.Millisecond)
	}
	m2.OnWake(core, 20*sim.Microsecond)
	if got := m2.SelectIdleState(core); got != power.C6 {
		t.Fatalf("mostly-long history picked %v, want C6", got)
	}
}

func TestMenuDisableForcesC1(t *testing.T) {
	eng := sim.NewEngine()
	chip := newChip(eng)
	m := NewMenu(chip, nil)
	core := chip.Core(0)
	for i := 0; i < menuHistory; i++ {
		m.OnWake(core, 10*sim.Millisecond)
	}
	m.Disable()
	if got := m.SelectIdleState(core); got != power.C1 {
		t.Fatalf("disabled menu returned %v, want C1", got)
	}
	if m.Disabled.Value() != 1 {
		t.Fatalf("disabled counter = %d", m.Disabled.Value())
	}
	m.Enable()
	if got := m.SelectIdleState(core); got != power.C6 {
		t.Fatalf("re-enabled menu returned %v, want C6", got)
	}
}

func TestMenuNoHistoryDefaultsDeep(t *testing.T) {
	eng := sim.NewEngine()
	chip := newChip(eng)
	m := NewMenu(chip, nil)
	if got := m.SelectIdleState(chip.Core(0)); got != power.C6 {
		t.Fatalf("no-history selection = %v, want C6 (assume long idle)", got)
	}
}

func TestMenuIntegrationWithCore(t *testing.T) {
	// End to end: a core governed by menu sleeps during a long gap and the
	// C-state residency shows it.
	eng := sim.NewEngine()
	chip := newChip(eng)
	m := NewMenu(chip, nil)
	core := chip.Core(0)
	core.SetIdleDecider(m)
	core.Submit(&cpu.Work{Cycles: 3100, Prio: cpu.PrioTask})
	eng.Run(50 * sim.Millisecond)
	if got := core.CTime(power.C6); got < 49*sim.Millisecond {
		t.Fatalf("C6 residency = %v, want ~50ms", got)
	}
}

func TestMenuSelectionCounters(t *testing.T) {
	eng := sim.NewEngine()
	chip := newChip(eng)
	m := NewMenu(chip, nil)
	core := chip.Core(0)
	m.SelectIdleState(core)
	if m.Selections[power.C6].Value() != 1 {
		t.Fatalf("selection counter = %d", m.Selections[power.C6].Value())
	}
}

func TestOndemandPerCoreDomains(t *testing.T) {
	eng := sim.NewEngine()
	tab := power.DefaultTable()
	chip := cpu.NewPerCore(eng, 4, tab, power.DefaultModel(), tab.Max())
	o := NewOndemand(chip, 0, nil)
	o.Start()
	// Saturate only core 2: its domain stays at P0 while the idle cores'
	// domains scale to the deepest state.
	chip.Core(2).Submit(&cpu.Work{Cycles: 1 << 40, Prio: cpu.PrioTask})
	eng.Run(25 * sim.Millisecond)
	if got := chip.Core(2).Domain().Target(); got != tab.Max() {
		t.Fatalf("busy core domain = %v, want P0", got)
	}
	for _, id := range []int{0, 1, 3} {
		if got := chip.Core(id).Domain().Target(); got != tab.Min() {
			t.Fatalf("idle core %d domain = %v, want deepest", id, got)
		}
	}
}

func TestMenuPerCoreDisable(t *testing.T) {
	eng := sim.NewEngine()
	chip := newChip(eng)
	m := NewMenu(chip, nil)
	c0, c1 := chip.Core(0), chip.Core(1)
	for i := 0; i < menuHistory; i++ {
		m.OnWake(c0, 10*sim.Millisecond)
		m.OnWake(c1, 10*sim.Millisecond)
	}
	m.DisableCore(0)
	if got := m.SelectIdleState(c0); got != power.C1 {
		t.Fatalf("disabled core selected %v, want C1", got)
	}
	if got := m.SelectIdleState(c1); got != power.C6 {
		t.Fatalf("other core selected %v, want C6 (unaffected)", got)
	}
	if m.CoreEnabled(0) || !m.CoreEnabled(1) {
		t.Fatal("CoreEnabled flags wrong")
	}
	m.EnableCore(0)
	if got := m.SelectIdleState(c0); got != power.C6 {
		t.Fatalf("re-enabled core selected %v, want C6", got)
	}
}

// The menu's prediction sorts its history in place on the stack: an idle
// decision allocates nothing.
func TestMenuSelectDoesNotAllocate(t *testing.T) {
	eng := sim.NewEngine()
	chip := newChip(eng)
	m := NewMenu(chip, nil)
	c := chip.Core(2)
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		i++
		m.SelectIdleState(c)
		m.OnWake(c, sim.Duration(i%7+1)*100*sim.Microsecond)
	})
	if allocs != 0 {
		t.Fatalf("SelectIdleState+OnWake allocate %.1f times per decision, want 0", allocs)
	}
}

// predict must equal the sort-based median/minimum rule it replaced for
// every partial or full history, duplicates and the timer bound included.
func TestMenuPredictMatchesSortedHistory(t *testing.T) {
	rng := sim.NewRand(1, "menu-predict")
	eng := sim.NewEngine()
	chip := newChip(eng)
	for trial := 0; trial < 2000; trial++ {
		bound := sim.Duration(-1)
		if rng.Bool(0.3) {
			bound = sim.Duration(rng.Intn(2000)) * sim.Microsecond
		}
		m := NewMenu(chip, func(int) sim.Duration { return bound })
		c := chip.Core(0)
		var hist []sim.Duration
		for n := rng.Intn(2 * menuHistory); n > 0; n-- {
			// A few coarse values, so equal entries are common.
			v := sim.Duration(rng.Intn(8)) * 150 * sim.Microsecond
			m.OnWake(c, v)
			hist = append(hist, v)
		}
		if len(hist) > menuHistory {
			hist = hist[len(hist)-menuHistory:]
		}
		if got, want := m.predict(0), refPredict(hist, bound); got != want {
			t.Fatalf("trial %d: predict(%v, bound %v) = %v, want %v", trial, hist, bound, got, want)
		}
	}
}

// refPredict is the prediction rule written with a heap-allocated sort.
func refPredict(hist []sim.Duration, bound sim.Duration) sim.Duration {
	if len(hist) == 0 {
		if bound >= 0 {
			return bound
		}
		return sim.Second
	}
	vals := append([]sim.Duration(nil), hist...)
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	shorts := 0
	for _, v := range vals {
		if v < shortIdle {
			shorts++
		}
	}
	pred := vals[len(vals)/2]
	if 2*shorts >= len(vals) {
		pred = vals[0]
	}
	if bound >= 0 && bound < pred {
		pred = bound
	}
	return pred
}

// An ondemand invocation samples into buffers and through a callback
// built once with the governor: the periodic tick allocates nothing.
func TestOndemandTickDoesNotAllocate(t *testing.T) {
	eng := sim.NewEngine()
	chip := newChip(eng)
	invoked := 0
	o := NewOndemand(chip, 0, func(_ int64, fn func()) { invoked++; fn() })
	o.Start()
	allocs := testing.AllocsPerRun(100, func() {
		eng.Run(eng.Now() + o.Period())
	})
	if allocs != 0 {
		t.Fatalf("an ondemand tick allocates %.1f times, want 0", allocs)
	}
	if invoked < 100 || o.Invocations.Value() != int64(invoked) {
		t.Fatalf("%d invocations through %d invoker calls", o.Invocations.Value(), invoked)
	}
}
