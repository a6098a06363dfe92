package sim

// Timer is a restartable one-shot timer bound to an engine, analogous to a
// hardware countdown timer or a kernel hrtimer. The zero value is not
// usable: create timers with NewTimer, or Init one embedded in an owner.
//
// Timers schedule through the one-argument callback form, so arming a
// timer does not allocate.
type Timer struct {
	eng *Engine
	h   Handle
	fn  func()
}

// NewTimer returns a stopped timer that will run fn when it expires.
func NewTimer(eng *Engine, fn func()) *Timer {
	t := new(Timer)
	t.Init(eng, fn)
	return t
}

// Init binds a zero Timer embedded in its owner's struct to eng and fn,
// leaving it stopped — NewTimer without the separate allocation.
func (t *Timer) Init(eng *Engine, fn func()) {
	if fn == nil {
		panic("sim: Timer.Init called with nil fn")
	}
	*t = Timer{eng: eng, fn: fn}
}

// timerExpire is the shared expiry trampoline (arg is the *Timer).
func timerExpire(arg any) {
	t := arg.(*Timer)
	t.h = Handle{}
	t.fn()
}

// Arm (re)starts the timer to expire after d, canceling any pending expiry.
func (t *Timer) Arm(d Duration) {
	t.h.Cancel()
	t.h = t.eng.ScheduleArg(d, timerExpire, t)
}

// ArmIfStopped starts the timer only if it is not already pending.
func (t *Timer) ArmIfStopped(d Duration) {
	if !t.Pending() {
		t.Arm(d)
	}
}

// Stop cancels a pending expiry. It reports whether the timer was pending.
func (t *Timer) Stop() bool {
	stopped := t.h.Cancel()
	t.h = Handle{}
	return stopped
}

// Pending reports whether the timer is armed and has not fired.
func (t *Timer) Pending() bool { return t.h.Pending() }

// Deadline returns the expiry time of a pending timer, or -1 if stopped.
func (t *Timer) Deadline() Time { return t.h.When() }

// Ticker invokes a callback at a fixed period, like a periodic kernel
// timer. Unlike Timer it rearms itself automatically, and like Timer its
// rearm path does not allocate.
type Ticker struct {
	eng    *Engine
	period Duration
	h      Handle
	fn     func()
}

// NewTicker returns a stopped ticker with the given period.
func NewTicker(eng *Engine, period Duration, fn func()) *Ticker {
	if period <= 0 {
		panic("sim: NewTicker period must be positive")
	}
	if fn == nil {
		panic("sim: NewTicker called with nil fn")
	}
	return &Ticker{eng: eng, period: period, fn: fn}
}

// tickerTick is the shared tick trampoline (arg is the *Ticker).
func tickerTick(arg any) {
	t := arg.(*Ticker)
	t.h = t.eng.ScheduleArg(t.period, tickerTick, t)
	t.fn()
}

// Start begins ticking; the first tick fires one period from now. Starting
// a running ticker restarts its phase.
func (t *Ticker) Start() {
	t.h.Cancel()
	t.h = t.eng.ScheduleArg(t.period, tickerTick, t)
}

// Stop halts the ticker.
func (t *Ticker) Stop() {
	t.h.Cancel()
	t.h = Handle{}
}
