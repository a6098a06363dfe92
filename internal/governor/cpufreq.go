// Package governor reimplements the Linux power-management policies the
// paper evaluates: the performance and ondemand cpufreq governors and the
// menu cpuidle governor, plus the enable/disable hooks NCAP uses to assist
// them (Sec. 4.3).
package governor

import (
	"ncap/internal/cpu"
	"ncap/internal/sim"
	"ncap/internal/stats"
)

// DefaultOndemandPeriod is the Linux ondemand governor's hard-coded
// minimum invocation period (Sec. 2.1).
const DefaultOndemandPeriod = 10 * sim.Millisecond

// DefaultUpThreshold is the utilization above which ondemand jumps
// straight to the maximum frequency.
const DefaultUpThreshold = 0.80

// OndemandInvokeCycles approximates the CPU cost of one governor
// invocation (utilization bookkeeping plus the cpufreq call path); the
// performance penalty of frequent invocation is why the kernel pins the
// minimum period at 10 ms (Sec. 2.1, Fig. 2).
const OndemandInvokeCycles = 15_000

// Invoker runs governor bookkeeping code on a CPU, charging its cycle
// cost. The kernel provides one; a nil Invoker runs callbacks for free in
// event context (used in unit tests).
type Invoker func(cycles int64, fn func())

// Ondemand is the dynamic P-state policy: every period it samples each
// core's utilization and picks a frequency — jumping to the maximum above
// the up-threshold and scaling down proportionally below it.
type Ondemand struct {
	chip        *cpu.Chip
	period      sim.Duration
	upThreshold float64
	invoke      Invoker
	ticker      *sim.Ticker
	run         func() // o.sample, bound once
	util        []float64
	snapshots   []sim.Duration
	lastSample  sim.Time
	inhibitTil  sim.Time

	// Invocations counts sampling ticks; Raises/Lowers count decided
	// P-state movements.
	Invocations stats.Counter
	Raises      stats.Counter
	Lowers      stats.Counter
}

// NewOndemand builds an ondemand governor for chip with the given
// invocation period (0 means DefaultOndemandPeriod).
func NewOndemand(chip *cpu.Chip, period sim.Duration, invoke Invoker) *Ondemand {
	if period <= 0 {
		period = DefaultOndemandPeriod
	}
	o := &Ondemand{
		chip:        chip,
		period:      period,
		upThreshold: DefaultUpThreshold,
		invoke:      invoke,
		util:        make([]float64, len(chip.Cores())),
		snapshots:   make([]sim.Duration, len(chip.Cores())),
	}
	o.run = o.sample
	o.ticker = sim.NewTicker(chip.Engine(), period, o.tick)
	return o
}

// Period returns the invocation period.
func (o *Ondemand) Period() sim.Duration { return o.period }

// Start begins periodic sampling.
func (o *Ondemand) Start() {
	o.chip.Utilization(o.util, o.snapshots, 0)
	o.lastSample = o.chip.Engine().Now()
	o.ticker.Start()
}

// Stop halts sampling.
func (o *Ondemand) Stop() { o.ticker.Stop() }

// Inhibit suppresses frequency decisions until the end of the next
// invocation period — NCAP disables ondemand for one period after an
// IT_HIGH boost to avoid conflicting decisions (Sec. 4.3).
func (o *Ondemand) Inhibit() {
	o.inhibitTil = o.chip.Engine().Now() + o.period
}

func (o *Ondemand) tick() {
	if o.invoke != nil {
		o.invoke(OndemandInvokeCycles, o.run)
	} else {
		o.sample()
	}
}

// sample is one invocation: measure each core's utilization over the
// window since the last one and steer the DVFS domains.
func (o *Ondemand) sample() {
	now := o.chip.Engine().Now()
	o.chip.Utilization(o.util, o.snapshots, now-o.lastSample)
	o.lastSample = now
	o.Invocations.Inc()
	if now < o.inhibitTil {
		return
	}
	if o.chip.PerCoreDVFS() {
		// Per-core DVFS domains (the multi-queue extension): each
		// core's domain is steered by its own utilization.
		for i, core := range o.chip.Cores() {
			o.decide(core.Domain(), o.util[i])
		}
		return
	}
	// Chip-wide: the busiest core sets the shared frequency.
	max := 0.0
	for _, u := range o.util {
		if u > max {
			max = u
		}
	}
	o.decide(o.chip.Domains()[0], max)
}

// decide applies the ondemand rule to one DVFS domain: jump to the
// maximum above the up-threshold, otherwise scale down proportionally
// with headroom (the slowest frequency keeping utilization under
// threshold).
func (o *Ondemand) decide(dom *cpu.Domain, util float64) {
	cur := dom.Target()
	next := cur
	if util > o.upThreshold {
		next = o.chip.Table().Max()
	} else {
		next = o.chip.Table().ForUtilization(util / o.upThreshold)
	}
	if next.Index < cur.Index {
		o.Raises.Inc()
	} else if next.Index > cur.Index {
		o.Lowers.Inc()
	}
	dom.SetPState(next)
}

// Performance pins the chip at P0 — the SLA-safe baseline policy.
func Performance(chip *cpu.Chip) { chip.SetPState(chip.Table().Max()) }
