package cpu

import (
	"fmt"

	"ncap/internal/power"
	"ncap/internal/sim"
	"ncap/internal/stats"
	"ncap/internal/telemetry"
)

// Chip is a multicore processor. Cores are grouped into DVFS domains that
// share a voltage/frequency: the paper's baseline has a single chip-wide
// domain (its NIC is single-queue, Sec. 7), while the multi-queue
// extension gives every core its own domain so NCAP can steer the target
// core independently.
type Chip struct {
	eng     *sim.Engine
	cores   []*Core
	domains []*Domain
	table   *power.Table
	model   *power.Model
	cstates []power.CStateInfo // built once; shared by CStates callers

	meter    *power.EnergyMeter
	onPState []func(power.PState)

	// trace receives P/C-state transition events when telemetry is
	// enabled (see RegisterTelemetry); nil otherwise, and Emit no-ops.
	trace *telemetry.EventTrace
}

// Domain is one DVFS domain: the cores sharing a voltage rail and PLL.
// P-state transitions stall only the domain's own cores.
type Domain struct {
	chip  *Chip
	id    int
	cores []*Core

	cur           power.PState
	target        power.PState
	transitioning bool
	pending       *power.PState

	pstateMeter *stats.StateMeter

	// Transitions counts completed P-state changes in this domain.
	Transitions stats.Counter
}

// New assembles a chip with nCores cores in a single chip-wide DVFS
// domain, starting at the initial P-state with all cores idle-polling.
func New(eng *sim.Engine, nCores int, table *power.Table, model *power.Model, initial power.PState) *Chip {
	return build(eng, nCores, 1, table, model, initial)
}

// NewPerCore assembles a chip whose every core is its own DVFS domain —
// the per-core power-management hardware of the Sec. 7 extension.
func NewPerCore(eng *sim.Engine, nCores int, table *power.Table, model *power.Model, initial power.PState) *Chip {
	return build(eng, nCores, nCores, table, model, initial)
}

func build(eng *sim.Engine, nCores, nDomains int, table *power.Table, model *power.Model, initial power.PState) *Chip {
	if nCores <= 0 {
		panic("cpu: chip needs at least one core")
	}
	if nDomains != 1 && nDomains != nCores {
		panic("cpu: domains must be chip-wide (1) or per-core")
	}
	c := &Chip{
		eng:     eng,
		table:   table,
		model:   model,
		cstates: power.DefaultCStates(),
		meter:   power.NewEnergyMeter(eng.Now()),
	}
	for i := 0; i < nDomains; i++ {
		c.domains = append(c.domains, &Domain{
			chip: c, id: i,
			cur: initial, target: initial,
			pstateMeter: stats.NewStateMeter(eng.Now(), initial.Index),
		})
	}
	for i := 0; i < nCores; i++ {
		dom := c.domains[0]
		if nDomains > 1 {
			dom = c.domains[i]
		}
		core := &Core{
			chip:   c,
			dom:    dom,
			id:     i,
			cstate: power.C0,
			cMeter: stats.NewStateMeter(eng.Now(), int(power.C0)),
		}
		c.cores = append(c.cores, core)
		dom.cores = append(dom.cores, core)
	}
	c.powerChanged()
	return c
}

// Engine returns the simulation engine the chip runs on.
func (c *Chip) Engine() *sim.Engine { return c.eng }

// Cores returns the chip's cores.
func (c *Chip) Cores() []*Core { return c.cores }

// Core returns core i.
func (c *Chip) Core(i int) *Core { return c.cores[i] }

// Table returns the chip's P-state table.
func (c *Chip) Table() *power.Table { return c.table }

// Domains returns the chip's DVFS domains (one for chip-wide DVFS).
func (c *Chip) Domains() []*Domain { return c.domains }

// PerCoreDVFS reports whether every core has its own DVFS domain.
func (c *Chip) PerCoreDVFS() bool { return len(c.domains) > 1 }

// Current returns the P-state in effect in the first domain — *the*
// chip state under chip-wide DVFS.
func (c *Chip) Current() power.PState { return c.domains[0].Current() }

// Target returns the first domain's latched transition target.
func (c *Chip) Target() power.PState { return c.domains[0].Target() }

// Transitioning reports whether the first domain is mid-transition.
func (c *Chip) Transitioning() bool { return c.domains[0].transitioning }

// SetPState requests a transition of every domain to ps.
func (c *Chip) SetPState(ps power.PState) {
	for _, d := range c.domains {
		d.SetPState(ps)
	}
}

// SetPStateIndex requests a transition of every domain to table index i.
func (c *Chip) SetPStateIndex(i int) { c.SetPState(c.table.ByIndex(i)) }

// Boost requests an immediate transition of every domain to P0.
func (c *Chip) Boost() { c.SetPState(c.table.Max()) }

// FreqMHz returns the first domain's effective frequency.
func (c *Chip) FreqMHz() int { return c.domains[0].cur.MHz }

// Transitions sums completed P-state changes across domains.
func (c *Chip) Transitions() int64 {
	var n int64
	for _, d := range c.domains {
		n += d.Transitions.Value()
	}
	return n
}

// OnPStateChange registers a hook invoked whenever a new P-state takes
// effect in any domain (for tracing and NCAP bookkeeping).
func (c *Chip) OnPStateChange(fn func(power.PState)) {
	c.onPState = append(c.onPState, fn)
}

// CStates returns the chip's supported sleep states (beyond C0), shallow
// to deep. The slice is the chip's own table: callers must not modify it.
func (c *Chip) CStates() []power.CStateInfo { return c.cstates }

func (c *Chip) exitLatency(s power.CState) sim.Duration {
	if s == power.C0 {
		return 0
	}
	for _, info := range c.cstates {
		if info.State == s {
			return info.ExitLatency
		}
	}
	panic(fmt.Sprintf("cpu: unknown C-state %v", s))
}

// ID returns the domain's index.
func (d *Domain) ID() int { return d.id }

// Cores returns the domain's cores.
func (d *Domain) Cores() []*Core { return d.cores }

// Current returns the P-state in effect.
func (d *Domain) Current() power.PState { return d.cur }

// Target returns the latched transition target (equal to Current when no
// transition is in flight).
func (d *Domain) Target() power.PState {
	if p := d.pending; p != nil {
		return *p
	}
	return d.target
}

// SetPState requests a transition to ps, modeling Fig. 1: raising V/F
// ramps the voltage first (cores keep running at the old frequency), then
// halts the domain's cores for the PLL relock; lowering V/F halts
// immediately and ramps the voltage down afterwards without stalling.
func (d *Domain) SetPState(ps power.PState) {
	if d.transitioning {
		if ps != d.target {
			p := ps
			d.pending = &p
		} else {
			d.pending = nil
		}
		return
	}
	d.pending = nil
	if ps == d.cur {
		return
	}
	d.transitioning = true
	d.target = ps
	if ps.MilliVolts > d.cur.MilliVolts {
		ramp, _ := power.UpTransitionDelay(d.cur, ps)
		d.chip.eng.ScheduleArg(ramp, domainBeginRelock, d)
	} else {
		d.beginRelock()
	}
}

// Package-level trampolines (arg is the *Domain) keep the frequent DVFS
// transitions off the closure-allocating schedule path.
func domainBeginRelock(arg any)      { arg.(*Domain).beginRelock() }
func domainFinishTransition(arg any) { arg.(*Domain).finishTransition() }

// Boost requests an immediate transition to P0.
func (d *Domain) Boost() { d.SetPState(d.chip.table.Max()) }

// StepTowardMin lowers the domain by steps table entries (clamped).
func (d *Domain) StepTowardMin(steps int) {
	d.SetPState(d.chip.table.StepTowardMin(d.Target(), steps))
}

func (d *Domain) beginRelock() {
	for _, core := range d.cores {
		core.beginStall()
	}
	d.chip.eng.ScheduleArg(power.PLLRelock, domainFinishTransition, d)
}

func (d *Domain) finishTransition() {
	now := d.chip.eng.Now()
	d.cur = d.target
	d.transitioning = false
	d.Transitions.Inc()
	d.pstateMeter.Transition(now, d.cur.Index)
	if d.chip.trace != nil { // PState.String formats; skip it when untraced
		d.chip.trace.Emit(telemetry.Event{
			T: now, Comp: "cpu", Kind: "pstate.set", Core: d.id,
			V: float64(d.cur.MHz), Detail: d.cur.String(),
		})
	}
	// Every running core was stalled for the relock, so resuming them here
	// naturally restarts their slices at the new frequency.
	for _, core := range d.cores {
		core.endStall()
	}
	d.chip.powerChanged()
	for _, fn := range d.chip.onPState {
		fn(d.cur)
	}
	if d.pending != nil {
		p := *d.pending
		d.pending = nil
		d.SetPState(p)
	}
}

// PStateTime returns time the domain spent at P-state index i.
func (d *Domain) PStateTime(i int) sim.Duration {
	return d.pstateMeter.Time(d.chip.eng.Now(), i)
}

// PStateTime returns time the first domain spent at P-state index i.
func (c *Chip) PStateTime(i int) sim.Duration { return c.domains[0].PStateTime(i) }

// powerChanged recomputes package power after any core or domain state
// change and feeds the energy meter.
func (c *Chip) powerChanged() {
	total := c.model.UncoreW
	for _, core := range c.cores {
		d := core.draw()
		total += c.model.CorePower(core.dom.cur, d.C, d.Busy, d.EntryMV)
	}
	c.meter.SetPower(c.eng.Now(), total)
}

// EnergyJoules returns package energy accumulated so far.
func (c *Chip) EnergyJoules() float64 { return c.meter.Joules(c.eng.Now()) }

// PowerWatts returns the instantaneous package power.
func (c *Chip) PowerWatts() float64 { return c.meter.Watts() }

// ResetStats zeroes energy and residency accounting at the warmup
// boundary (per-core stats included).
func (c *Chip) ResetStats() {
	now := c.eng.Now()
	c.meter.Reset(now)
	for _, d := range c.domains {
		d.pstateMeter.Reset(now)
		d.Transitions.Reset()
	}
	for _, core := range c.cores {
		core.ResetStats()
	}
}

// Utilization returns each core's busy fraction over the window since the
// given per-core busy snapshots, plus fresh snapshots (the ondemand
// sampling primitive).
func (c *Chip) Utilization(prev []sim.Duration, window sim.Duration) (util []float64, next []sim.Duration) {
	util = make([]float64, len(c.cores))
	next = make([]sim.Duration, len(c.cores))
	for i, core := range c.cores {
		b := core.BusyTime()
		next[i] = b
		if window > 0 && prev != nil {
			util[i] = float64(b-prev[i]) / float64(window)
			if util[i] > 1 {
				util[i] = 1
			}
			if util[i] < 0 {
				util[i] = 0
			}
		}
	}
	return util, next
}
