package core

import (
	"ncap/internal/sim"
	"ncap/internal/stats"
)

// Action is DecisionEngine's verdict: which interrupt-cause bits to post.
// A zero Action means no interrupt.
type Action struct {
	// High requests an IT_HIGH interrupt: boost to P0, disable the menu
	// governor, inhibit ondemand for one period.
	High bool
	// Low requests an IT_LOW interrupt: step frequency down (per FCONS)
	// and re-enable the menu governor.
	Low bool
	// Rx requests an IT_RX wake so the target core exits its C-state and
	// is ready when the request reaches memory.
	Rx bool
}

// Any reports whether the action posts an interrupt at all.
func (a Action) Any() bool { return a.High || a.Low || a.Rx }

// ChipState is DecisionEngine's window into the processor, used to avoid
// posting redundant boost/slow interrupts. The NIC driver provides it.
type ChipState interface {
	// AtMaxFreq reports whether the chip is already at (or heading to) P0.
	AtMaxFreq() bool
	// AtMinFreq reports whether the chip is already at the deepest state.
	AtMinFreq() bool
}

// DecisionEngine converts packet-context rates into proactive power
// transitions (Sec. 4.3). Two events drive it: MITT expiry (rate
// evaluation) and request detection (the CIT speculation path).
type DecisionEngine struct {
	cfg  Config
	chip ChipState

	lastInterrupt sim.Time
	lowSince      sim.Time // -1 when rates are not in a low run
	reqRate       float64
	txRate        float64

	// Highs, Lows and Wakes count posted actions by type; Suppressed
	// counts decisions skipped because the chip was already there.
	Highs      stats.Counter
	Lows       stats.Counter
	Wakes      stats.Counter
	Suppressed stats.Counter
}

// NewDecisionEngine builds an engine with the given thresholds. It panics
// on an invalid config (a construction bug, not a runtime condition).
func NewDecisionEngine(cfg Config, chip ChipState, now sim.Time) *DecisionEngine {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &DecisionEngine{
		cfg:           cfg,
		chip:          chip,
		lastInterrupt: now,
		lowSince:      -1,
	}
}

// Config returns the engine's thresholds.
func (d *DecisionEngine) Config() Config { return d.cfg }

// ReqRate returns the last computed request rate (requests/second).
func (d *DecisionEngine) ReqRate() float64 { return d.reqRate }

// TxRate returns the last computed transmit rate (bits/second).
func (d *DecisionEngine) TxRate() float64 { return d.txRate }

// OnMITTExpiry evaluates the rates accumulated over the elapsed MITT
// period and returns the interrupt action to post. reqCnt is the number
// of latency-critical requests seen; txBytes the bytes transmitted.
func (d *DecisionEngine) OnMITTExpiry(now sim.Time, reqCnt, txBytes int64, period sim.Duration) Action {
	if period <= 0 {
		period = sim.Microsecond
	}
	d.reqRate = float64(reqCnt) * float64(sim.Second) / float64(period)
	d.txRate = float64(txBytes) * 8 * float64(sim.Second) / float64(period)

	switch {
	case d.reqRate > d.cfg.RHT:
		d.lowSince = -1
		if d.chip.AtMaxFreq() {
			d.Suppressed.Inc()
			return Action{}
		}
		d.Highs.Inc()
		d.NoteInterrupt(now)
		// IT_HIGH is posted together with IT_RX (Sec. 4.3) so the wake
		// and the boost share one interrupt.
		return Action{High: true, Rx: true}

	case d.reqRate < d.cfg.RLT && d.txRate < d.cfg.TLT:
		if d.lowSince < 0 {
			d.lowSince = now
			return Action{}
		}
		if now-d.lowSince < d.cfg.LowWindow {
			return Action{}
		}
		// Sustained low activity. Restart the window so back-to-back
		// IT_LOW interrupts arrive once per LowWindow until F bottoms out.
		d.lowSince = now
		if d.chip.AtMinFreq() {
			d.Suppressed.Inc()
			return Action{}
		}
		d.Lows.Inc()
		d.NoteInterrupt(now)
		return Action{Low: true}

	default:
		d.lowSince = -1
		return Action{}
	}
}

// OnRequestDetected implements the CIT speculation path (Sec. 4.3): a
// request arriving after a long interrupt-free gap implies the target
// cores have gone to sleep, so NCAP posts an immediate IT_RX — overlapping
// the C-state exit with the NIC→memory delivery latency — without waiting
// for the MITT.
func (d *DecisionEngine) OnRequestDetected(now sim.Time) Action {
	if now-d.lastInterrupt <= d.cfg.CIT {
		return Action{}
	}
	d.Wakes.Inc()
	d.NoteInterrupt(now)
	return Action{Rx: true}
}

// NoteInterrupt records that the NIC posted an interrupt (of any cause) at
// now; the CIT gap is measured from the most recent one.
func (d *DecisionEngine) NoteInterrupt(now sim.Time) {
	if now > d.lastInterrupt {
		d.lastInterrupt = now
	}
}

// ResetStats zeroes the action counters at the warmup boundary.
func (d *DecisionEngine) ResetStats() {
	d.Highs.Reset()
	d.Lows.Reset()
	d.Wakes.Reset()
	d.Suppressed.Reset()
}
