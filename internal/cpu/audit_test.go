package cpu

import (
	"strings"
	"testing"

	"ncap/internal/audit"
	"ncap/internal/power"
	"ncap/internal/sim"
)

// TestAuditAccountingCleanChip: a chip doing real work — wakes, sleeps,
// P-state moves — satisfies the residency invariants at any probe time.
func TestAuditAccountingCleanChip(t *testing.T) {
	eng := sim.NewEngine()
	chip := newChip(eng)
	chip.Core(0).Submit(&Work{Cycles: 6_200_000, Prio: PrioTask})
	chip.SetPState(chip.Table().ByIndex(0))
	eng.Run(5 * sim.Millisecond)
	chip.Boost()
	chip.Core(1).Submit(&Work{Cycles: 3_100_000, Prio: PrioTask})
	eng.Run(10 * sim.Millisecond)

	a := audit.New()
	chip.AuditAccounting(a, 0)
	if vs := a.Violations(); len(vs) != 0 {
		t.Fatalf("clean chip produced violations: %v", vs)
	}
}

// TestAuditDetectsDroppedCStateTransition is the mutation the meter-state
// cross-check exists for: flip the hardware sleep state without telling
// the residency meter. The residency sum stays consistent (the meter
// keeps accruing into the stale state), and package power is re-priced as
// on the real path, so only the meter-state check can catch it.
func TestAuditDetectsDroppedCStateTransition(t *testing.T) {
	eng := sim.NewEngine()
	chip := newChip(eng)
	eng.Run(5 * sim.Millisecond)
	chip.Core(0).cstate = power.C6 // dropped transition: no cMeter call
	chip.Core(0).powerChanged()

	a := audit.New()
	chip.AuditAccounting(a, 0)
	vs := a.Violations()
	if len(vs) != 1 {
		t.Fatalf("violations = %v, want exactly the meter-state mismatch", vs)
	}
	if vs[0].Component != "cpu.core0" || vs[0].Invariant != "cstate-meter-state" {
		t.Fatalf("violation = %+v", vs[0])
	}
}

// TestAuditDetectsDroppedPStateTransition: same mutation one layer up —
// the domain's current P-state moves without a meter transition.
func TestAuditDetectsDroppedPStateTransition(t *testing.T) {
	eng := sim.NewEngine()
	chip := newChip(eng)
	eng.Run(5 * sim.Millisecond)
	d := chip.Domains()[0]
	d.cur = chip.Table().Min() // dropped transition: no pstateMeter call

	a := audit.New()
	chip.AuditAccounting(a, 0)
	found := false
	for _, v := range a.Violations() {
		if v.Component == "cpu.domain0" && v.Invariant == "pstate-meter-state" {
			found = true
		}
	}
	if !found {
		t.Fatalf("dropped P-state transition not reported: %v", a.Violations())
	}
}

// TestAuditDetectsMissedReprice: a state change that skips its core's
// re-price leaves package power stale, which only the exact package-power
// check sees — the sum of cached draws is the wrong float64, not an
// approximately right one.
func TestAuditDetectsMissedReprice(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mutate func(*Chip)
	}{
		{"cstate", func(c *Chip) {
			core := c.Core(1)
			core.cstate = power.C6
			core.cMeter.Transition(c.eng.Now(), int(power.C6))
		}},
		{"pstate", func(c *Chip) {
			d := c.Domains()[0]
			d.cur = c.Table().Min()
			d.pstateMeter.Transition(c.eng.Now(), d.cur.Index)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng := sim.NewEngine()
			chip := newChip(eng)
			chip.Core(0).Submit(&Work{Cycles: 3_100_000, Prio: PrioTask})
			eng.Run(100 * sim.Microsecond)
			tc.mutate(chip)
			chip.powerChanged() // a re-sum of the stale cached draws

			a := audit.New()
			chip.AuditAccounting(a, 0)
			vs := a.Violations()
			if len(vs) != 1 || vs[0].Component != "cpu.chip" || vs[0].Invariant != "package-power" {
				t.Fatalf("violations = %v, want exactly the package-power mismatch", vs)
			}
		})
	}
}

// TestMaxPowerWatts: the audit's energy bound must dominate any power the
// meter can report, with every core busy at P0.
func TestMaxPowerWatts(t *testing.T) {
	eng := sim.NewEngine()
	chip := newChip(eng)
	maxW := chip.MaxPowerWatts()
	if maxW <= 0 {
		t.Fatalf("MaxPowerWatts = %v", maxW)
	}
	chip.Boost()
	for _, c := range chip.Cores() {
		c.Submit(&Work{Cycles: 3_100_000, Prio: PrioTask})
	}
	eng.Run(100 * sim.Microsecond)
	if w := chip.PowerWatts(); w > maxW {
		t.Fatalf("live power %v exceeds audit bound %v", w, maxW)
	}
}

// TestAuditResidencyWindow: after a stats reset, sums are measured
// against the reset boundary, not time zero.
func TestAuditResidencyWindow(t *testing.T) {
	eng := sim.NewEngine()
	chip := newChip(eng)
	eng.Run(7 * sim.Millisecond)
	chip.ResetStats()
	boundary := eng.Now()
	eng.Run(13 * sim.Millisecond)

	a := audit.New()
	chip.AuditAccounting(a, boundary)
	if vs := a.Violations(); len(vs) != 0 {
		t.Fatalf("reset-relative window produced violations: %v", vs)
	}
	// Probing against the wrong window must fail, proving the check has
	// teeth rather than trivially passing.
	b := audit.New()
	chip.AuditAccounting(b, 0)
	vs := b.Violations()
	if len(vs) == 0 {
		t.Fatal("stale window not detected")
	}
	if !strings.Contains(vs[0].Invariant, "residency-sum") {
		t.Fatalf("violation = %+v", vs[0])
	}
}
