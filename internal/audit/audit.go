// Package audit is the opt-in runtime invariant layer: components report
// conservation-law violations (packet accounting, pool ownership, residency
// sums, energy bounds, event-queue integrity) into an Auditor, and the
// cluster surfaces them through the report document and a non-zero exit.
//
// The layer is pure observation. Components hold a nil *Auditor (or a nil
// tracker) when auditing is off, and every hot-path hook is a single
// nil/zero check, so the audited-off simulation is byte-identical to the
// historical output and the bench gate stays green.
package audit

import (
	"fmt"
	"strconv"
)

// Violation is one detected invariant breach. The JSON names are part of
// the ncap-report-v1 document and must stay stable.
type Violation struct {
	// Component names the subsystem that owns the invariant, in the same
	// dotted style as telemetry metric names (e.g. "server.nic",
	// "link.from/node1", "server.cpu.core2").
	Component string `json:"component"`
	// Invariant is a short identifier for the broken law, e.g.
	// "packet-conservation" or "cstate-residency-sum".
	Invariant string `json:"invariant"`
	// Expected and Got describe the two sides of the failed comparison.
	Expected string `json:"expected"`
	Got      string `json:"got"`
	// SimTimeNs is the simulated time at which the check ran.
	SimTimeNs int64 `json:"sim_time_ns"`
}

func (v Violation) String() string {
	return fmt.Sprintf("%s: %s: expected %s, got %s (t=%dns)",
		v.Component, v.Invariant, v.Expected, v.Got, v.SimTimeNs)
}

// MaxViolations bounds the collected slice so a systemic breach (one
// violation per epoch for hours of simulated time) cannot balloon memory.
// Violations past the bound are counted, and Violations reports the count
// as one final "violations-dropped" entry.
const MaxViolations = 1024

// Auditor collects violations for one simulation run. A nil *Auditor is
// valid and inert — every method is a no-op — so components can call it
// unconditionally on cold paths. The simulator is single-threaded, so the
// Auditor is not locked.
type Auditor struct {
	vs        []Violation
	dropped   int
	droppedAt int64 // simulated time of the last dropped violation
}

// New returns an empty Auditor.
func New() *Auditor { return &Auditor{} }

// Report records one violation.
func (a *Auditor) Report(component, invariant string, simTimeNs int64, expected, got string) {
	if a == nil {
		return
	}
	if len(a.vs) >= MaxViolations {
		a.dropped++
		a.droppedAt = simTimeNs
		return
	}
	a.vs = append(a.vs, Violation{
		Component: component,
		Invariant: invariant,
		Expected:  expected,
		Got:       got,
		SimTimeNs: simTimeNs,
	})
}

// CheckInt reports a violation when got differs from expected. It returns
// true when the check passed.
func (a *Auditor) CheckInt(component, invariant string, simTimeNs, expected, got int64) bool {
	if got == expected {
		return true
	}
	a.Report(component, invariant, simTimeNs,
		fmt.Sprintf("%d", expected), fmt.Sprintf("%d", got))
	return false
}

// Violations returns the collected violations in report order. When
// more than MaxViolations were reported, a final entry (component
// "audit", invariant "violations-dropped", expected 0) gives how many
// were discarded, so a truncated list never reads as the whole count.
func (a *Auditor) Violations() []Violation {
	if a == nil {
		return nil
	}
	if a.dropped == 0 {
		return a.vs
	}
	return append(a.vs[:len(a.vs):len(a.vs)], Violation{
		Component: "audit",
		Invariant: "violations-dropped",
		Expected:  "0",
		Got:       strconv.Itoa(a.dropped),
		SimTimeNs: a.droppedAt,
	})
}
