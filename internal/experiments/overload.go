// E13 — "Through saturation and back": the overload-resilience study the
// paper's fixed-load methodology couldn't run. Flashcrowd and incast
// surges sweep the offered load from half capacity to twice capacity
// across all seven power policies, once with the full resilience layer
// (bounded admission, deadlines, retry budgets, circuit breakers) and —
// at the overload points — once open-loop with every knob off, which
// reproduces the metastable collapse: goodput evaporates into retries
// and the server never drains back to idle. The resilient cells measure
// what each power policy costs or saves *through* saturation: goodput,
// retry amplification, shed/reject rates, and time-to-recovery after the
// surge ends. NCAP is the interesting case — its packet-context boost
// fires on retransmitted packets too, so a retry storm is also a power
// signal.
package experiments

import (
	"fmt"
	"io"

	"ncap/internal/app"
	"ncap/internal/cluster"
	"ncap/internal/resilience"
	"ncap/internal/workload"
)

// E13Fracs are the swept capacity fractions: comfortably below, at, and
// past the paper's highest evaluated load.
func E13Fracs() []float64 { return []float64{0.5, 1.0, 1.5, 2.0} }

// E13Scenarios returns the surge shapes: a flash crowd (rate multiplies
// mid-run, then decays) and incast fan-in (synchronized request beats).
func E13Scenarios() []workload.Scenario {
	return []workload.Scenario{
		{Name: workload.ScenarioFlashCrowd},
		{Name: workload.ScenarioIncast},
	}
}

// E13Spec is the resilience configuration the study runs under: a
// bounded admission queue with deadline-aware shedding, end-to-end
// deadlines at 2× the paper's SLA, a 10% retry budget, per-client
// breakers, jittered backoff, and a bounded dedup table.
func E13Spec(prof app.Profile) *resilience.Spec {
	return &resilience.Spec{
		QueueCap:         resilience.DefaultQueueCap,
		Admit:            resilience.AdmitDeadline,
		Deadline:         2 * cluster.PaperSLA(prof.Name),
		RetryBudget:      0.1,
		BreakerThreshold: 8,
		JitterBackoff:    true,
		DedupCap:         4096,
	}
}

// OverloadRow is one scenario × mode × fraction × policy cell.
type OverloadRow struct {
	Scenario string
	Mode     string // "resilient" or "open-loop" (knobs off)
	Frac     float64
	Policy   cluster.Policy
	Result   cluster.Result
	Err      string
}

// OverloadSweep runs E13 for one workload: every surge scenario × every
// capacity fraction × every policy under the resilience layer, plus
// open-loop collapse cells at 2× capacity for the bracketing policies.
// One batch, deterministic row order.
func OverloadSweep(o Options, prof app.Profile) []OverloadRow {
	capacity := cluster.LoadRPS(prof.Name, cluster.HighLoad)
	spec := E13Spec(prof)
	// The inert spec keeps every legacy code path (no admission, no
	// deadlines, unbounded behavior) while still switching on the
	// overload accounting in the Result — the collapse is measured, not
	// just suffered.
	inert := &resilience.Spec{}
	pols := cluster.AllPolicies()
	var cfgs []cluster.Config
	var rows []OverloadRow
	add := func(sc workload.Scenario, mode string, frac float64, pol cluster.Policy, ov *resilience.Spec) {
		tspec := &workload.Spec{Scenario: sc}
		cfgs = append(cfgs, configFor(o, pol, prof, frac*capacity,
			func(c *cluster.Config) {
				c.Traffic = tspec
				c.Overload = ov
			}))
		rows = append(rows, OverloadRow{Scenario: sc.Name, Mode: mode, Frac: frac, Policy: pol})
	}
	for _, sc := range E13Scenarios() {
		for _, frac := range E13Fracs() {
			for _, pol := range pols {
				add(sc, "resilient", frac, pol, spec)
			}
		}
		// Collapse reference: knobs off at 2× capacity, bracketed by the
		// fastest (perf) and the most aggressive NCAP policy.
		for _, pol := range []cluster.Policy{cluster.Perf, cluster.NcapAggr} {
			add(sc, "open-loop", 2.0, pol, inert)
		}
	}
	for i, oc := range runBatchOutcomes(o, "e13", cfgs) {
		rows[i].Result = oc.Result
		if oc.Err != nil {
			rows[i].Err = oc.Err.Error()
		}
	}
	return rows
}

// RenderOverload runs and writes the E13 table for one workload
// (ncapsweep -exp e13).
func RenderOverload(w io.Writer, o Options, prof app.Profile) {
	fmt.Fprintf(w, "# E13 — %s through saturation: goodput, retry amplification and recovery, 0.5×–2× capacity\n", prof.Name)
	fmt.Fprintf(w, "# resilient: admission+deadline+budget+breaker on; open-loop: every knob off (collapse reference)\n")
	fmt.Fprintf(w, "%-11s %-9s %5s %-10s %9s %8s %8s %8s %8s %9s %11s\n",
		"scenario", "mode", "×cap", "policy",
		"goodput/s", "retryamp", "shed", "rejected", "dl-fail", "p99(ms)", "recover(ms)")
	for _, r := range OverloadSweep(o, prof) {
		if r.Err != "" {
			fmt.Fprintf(w, "%-11s %-9s %5.2g %-10s FAILED: %s\n",
				r.Scenario, r.Mode, r.Frac, r.Policy, firstLine(r.Err))
			continue
		}
		res := r.Result
		rec := "-" // never left idle, or recovered within the window
		switch {
		case res.RecoveryNs < 0:
			rec = "never"
		case res.RecoveryNs > 0:
			rec = fmt.Sprintf("%.1f", res.RecoveryNs.Millis())
		}
		fmt.Fprintf(w, "%-11s %-9s %5.2g %-10s %9.0f %8.2f %8d %8d %8d %9.3f %11s\n",
			r.Scenario, r.Mode, r.Frac, r.Policy,
			res.ServedRPS, res.RetryAmp, res.Shed, res.Rejected, res.DeadlineExceeded,
			res.Latency.P99.Millis(), rec)
	}
	fmt.Fprintln(w)
}
