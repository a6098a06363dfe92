// E12 — "NCAP under realistic traffic": the seven-policy comparison
// driven by the workload subsystem's scenario generators instead of the
// paper's stationary open-loop bursts. NCAP's premise is that packet
// context tracks load shifts faster than utilization sampling; E12 tests
// that premise where load actually shifts — diurnal swings, flash
// crowds, incast fan-in — with coordinated-omission-safe measurement
// (latency charged from the scheduled send time, pacing backlog
// reported). The stationary scenario rides along as the baseline: its
// rows are bit-identical to the plain-config comparison.
package experiments

import (
	"fmt"
	"io"

	"ncap/internal/app"
	"ncap/internal/cluster"
	"ncap/internal/workload"
)

// E12Scenarios returns the swept scenarios: the stationary baseline plus
// the three shapes that most perturb the inter-arrival pattern NCAP's
// DecisionEngine keys off.
func E12Scenarios() []workload.Scenario {
	return []workload.Scenario{
		{Name: workload.ScenarioStationary},
		{Name: workload.ScenarioDiurnal},
		{Name: workload.ScenarioFlashCrowd},
		{Name: workload.ScenarioIncast},
	}
}

// ScenarioRow is one scenario × policy cell. Err is non-empty when the
// job failed (panic or timeout); the row still appears.
type ScenarioRow struct {
	Scenario string
	Policy   cluster.Policy
	Result   cluster.Result
	Err      string
}

// ScenarioSweep runs E12 for one workload at the given load level: every
// scenario × every policy, one batch, deterministic row order. The
// stationary cells run the built-in burst clients (byte-identical to the
// plain config); the rest replay generated schedules.
func ScenarioSweep(o Options, prof app.Profile, lvl cluster.LoadLevel) []ScenarioRow {
	load := cluster.LoadRPS(prof.Name, lvl)
	pols := cluster.AllPolicies()
	var cfgs []cluster.Config
	var rows []ScenarioRow
	for _, sc := range E12Scenarios() {
		spec := &workload.Spec{Scenario: sc}
		for _, pol := range pols {
			cfgs = append(cfgs, configFor(o, pol, prof, load,
				func(c *cluster.Config) { c.Traffic = spec }))
			rows = append(rows, ScenarioRow{Scenario: sc.Name, Policy: pol})
		}
	}
	for i, oc := range runBatchOutcomes(o, "e12", cfgs) {
		rows[i].Result = oc.Result
		if oc.Err != nil {
			rows[i].Err = oc.Err.Error()
		}
	}
	return rows
}

// RenderScenarios runs and writes the E12 scenario table for one
// workload (ncapsweep -exp e12).
func RenderScenarios(w io.Writer, o Options, prof app.Profile) {
	fmt.Fprintf(w, "# E12 — %s under generated traffic scenarios (medium load; latency charged from scheduled send time)\n", prof.Name)
	fmt.Fprintf(w, "%-11s %-10s %9s %9s %9s %8s %9s %9s\n",
		"scenario", "policy", "p95(ms)", "p99(ms)", "energy(J)", "served/s", "lagged", "lagmax(µs)")
	for _, r := range ScenarioSweep(o, prof, cluster.MediumLoad) {
		if r.Err != "" {
			fmt.Fprintf(w, "%-11s %-10s FAILED: %s\n",
				r.Scenario, r.Policy, firstLine(r.Err))
			continue
		}
		res := r.Result
		fmt.Fprintf(w, "%-11s %-10s %9.3f %9.3f %9.2f %8.0f %9d %9.1f\n",
			r.Scenario, r.Policy, res.Latency.P95.Millis(), res.Latency.P99.Millis(),
			res.EnergyJ, res.ServedRPS, res.LaggedSends, res.SendLagMax.Micros())
	}
	fmt.Fprintln(w)
}
