// Table renderers shared by the CLIs and the golden-output tests. Each
// writes the exact bytes its command prints, so a golden file captured
// from the CLI pins the rendering and the underlying simulation at once.
package experiments

import (
	"fmt"
	"io"

	"ncap/internal/app"
	"ncap/internal/cluster"
)

// RenderFig1 writes the Fig. 1 P-state transition table (ncapsim -exp
// fig1).
func RenderFig1(w io.Writer) {
	fmt.Fprintln(w, "# Fig. 1 — P-state transition timing (Table 1 parameters)")
	fmt.Fprintf(w, "%-22s %-22s %-5s %9s %9s %9s\n", "from", "to", "dir", "ramp(µs)", "halt(µs)", "total(µs)")
	for _, r := range Fig1() {
		fmt.Fprintf(w, "%-22s %-22s %-5s %9.1f %9.1f %9.1f\n",
			r.From, r.To, r.Direction, r.RampUs, r.HaltUs, r.EffectUs)
	}
}

// RenderDegraded runs and writes the E11 degraded-network table for one
// workload (ncapsweep -exp e11).
func RenderDegraded(w io.Writer, o Options, prof app.Profile) {
	fmt.Fprintf(w, "# E11 — %s under degraded network (medium load; flapping client-1 downlink, slow client 2, server-link loss sweep)\n", prof.Name)
	fmt.Fprintf(w, "%-10s %6s %9s %9s %9s %8s %8s %8s %8s\n",
		"policy", "loss%", "p95(ms)", "p99(ms)", "energy(J)", "retrans", "abandon", "lost", "resent")
	for _, r := range DegradedNetwork(o, prof, cluster.MediumLoad) {
		if r.Err != "" {
			// A failed cell is a row, not an abort: the sweep completes
			// and the process exit code reports the failure count.
			fmt.Fprintf(w, "%-10s %6.1f FAILED: %s\n",
				r.Policy, r.LossPct, firstLine(r.Err))
			continue
		}
		res := r.Result
		fmt.Fprintf(w, "%-10s %6.1f %9.3f %9.3f %9.2f %8d %8d %8d %8d\n",
			r.Policy, r.LossPct, res.Latency.P95.Millis(), res.Latency.P99.Millis(),
			res.EnergyJ, res.Retransmits, res.Abandoned,
			res.FaultDrops+res.CorruptDrops, res.DupResent)
	}
	fmt.Fprintln(w)
}

// firstLine trims a multi-line error (panic stacks) for table output.
func firstLine(s string) string {
	for i := 0; i < len(s); i++ {
		if s[i] == '\n' {
			return s[:i]
		}
	}
	return s
}
