// Family renderers: the full experiment matrix behind one dispatch
// surface. Each renderer runs its family and writes the exact table bytes
// ncapsweep prints, so the CLI and the orchestration service (ncapd)
// produce identical human-readable output for the same submission.
package experiments

import (
	"fmt"
	"io"

	"ncap/internal/app"
	"ncap/internal/cluster"
)

// RenderLatencyVsLoad writes the Fig. 7 latency-versus-load curve and the
// derived SLA for one workload (ncapsweep -exp lvl).
func RenderLatencyVsLoad(w io.Writer, o Options, prof app.Profile) {
	fmt.Fprintf(w, "# Fig. 7 — %s: 95th-percentile latency vs load (perf policy)\n", prof.Name)
	pts := LatencyVsLoad(o, prof)
	for _, p := range pts {
		fmt.Fprintf(w, "load=%7.0f rps   p95=%9.3f ms\n", p.LoadRPS, p.P95.Millis())
	}
	sla, knee := FindSLA(pts)
	fmt.Fprintf(w, "inflexion at %.0f rps -> SLA = %.3f ms (paper: %v)\n\n",
		knee, sla.Millis(), cluster.PaperSLA(prof.Name))
}

// RenderPolicies writes the Fig. 8/9 seven-policy comparison for one
// workload (ncapsweep -exp policies).
func RenderPolicies(w io.Writer, o Options, prof app.Profile) {
	sla, _ := MeasuredSLA(o, prof)
	rows := Comparison(o, prof, sla)
	fmt.Fprintf(w, "# Fig. 8/9 — measured SLA %.3f ms\n", sla.Millis())
	WriteComparison(w, prof.Name, rows)
	fmt.Fprintln(w)
}

// RenderFig2 writes the ondemand invocation-period sweep (ncapsweep -exp
// fig2). The figure is Apache's whatever workloads are selected.
func RenderFig2(w io.Writer, o Options, _ []app.Profile) {
	fmt.Fprintln(w, "# Fig. 2 — Apache p95 latency vs ondemand invocation period")
	fmt.Fprintf(w, "%-10s %-8s %10s\n", "period", "load", "p95(ms)")
	for _, r := range Fig2(o) {
		fmt.Fprintf(w, "%-10v %-8s %10.3f\n", r.Period, r.Level, r.P95.Millis())
	}
	fmt.Fprintln(w)
}

// RenderHeadline writes the abstract's headline energy-saving claims for
// one workload (ncapsweep -exp headline).
func RenderHeadline(w io.Writer, o Options, prof app.Profile) {
	sla, _ := MeasuredSLA(o, prof)
	rows := Comparison(o, prof, sla)
	h := Headline(sla, rows)
	fmt.Fprintf(w, "# Headline claims — %s (SLA %.3f ms)\n", prof.Name, sla.Millis())
	for _, r := range h.Rows {
		best := "n/a: none meets SLA"
		if r.BestConventional != "" {
			best = fmt.Sprintf("%s: %+.1f%%", r.BestConventional, -r.SavingVsBestPct)
		}
		fmt.Fprintf(w, "%-7s ncap.aggr vs perf: %+6.1f%%   vs best conventional (%s)   SLA met: %v\n",
			r.Level, -r.SavingVsPerfPct, best, r.NcapMeetsSLA)
	}
	fmt.Fprintln(w)
}

// RenderExtensions writes the Sec. 7 multi-queue and TOE extension tables
// for one workload (ncapsweep -exp extensions).
func RenderExtensions(w io.Writer, o Options, prof app.Profile) {
	fmt.Fprintf(w, "# Extensions (Sec. 7) — %s (low load)\n", prof.Name)
	for _, r := range ExtensionMultiQueue(o, prof, cluster.LowLoad) {
		fmt.Fprintf(w, "  mq  %-24s p95=%9.3fms energy=%7.2fJ boosts=%d\n",
			r.Name, r.Result.Latency.P95.Millis(), r.Result.EnergyJ, r.Result.Boosts)
	}
	for _, r := range ExtensionTOE(o, prof, cluster.LowLoad) {
		fmt.Fprintf(w, "  toe %-24s p95=%9.3fms energy=%7.2fJ\n",
			r.Name, r.Result.Latency.P95.Millis(), r.Result.EnergyJ)
	}
	fmt.Fprintln(w)
}

// RenderAblations writes the design-choice ablation tables for one
// workload (ncapsweep -exp ablations).
func RenderAblations(w io.Writer, o Options, prof app.Profile) {
	fmt.Fprintf(w, "# Ablations — %s (low load)\n", prof.Name)
	cit := AblationCIT(o, prof, cluster.LowLoad)
	fmt.Fprintf(w, "%-22s removing it: p95 %+6.1f%%  energy %+6.1f%%  (cit-wakes %d -> %d)\n",
		cit.Name, cit.LatencyDeltaPct, cit.EnergyDeltaPct, cit.With.CITWakes, cit.Without.CITWakes)
	ovl := AblationOverlap(o, prof, cluster.LowLoad)
	fmt.Fprintf(w, "%-22s removing it: p95 %+6.1f%%  energy %+6.1f%%\n",
		ovl.Name, ovl.LatencyDeltaPct, ovl.EnergyDeltaPct)
	ctx := AblationContext(o)
	fmt.Fprintf(w, "%-22s going naive: p95 %+6.1f%%  energy %+6.1f%%  (stepdowns %d -> %d)\n",
		ctx.Name, ctx.LatencyDeltaPct, ctx.EnergyDeltaPct, ctx.With.StepDowns, ctx.Without.StepDowns)
	fmt.Fprintln(w, "fcons sweep:")
	for _, r := range AblationFCONS(o, prof, cluster.LowLoad) {
		fmt.Fprintf(w, "  FCONS=%-3d p95=%9.3f ms  energy=%7.2f J  stepdowns=%d\n",
			r.FCONS, r.Result.Latency.P95.Millis(), r.Result.EnergyJ, r.Result.StepDowns)
	}
	fmt.Fprintln(w)
}
