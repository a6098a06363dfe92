// Command ncaptrace produces the paper's time-series figures as CSV: the
// Fig. 4 correlation trace (BW(Rx), BW(Tx), U, F, T(Cx)) and the Fig. 8/9
// BW(Rx)-versus-F snapshots with INT(wake) markers.
//
// Usage:
//
//	ncaptrace -policy ond.idle  -workload apache -level low > fig4.csv
//	ncaptrace -policy ncap.cons -workload apache -level low > snapshot.csv
//	ncaptrace -snapshot -workload memcached -level low -out mem  # both policies
//	ncaptrace -policy ncap.cons -json fig4.json > fig4.csv       # series as JSON
//	ncaptrace -snapshot -scenario flashcrowd -out fc  # snapshots under a scenario
//	ncaptrace -snapshot -loss 0.01 -out lossy         # snapshots on a lossy server link
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"ncap"
	"ncap/internal/cliflags"
	"ncap/internal/cluster"
	"ncap/internal/experiments"
	"ncap/internal/report"
	"ncap/internal/runner"
	"ncap/internal/sim"
	wl "ncap/internal/workload"
)

const tool = "ncaptrace"

func main() {
	var (
		policyName = flag.String("policy", "ond.idle", "power policy to trace")
		workload   = flag.String("workload", "apache", "workload (apache, memcached)")
		level      = flag.String("level", "low", "load level (low, medium, high)")
		interval   = flag.Duration("interval", 500*time.Microsecond, "sampling interval")
		measure    = flag.Duration("measure", 200*time.Millisecond, "traced window (the paper plots 200 ms)")
		snapshot   = flag.Bool("snapshot", false, "emit the ond.idle + ncap.cons snapshot pair")
		scenario   = flag.String("scenario", "", "drive the traced run with a generated traffic scenario ("+wl.ScenarioUsage()+")")
		out        = flag.String("out", "", "output file prefix (default: stdout)")
		seed       = flag.Uint64("seed", 1, "simulation seed")
		jobsN      = flag.Int("jobs", 2, "concurrent simulations (the -snapshot pair parallelizes)")
		lossP      = flag.Float64("loss", 0, "Bernoulli frame-loss probability on the server access link — trace NCAP's behavior on a lossy fabric")
		auditOn    = flag.Bool("audit", false, "run with the runtime invariant auditor; violations are reported and fail the run")
		res        cliflags.Resilience
		topo       cliflags.Topology
		output     cliflags.Output
	)
	res.Register()
	topo.Register()
	output.Register(false)
	flag.Parse()
	stopProf := output.StartPprof(tool)
	defer stopProf()
	if *lossP < 0 || *lossP > 1 {
		cliflags.Fatalf(tool, "-loss %v: must be a probability in [0,1]", *lossP)
	}
	res.Validate(tool)
	topo.Validate(tool)

	prof := cliflags.Workload(tool, *workload)
	lvl := cliflags.Level(tool, *level)
	o := experiments.Quick()
	o.Measure = sim.Duration(measure.Nanoseconds())
	o.Seed = *seed
	// The snapshot pair holds two independent simulations; a two-worker
	// pool runs them concurrently (trace runs always execute — the result
	// cache never serves them).
	pool := runner.New(runner.Options{Jobs: *jobsN, Audit: *auditOn, Record: *auditOn})
	o.Runner = pool
	cliflags.HandleSignals(tool, pool)
	// finish applies the audit and interruption exit contract shared with
	// ncapsweep: violations → 1, graceful SIGINT/SIGTERM drain → 130.
	finish := func() {
		violated := *auditOn && cliflags.ReportViolations(os.Stderr, pool.Outcomes())
		if pool.Stopped() {
			os.Exit(cliflags.InterruptExitCode)
		}
		if violated {
			os.Exit(1)
		}
	}

	// -scenario swaps the built-in burst clients for a generated schedule
	// (see internal/workload); the sampler then traces NCAP's response to
	// a load shape that actually shifts.
	var mutate []func(*cluster.Config)
	if res.Any() {
		mutate = append(mutate, func(c *cluster.Config) { res.Apply(c) })
	}
	if topo.Any() {
		// The sampler traces node 0, the fleet's first server.
		mutate = append(mutate, func(c *cluster.Config) { topo.Apply(tool, c) })
	}
	if *scenario != "" {
		sc, err := wl.ParseScenario(*scenario)
		if err != nil {
			cliflags.Fatalf(tool, "%v", err)
		}
		spec := &wl.Spec{Scenario: sc}
		mutate = append(mutate, func(c *cluster.Config) { c.Traffic = spec })
	}
	// -loss applies to the snapshot pair and the single-policy trace alike.
	loss := cliflags.Faults{Loss: *lossP}
	if loss.Any() {
		mutate = append(mutate, loss.Apply)
	}

	rep := report.New(tool, "trace")

	if *snapshot {
		ond, ncp := experiments.Snapshots(o, prof, lvl, mutate...)
		writeTrace(ond, fileOrStdout(*out, "ond.idle"))
		writeTrace(ncp, fileOrStdout(*out, "ncap.cons"))
		addTrace(rep, ond)
		addTrace(rep, ncp)
		writeReport(rep, output.JSON)
		finish()
		return
	}

	policy, err := ncap.ParsePolicy(*policyName)
	if err != nil {
		cliflags.Fatalf(tool, "%v", err)
	}
	tr := experiments.Trace(o, policy, prof, cluster.LoadRPS(prof.Name, lvl),
		sim.Duration(interval.Nanoseconds()), mutate...)
	writeTrace(tr, fileOrStdout(*out, string(policy)))
	addTrace(rep, tr)
	writeReport(rep, output.JSON)
	finish()
}

// addTrace appends one traced run and its sampled series, prefixing each
// series name with the policy so a snapshot pair's signals stay distinct.
func addTrace(rep *report.Report, tr experiments.TraceResult) {
	rep.Runs = append(rep.Runs, report.FromResult(string(tr.Policy), tr.Result))
	for _, ts := range tr.Result.Trace.Series() {
		s := report.FromTimeSeries(ts)
		s.Name = string(tr.Policy) + "." + s.Name
		rep.Series = append(rep.Series, s)
	}
}

func writeReport(rep *report.Report, path string) {
	if path == "" {
		return
	}
	if err := rep.WriteFile(path); err != nil {
		fatal(err)
	}
}

func writeTrace(tr experiments.TraceResult, w *os.File) {
	defer func() {
		if w != os.Stdout {
			w.Close()
		}
	}()
	if err := tr.Result.Trace.WriteCSV(w); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "ncaptrace: %s: %d samples, p95=%v, energy=%.2fJ\n",
		tr.Policy, len(tr.Result.Trace.Freq.Points), tr.Result.Latency.P95, tr.Result.EnergyJ)
}

func fileOrStdout(prefix, name string) *os.File {
	if prefix == "" {
		return os.Stdout
	}
	path := fmt.Sprintf("%s_%s.csv", prefix, name)
	f, err := os.Create(path)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintln(os.Stderr, "ncaptrace: writing", path)
	return f
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ncaptrace:", err)
	os.Exit(1)
}
