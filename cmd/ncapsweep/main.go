// Command ncapsweep regenerates the paper's evaluation tables: the
// latency-versus-load curves and SLA (Fig. 7), the seven-policy
// comparisons (Figs. 8 and 9), the ondemand-period sweep (Fig. 2), the
// headline energy-saving claims, and the design-choice ablations.
//
// Usage:
//
//	ncapsweep -exp lvl       -workload apache     # latency vs load + SLA
//	ncapsweep -exp policies  -workload memcached  # Fig. 8/9-style table
//	ncapsweep -exp fig2                           # ondemand period sweep
//	ncapsweep -exp headline                       # abstract's claims
//	ncapsweep -exp ablations -workload apache     # design-choice ablations
//	ncapsweep -exp e11       -workload apache     # policies on a degraded fabric
//	ncapsweep -exp e12       -workload apache     # policies under traffic scenarios
//	ncapsweep -exp all                            # everything
//	ncapsweep -exp headline -json out/report.json # machine-readable results
//
// -full switches from quick windows to the EXPERIMENTS.md measurement
// windows (slower but matches the recorded numbers).
//
// Independent simulations run concurrently across -jobs workers (default:
// GOMAXPROCS). Tables aggregate in deterministic order, so stdout is
// byte-identical at any -jobs value; progress goes to stderr. -cache
// memoizes results by config content under a directory, one durable
// (fsynced) file per completed job, so a repeated sweep (same code, same
// seed, same windows) completes from cache.
//
// -json writes a schema-stamped report with every run in submission
// order; because runs are recorded in that order regardless of worker
// interleaving, the report is byte-identical at any -jobs value too.
//
// -audit arms the runtime invariant auditor (packet conservation, pool
// ownership, residency/energy accounting, queue structure, livelock);
// violations print to stderr, land in the -json report, and force a
// non-zero exit. SIGINT/SIGTERM drain gracefully (finish in-flight jobs,
// write a partial report marked interrupted, exit 130). To resume an
// interrupted sweep, rerun the same command with the same -cache: jobs
// that completed before the interruption replay from the cache, the rest
// run, and the report is byte-identical to an uninterrupted one.
//
// Family dispatch lives in experiments.Render — the same registry ncapd
// serves sweeps from, so the daemon and the CLI print identical tables.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"ncap/internal/cliflags"
	"ncap/internal/experiments"
	"ncap/internal/report"
	"ncap/internal/runner"
)

const tool = "ncapsweep"

func main() {
	var (
		exp      = flag.String("exp", "all", "experiment: "+experiments.FamilyNames())
		workload = flag.String("workload", "", "restrict to one workload (apache, memcached)")
		full     = flag.Bool("full", false, "use the full measurement windows")
		seed     = flag.Uint64("seed", 1, "simulation seed")
		rn       cliflags.Runner
		res      cliflags.Resilience
		topo     cliflags.Topology
		out      cliflags.Output
	)
	rn.Register(runtime.GOMAXPROCS(0))
	res.Register()
	topo.Register()
	out.Register(false)
	flag.Parse()
	rn.Validate(tool)
	res.Validate(tool)
	topo.Validate(tool)
	stopProf := out.StartPprof(tool)
	defer stopProf()

	o := experiments.Quick()
	if *full {
		o = experiments.Full()
	}
	o.Seed = *seed
	o.Overload = res.Spec()
	o.Topology = topo.Spec(tool)

	// -audit forces outcome recording even without -json: the violation
	// summary below needs every outcome, not just the batch counters.
	popts := rn.Options(out.JSON != "" || rn.Audit)
	pool := runner.New(popts)
	o.Runner = pool
	cliflags.HandleSignals(tool, pool)
	start := time.Now()

	profiles := cliflags.Workloads(tool, *workload)

	if err := experiments.Render(os.Stdout, *exp, o, profiles); err != nil {
		cliflags.Fatalf(tool, "%v", err)
	}

	if out.JSON != "" {
		r := report.New(tool, *exp)
		r.AddOutcomes(pool.Outcomes())
		if err := r.WriteFile(out.JSON); err != nil {
			fmt.Fprintln(os.Stderr, "ncapsweep:", err)
			os.Exit(1)
		}
	}

	if !rn.Quiet {
		st := pool.Stats()
		fmt.Fprintf(os.Stderr, "ncapsweep: %d simulations (%d executed, %d cached, %d failed) on %d workers in %v\n",
			st.Jobs, st.Ran, st.CacheHits, st.Failures, pool.Workers(),
			time.Since(start).Round(time.Millisecond))
	}
	violated := rn.Audit && cliflags.ReportViolations(os.Stderr, pool.Outcomes())
	if pool.Stopped() {
		// Partial results (and the interrupted-flagged report) are already
		// written; exit with the conventional SIGINT status.
		os.Exit(cliflags.InterruptExitCode)
	}
	if pool.Stats().Failures > 0 || violated {
		os.Exit(1)
	}
}
