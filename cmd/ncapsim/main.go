// Command ncapsim runs a single NCAP experiment and prints its result.
//
// Usage:
//
//	ncapsim -policy ncap.cons -workload apache -level medium
//	ncapsim -policy perf -workload memcached -load 90000 -measure 500ms
//	ncapsim -exp fig1          # print the P-state transition table (Fig. 1)
//	ncapsim -json out/report.json -trace-out out/events.jsonl
//	ncapsim -scenario flashcrowd             # generated traffic scenario
//	ncapsim -record-trace out/run.trace      # capture the arrival schedule
//	ncapsim -trace out/run.trace             # replay it, bit-for-bit
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"ncap"
	"ncap/internal/cliflags"
	"ncap/internal/experiments"
	"ncap/internal/power"
	"ncap/internal/report"
	"ncap/internal/runner"
	"ncap/internal/sim"
	"ncap/internal/telemetry"
)

const tool = "ncapsim"

func main() {
	var (
		policyName = flag.String("policy", "ncap.cons", "power policy (perf, ond, perf.idle, ond.idle, ncap.sw, ncap.cons, ncap.aggr)")
		workload   = flag.String("workload", "apache", "workload (apache, memcached)")
		level      = flag.String("level", "low", "paper load level (low, medium, high); ignored when -load is set")
		load       = flag.Float64("load", 0, "explicit aggregate load in requests/second")
		measure    = flag.Duration("measure", 400*time.Millisecond, "simulated measurement window")
		warmup     = flag.Duration("warmup", 100*time.Millisecond, "simulated warmup window")
		seed       = flag.Uint64("seed", 1, "simulation seed")
		exp        = flag.String("exp", "", "print a static experiment instead (fig1)")
		verbose    = flag.Bool("v", false, "print extended counters")
		cacheDir   = flag.String("cache", "", "result cache directory shared with ncapsweep (empty disables)")
		timeout    = flag.Duration("timeout", 10*time.Minute, "wall-clock timeout (0 disables)")
		auditOn    = flag.Bool("audit", false, "run with the runtime invariant auditor; violations are reported and fail the run")
		faults     cliflags.Faults
		resil      cliflags.Resilience
		traffic    cliflags.Traffic
		topo       cliflags.Topology
		out        cliflags.Output
	)
	faults.Register()
	resil.Register()
	traffic.Register()
	topo.Register()
	out.Register(true)
	flag.Parse()
	stopProf := out.StartPprof(tool)
	defer stopProf()

	if *exp == "fig1" {
		experiments.RenderFig1(os.Stdout)
		return
	}
	if *exp != "" {
		cliflags.Fatalf(tool, "unknown -exp %q (want fig1; see ncapsweep for the rest)", *exp)
	}

	prof := cliflags.Workload(tool, *workload)
	policy := cliflags.Policy(tool, *policyName)
	faults.Validate(tool)
	resil.Validate(tool)
	traffic.Validate(tool)
	topo.Validate(tool)
	rps := *load
	if rps == 0 {
		rps = ncap.LoadRPS(prof.Name, cliflags.Level(tool, *level))
	}

	cfg := ncap.DefaultConfig(policy, prof, rps)
	cfg.Measure = sim.Duration(measure.Nanoseconds())
	cfg.Warmup = sim.Duration(warmup.Nanoseconds())
	cfg.Seed = *seed
	faults.Apply(&cfg)
	resil.Apply(&cfg)
	traffic.Apply(tool, &cfg)
	topo.Apply(tool, &cfg)
	if err := cfg.Validate(); err != nil {
		cliflags.Fatalf(tool, "%v", err)
	}

	// The telemetry sink rides on the config; it is pure observation, so
	// the Result (and the text output below) is identical either way.
	var tel *telemetry.Telemetry
	if out.JSON != "" || out.TraceOut != "" {
		tel = telemetry.New(telemetry.Options{})
		cfg.Telemetry = tel
	}

	pool := runner.New(runner.Options{
		Jobs: 1, CacheDir: *cacheDir, Timeout: *timeout,
		Audit: *auditOn,
	})
	cliflags.HandleSignals(tool, pool)
	start := time.Now()
	outc := pool.RunOne(runner.Job{
		Tag:    fmt.Sprintf("%s/%s/%.0frps", cfg.Policy, cfg.Workload.Name, cfg.LoadRPS),
		Config: cfg,
	})
	wall := time.Since(start)
	if outc.Err != nil {
		fmt.Fprintln(os.Stderr, "ncapsim:", outc.Err)
		os.Exit(1)
	}
	res := outc.Result
	if outc.CacheHit {
		fmt.Fprintln(os.Stderr, "ncapsim: result served from cache")
	}

	res.WriteRow(os.Stdout)
	fmt.Printf("latency: p50=%v p90=%v p95=%v p99=%v max=%v (n=%d)\n",
		res.Latency.P50, res.Latency.P90, res.Latency.P95, res.Latency.P99,
		res.Latency.Max, res.Latency.Count)
	fmt.Printf("energy: %.2f J over %v (%.2f W avg)\n", res.EnergyJ, cfg.Measure, res.AvgPowerW)
	if *verbose {
		fmt.Printf("requests: sent=%d completed=%d retransmits=%d abandoned=%d rx-drops=%d\n",
			res.Sent, res.Completed, res.Retransmits, res.Abandoned, res.RxDrops)
		fmt.Printf("c-states: C1=%v(%d) C3=%v(%d) C6=%v(%d)\n",
			res.CResidency[power.C1], res.CEntries[power.C1],
			res.CResidency[power.C3], res.CEntries[power.C3],
			res.CResidency[power.C6], res.CEntries[power.C6])
		fmt.Printf("ncap: boosts=%d stepdowns=%d cit-wakes=%d p-transitions=%d\n",
			res.Boosts, res.StepDowns, res.CITWakes, res.PStateTransitions)
		if res.FaultDrops+res.CorruptDrops+res.FaultDups+res.FaultDelays+
			res.DupSuppressed+res.DupResent > 0 {
			fmt.Printf("faults: wire-drops=%d fcs-drops=%d dup-frames=%d delayed=%d dup-req-suppressed=%d responses-resent=%d\n",
				res.FaultDrops, res.CorruptDrops, res.FaultDups, res.FaultDelays,
				res.DupSuppressed, res.DupResent)
		}
		if res.IntendedSends > 0 {
			fmt.Printf("traffic: trace=%.12s intended=%d lagged=%d lag-max=%v\n",
				res.TraceHash, res.IntendedSends, res.LaggedSends, res.SendLagMax)
		}
		fmt.Printf("simulator: %d events in %v (%.1f Mevents/s)\n",
			res.Events, wall.Round(time.Millisecond), float64(res.Events)/wall.Seconds()/1e6)
	}
	if traffic.RecordTrace != "" {
		if err := traffic.WriteRecorded(res.Recorded); err != nil {
			fmt.Fprintln(os.Stderr, "ncapsim:", err)
			os.Exit(1)
		}
	}

	if out.JSON != "" {
		r := report.New(tool, "single")
		run := report.FromResult(outc.Job.Tag, res)
		run.Violations = outc.Violations
		r.Runs = append(r.Runs, run)
		r.AddTelemetry(tel)
		if err := r.WriteFile(out.JSON); err != nil {
			fmt.Fprintln(os.Stderr, "ncapsim:", err)
			os.Exit(1)
		}
	}
	if out.TraceOut != "" {
		if err := writeTraceJSONL(out.TraceOut, tel.Trace()); err != nil {
			fmt.Fprintln(os.Stderr, "ncapsim:", err)
			os.Exit(1)
		}
	}
	if cliflags.ReportViolations(os.Stderr, []runner.Outcome{outc}) {
		os.Exit(1)
	}
}

func writeTraceJSONL(path string, tr *telemetry.EventTrace) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.WriteJSONL(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
