// Package experiments defines the paper's evaluation artifacts — every
// figure and headline claim — as runnable experiments over the cluster
// substrate. The benchmark harness (bench_test.go) and the command-line
// tools (cmd/ncapsweep, cmd/ncaptrace) share these definitions, so the
// tables they print come from one implementation.
//
// The experiment IDs (E1–E10) are indexed in DESIGN.md §3.
package experiments

import (
	"fmt"
	"io"
	"os"

	"ncap/internal/app"
	"ncap/internal/cluster"
	"ncap/internal/power"
	"ncap/internal/resilience"
	"ncap/internal/runner"
	"ncap/internal/sim"
	"ncap/internal/topology"
)

// Options tunes experiment fidelity. Quick() keeps benches fast; Full()
// matches the committed EXPERIMENTS.md numbers.
type Options struct {
	Warmup  sim.Duration
	Measure sim.Duration
	Drain   sim.Duration
	Seed    uint64

	// Overload, when non-nil, applies the resilience spec to every
	// configuration in the sweep (ncapsweep's -deadline/-admit/... flags).
	// Experiments that sweep resilience themselves (E13) override it per
	// cell.
	Overload *resilience.Spec

	// Topology, when non-nil, applies the cluster shape to every
	// configuration in the sweep (ncapsweep's -topology/-racks flags).
	// Experiments that sweep topologies themselves (E14) override it per
	// cell. LoadRPS values stay aggregate, so paper load levels spread
	// across the fleet rather than multiplying with it.
	Topology *topology.Spec

	// Runner executes every simulation batch through a shared worker pool
	// (parallelism, caching, isolation). A nil Runner runs each batch
	// through a fresh one-worker, uncached pool — same results, one at a
	// time. Either way rows aggregate in submission order, so tables are
	// byte-identical at any worker count.
	Runner *runner.Pool
}

// Quick returns short windows for smoke/bench runs.
func Quick() Options {
	return Options{
		Warmup:  50 * sim.Millisecond,
		Measure: 150 * sim.Millisecond,
		Drain:   50 * sim.Millisecond,
		Seed:    1,
	}
}

// Full returns the windows used for the recorded results.
func Full() Options {
	return Options{
		Warmup:  100 * sim.Millisecond,
		Measure: 500 * sim.Millisecond,
		Drain:   100 * sim.Millisecond,
		Seed:    1,
	}
}

func (o Options) apply(cfg cluster.Config) cluster.Config {
	cfg.Warmup = o.Warmup
	cfg.Measure = o.Measure
	cfg.Drain = o.Drain
	cfg.Seed = o.Seed
	if o.Overload != nil {
		cfg.Overload = o.Overload
	}
	if o.Topology != nil {
		cfg.Topology = o.Topology
	}
	return cfg
}

// configFor resolves one experiment's complete cluster configuration.
func configFor(o Options, policy cluster.Policy, prof app.Profile, load float64,
	mutate func(*cluster.Config)) cluster.Config {
	cfg := o.apply(cluster.DefaultConfig(policy, prof, load))
	if mutate != nil {
		mutate(&cfg)
	}
	return cfg
}

// runBatch executes a slice of experiment configurations — through the
// attached runner pool when one is set, serially otherwise — and returns
// results in input order. A failed job (panic or timeout) is reported to
// stderr and yields a zero Result so the rest of the sweep still
// completes; callers needing the per-job error use runBatchOutcomes.
func runBatch(o Options, exp string, cfgs []cluster.Config) []cluster.Result {
	out := make([]cluster.Result, len(cfgs))
	for i, oc := range runBatchOutcomes(o, exp, cfgs) {
		if oc.Err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v (zero result substituted)\n", oc.Err)
			continue
		}
		out[i] = oc.Result
	}
	return out
}

// run builds and runs one experiment.
func run(o Options, policy cluster.Policy, prof app.Profile, load float64,
	mutate func(*cluster.Config)) cluster.Result {
	return runBatch(o, "single", []cluster.Config{configFor(o, policy, prof, load, mutate)})[0]
}

// ---------------------------------------------------------------------------
// E1 — Fig. 1: V/F transition sequence and penalty.

// Fig1Row describes one P-state transition's timing decomposition.
type Fig1Row struct {
	From, To  power.PState
	Direction string // "up" or "down"
	RampUs    float64
	HaltUs    float64
	EffectUs  float64 // delay until the new frequency takes effect
}

// Fig1 reproduces the Fig. 1 timing analytically from the Table 1
// parameters: raising V/F ramps the voltage (6.25 mV/µs) before the 5 µs
// PLL-relock halt; lowering halts immediately.
func Fig1() []Fig1Row {
	tab := power.DefaultTable()
	pairs := []struct{ from, to int }{
		{14, 0}, // deepest → P0: the full 0.65→1.2 V swing
		{7, 0},
		{0, 14}, // P0 → deepest
		{0, 7},
	}
	rows := make([]Fig1Row, 0, len(pairs))
	for _, p := range pairs {
		from, to := tab.ByIndex(p.from), tab.ByIndex(p.to)
		row := Fig1Row{From: from, To: to}
		if to.MilliVolts > from.MilliVolts {
			ramp, halt := power.UpTransitionDelay(from, to)
			row.Direction = "up"
			row.RampUs = ramp.Micros()
			row.HaltUs = halt.Micros()
			row.EffectUs = (ramp + halt).Micros()
		} else {
			halt := power.DownTransitionDelay()
			row.Direction = "down"
			row.HaltUs = halt.Micros()
			row.EffectUs = halt.Micros()
		}
		rows = append(rows, row)
	}
	return rows
}

// ---------------------------------------------------------------------------
// E2 — Fig. 2: Apache 95th-percentile latency vs ondemand invocation
// period at three load levels.

// Fig2Row is one (period, load) measurement.
type Fig2Row struct {
	Period sim.Duration
	Level  cluster.LoadLevel
	P95    sim.Duration
}

// Fig2Periods are the governor invocation periods swept (the kernel's
// hard-coded minimum is 10 ms; the paper recompiled it down to 1 ms).
func Fig2Periods() []sim.Duration {
	return []sim.Duration{
		1 * sim.Millisecond, 2 * sim.Millisecond,
		5 * sim.Millisecond, 10 * sim.Millisecond,
	}
}

// Fig2 sweeps the ondemand period for Apache under the ond policy. All
// (period, load) cells run as one batch.
func Fig2(o Options) []Fig2Row {
	prof := app.ApacheProfile()
	var rows []Fig2Row
	var cfgs []cluster.Config
	for _, period := range Fig2Periods() {
		for _, lvl := range []cluster.LoadLevel{cluster.LowLoad, cluster.MediumLoad, cluster.HighLoad} {
			p := period
			cfgs = append(cfgs, configFor(o, cluster.Ond, prof, cluster.LoadRPS(prof.Name, lvl),
				func(c *cluster.Config) { c.OndemandPeriod = p }))
			rows = append(rows, Fig2Row{Period: period, Level: lvl})
		}
	}
	for i, res := range runBatch(o, "fig2", cfgs) {
		rows[i].P95 = res.Latency.P95
	}
	return rows
}

// ---------------------------------------------------------------------------
// E3 — Fig. 4 and E6 — Fig. 8/9 right: time-series traces.

// TraceResult bundles a traced run.
type TraceResult struct {
	Policy cluster.Policy
	Result cluster.Result
}

// Trace runs one policy at the given load with time-series sampling at
// interval and returns the result (Result.Trace holds the series).
// Extra mutators (a fault spec, say) apply after the interval is set.
// Trace-sampling runs bypass the result cache (see runner.Job.Cacheable).
func Trace(o Options, policy cluster.Policy, prof app.Profile, load float64, interval sim.Duration, mutate ...func(*cluster.Config)) TraceResult {
	res := run(o, policy, prof, load, func(c *cluster.Config) {
		c.TraceInterval = interval
		for _, m := range mutate {
			m(c)
		}
	})
	return TraceResult{Policy: policy, Result: res}
}

// Fig4 reproduces the correlation trace: Apache under ond.idle with
// BW(Rx), BW(Tx), U, F and T(Cx) sampled every 500 µs.
func Fig4(o Options) TraceResult {
	return Trace(o, cluster.OndIdle, app.ApacheProfile(),
		cluster.LoadRPS("apache", cluster.LowLoad), 500*sim.Microsecond)
}

// Snapshots reproduces the Fig. 8/9 right panels: BW(Rx)-vs-F traces for
// ond.idle and ncap.cons over the same workload and load, run as one
// two-job batch.
func Snapshots(o Options, prof app.Profile, lvl cluster.LoadLevel, mutate ...func(*cluster.Config)) (ondIdle, ncapCons TraceResult) {
	load := cluster.LoadRPS(prof.Name, lvl)
	trace := func(c *cluster.Config) {
		c.TraceInterval = 500 * sim.Microsecond
		for _, m := range mutate {
			m(c)
		}
	}
	results := runBatch(o, "snapshot", []cluster.Config{
		configFor(o, cluster.OndIdle, prof, load, trace),
		configFor(o, cluster.NcapCons, prof, load, trace),
	})
	ondIdle = TraceResult{Policy: cluster.OndIdle, Result: results[0]}
	ncapCons = TraceResult{Policy: cluster.NcapCons, Result: results[1]}
	return ondIdle, ncapCons
}

// ---------------------------------------------------------------------------
// E4 — Fig. 7 left: latency versus load, inflexion point, SLA.

// CurvePoint is one latency-load sample.
type CurvePoint struct {
	LoadRPS float64
	P95     sim.Duration
}

// LoadGrid returns the load sweep for a workload's latency-load curve:
// from 20% of the paper's high load into saturation (115%), denser near
// the knee so the inflexion is well resolved.
func LoadGrid(workload string) []float64 {
	high := cluster.LoadRPS(workload, cluster.HighLoad)
	fracs := []float64{0.2, 0.35, 0.5, 0.65, 0.8, 0.9, 0.95, 1.0, 1.05, 1.1, 1.15}
	out := make([]float64, len(fracs))
	for i, f := range fracs {
		out[i] = high * f
	}
	return out
}

// LatencyVsLoad measures the latency-load curve under the perf policy —
// the paper's protocol for locating the SLA (Sec. 6). The whole grid runs
// as one batch.
func LatencyVsLoad(o Options, prof app.Profile) []CurvePoint {
	grid := LoadGrid(prof.Name)
	cfgs := make([]cluster.Config, len(grid))
	for i, load := range grid {
		cfgs[i] = configFor(o, cluster.Perf, prof, load, nil)
	}
	pts := make([]CurvePoint, len(grid))
	for i, res := range runBatch(o, "lvl", cfgs) {
		pts[i] = CurvePoint{LoadRPS: grid[i], P95: res.Latency.P95}
	}
	return pts
}

// FindSLA locates the curve's inflexion point (the knee: the point with
// maximum distance from the chord joining the curve's ends) and returns
// the 95th-percentile latency there, per the paper's SLA protocol.
func FindSLA(pts []CurvePoint) (sla sim.Duration, kneeLoad float64) {
	if len(pts) == 0 {
		return 0, 0
	}
	if len(pts) < 3 {
		return pts[len(pts)-1].P95, pts[len(pts)-1].LoadRPS
	}
	x0, y0 := pts[0].LoadRPS, float64(pts[0].P95)
	x1, y1 := pts[len(pts)-1].LoadRPS, float64(pts[len(pts)-1].P95)
	if x1 == x0 || y1 == y0 {
		return pts[len(pts)-1].P95, pts[len(pts)-1].LoadRPS
	}
	best, bestDist := pts[len(pts)-1], -1.0
	for _, p := range pts[1 : len(pts)-1] {
		// Both axes normalized to [0,1]; a hockey-stick curve sags below
		// the chord, and the knee is the point sagging furthest.
		px := (p.LoadRPS - x0) / (x1 - x0)
		py := (float64(p.P95) - y0) / (y1 - y0)
		if d := px - py; d > bestDist {
			bestDist = d
			best = p
		}
	}
	return best.P95, best.LoadRPS
}

// MeasuredSLA applies the paper's SLA protocol: "take a baseline server
// that always operates its processor cores at the highest performance
// state, and measure its 95th-percentile response time at a high-load
// level" (intro), cross-checked against the latency-load curve's
// inflexion value (Sec. 6). The looser of the two anchors becomes the
// SLA; the curve is returned for reporting.
func MeasuredSLA(o Options, prof app.Profile) (sim.Duration, []CurvePoint) {
	// Curve grid and high-load baseline submit as one batch; the result
	// cache additionally dedups the baseline against the grid's 1.0 point.
	grid := LoadGrid(prof.Name)
	cfgs := make([]cluster.Config, 0, len(grid)+1)
	for _, load := range grid {
		cfgs = append(cfgs, configFor(o, cluster.Perf, prof, load, nil))
	}
	cfgs = append(cfgs, configFor(o, cluster.Perf, prof, cluster.LoadRPS(prof.Name, cluster.HighLoad), nil))
	results := runBatch(o, "sla", cfgs)

	pts := make([]CurvePoint, len(grid))
	for i := range grid {
		pts[i] = CurvePoint{LoadRPS: grid[i], P95: results[i].Latency.P95}
	}
	knee, _ := FindSLA(pts)
	sla := results[len(grid)].Latency.P95
	if knee > sla {
		sla = knee
	}
	return sla, pts
}

// ---------------------------------------------------------------------------
// E5/E7 — Fig. 8/9 left+middle: the seven-policy comparison.

// PolicyRow is one policy × load measurement, normalized per the paper:
// latency percentiles to the SLA, energy to the perf baseline.
type PolicyRow struct {
	Policy   cluster.Policy
	Level    cluster.LoadLevel
	Latency  [4]sim.Duration // p50, p90, p95, p99
	EnergyJ  float64
	NormP95  float64 // P95 / SLA
	NormE    float64 // energy / perf's energy at the same load
	MeetsSLA bool
}

// Comparison runs all seven policies at the given load levels and
// normalizes against the perf baseline and the given SLA.
func Comparison(o Options, prof app.Profile, sla sim.Duration, levels ...cluster.LoadLevel) []PolicyRow {
	if len(levels) == 0 {
		levels = []cluster.LoadLevel{cluster.LowLoad, cluster.MediumLoad, cluster.HighLoad}
	}
	// All policy × level cells submit as one batch; rows assemble in the
	// paper's presentation order from the order-preserving results.
	pols := cluster.AllPolicies()
	var cfgs []cluster.Config
	for _, lvl := range levels {
		load := cluster.LoadRPS(prof.Name, lvl)
		for _, pol := range pols {
			cfgs = append(cfgs, configFor(o, pol, prof, load, nil))
		}
	}
	results := runBatch(o, "policies", cfgs)

	var rows []PolicyRow
	for li, lvl := range levels {
		var perfEnergy float64
		for pi, pol := range pols {
			res := results[li*len(pols)+pi]
			if pol == cluster.Perf {
				perfEnergy = res.EnergyJ
			}
			row := PolicyRow{
				Policy:  pol,
				Level:   lvl,
				Latency: [4]sim.Duration{res.Latency.P50, res.Latency.P90, res.Latency.P95, res.Latency.P99},
				EnergyJ: res.EnergyJ,
			}
			if sla > 0 {
				row.NormP95 = float64(res.Latency.P95) / float64(sla)
				row.MeetsSLA = res.Latency.P95 <= sla
			}
			if perfEnergy > 0 {
				row.NormE = res.EnergyJ / perfEnergy
			}
			rows = append(rows, row)
		}
	}
	return rows
}

// WriteComparison prints rows as the paper-style table.
func WriteComparison(w io.Writer, workload string, rows []PolicyRow) {
	fmt.Fprintf(w, "# %s: policy comparison (NormE = energy / perf; NormP95 = p95 / SLA)\n", workload)
	fmt.Fprintf(w, "%-10s %-7s %9s %9s %9s %9s %9s %7s %7s %5s\n",
		"policy", "load", "p50(ms)", "p90(ms)", "p95(ms)", "p99(ms)", "energy(J)", "normE", "normP95", "SLA")
	for _, r := range rows {
		slaMark := "ok"
		if !r.MeetsSLA {
			slaMark = "VIOL"
		}
		fmt.Fprintf(w, "%-10s %-7s %9.3f %9.3f %9.3f %9.3f %9.2f %7.2f %7.2f %5s\n",
			r.Policy, r.Level, r.Latency[0].Millis(), r.Latency[1].Millis(),
			r.Latency[2].Millis(), r.Latency[3].Millis(), r.EnergyJ, r.NormE, r.NormP95, slaMark)
	}
}
