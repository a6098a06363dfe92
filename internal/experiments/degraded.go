// E11 — "NCAP under degraded network": the seven-policy comparison on an
// imperfect fabric. The paper evaluates NCAP on a lossless network; E11
// asks whether its aggressive sleep decisions degrade gracefully when
// retransmissions and link flaps perturb the inter-arrival pattern the
// DecisionEngine keys off. The degradation is fixed across the grid —
// one flapping client downlink and one slow client node — while the
// server access link sweeps Bernoulli loss rates of 0, 0.1% and 1%.
package experiments

import (
	"fmt"

	"ncap/internal/app"
	"ncap/internal/cluster"
	"ncap/internal/fault"
	"ncap/internal/runner"
	"ncap/internal/sim"
)

// E11LossRates returns the swept server-link loss probabilities.
func E11LossRates() []float64 { return []float64{0, 0.001, 0.01} }

// E11 degradation parameters: the flapped client's downlink goes dark
// for flapDown every flapPeriod (a link renegotiating at a steady beat),
// and the slow node adds a constant per-frame delay in both directions.
const (
	e11FlapFirst  = 10 * sim.Millisecond
	e11FlapPeriod = 40 * sim.Millisecond
	e11FlapDown   = 5 * sim.Millisecond
	e11SlowDelay  = 200 * sim.Microsecond
)

// DegradedSpec builds E11's fault spec: Bernoulli loss at lossP on the
// server access link (both directions), a periodically flapping downlink
// to client 1, and client 2 as the slow node. horizon bounds the flap
// schedule (warmup + measure + drain); the windows are part of the spec,
// so runs with different windows never share a cache entry.
func DegradedSpec(lossP float64, horizon sim.Duration) fault.Spec {
	var flaps []fault.Window
	for t := e11FlapFirst; t < horizon; t += e11FlapPeriod {
		flaps = append(flaps, fault.Window{Start: t, End: t + e11FlapDown})
	}
	spec := fault.Spec{Links: []fault.LinkFault{
		{Node: uint32(cluster.ClientAddr(2)), Dir: fault.Both, Model: fault.Model{ExtraDelay: e11SlowDelay}},
		{Node: uint32(cluster.ClientAddr(1)), Dir: fault.ToNode, Model: fault.Model{Flaps: flaps}},
	}}
	if lossP > 0 {
		spec.Links = append(spec.Links, fault.LinkFault{
			Node: uint32(cluster.ServerAddr), Dir: fault.Both, Model: fault.Model{P: lossP},
		})
	}
	return spec
}

// DegradedRow is one policy × loss-rate cell. Err is non-empty when the
// job failed (panic or timeout): the row still appears — a
// degraded-network sweep must itself tolerate faults — and the caller
// decides how loudly to report it.
type DegradedRow struct {
	Policy  cluster.Policy
	LossPct float64 // server-link loss, percent
	Result  cluster.Result
	Err     string
}

// DegradedNetwork runs E11 for one workload at the given load level:
// every policy × every loss rate, one batch, deterministic row order.
func DegradedNetwork(o Options, prof app.Profile, lvl cluster.LoadLevel) []DegradedRow {
	load := cluster.LoadRPS(prof.Name, lvl)
	horizon := o.Warmup + o.Measure + o.Drain
	pols := cluster.AllPolicies()
	var cfgs []cluster.Config
	var rows []DegradedRow
	for _, lossP := range E11LossRates() {
		spec := DegradedSpec(lossP, horizon)
		for _, pol := range pols {
			cfgs = append(cfgs, configFor(o, pol, prof, load,
				func(c *cluster.Config) { c.Fault = spec }))
			rows = append(rows, DegradedRow{Policy: pol, LossPct: lossP * 100})
		}
	}
	for i, oc := range runBatchOutcomes(o, "e11", cfgs) {
		rows[i].Result = oc.Result
		if oc.Err != nil {
			rows[i].Err = oc.Err.Error()
		}
	}
	return rows
}

// runBatchOutcomes executes a batch like runBatch but surfaces each
// job's error instead of flattening it away, so callers can render
// per-job failure rows: one pathological configuration must not abort
// the rest of the sweep. A nil o.Runner runs the batch through a
// one-worker pool, which isolates failures the same way.
func runBatchOutcomes(o Options, exp string, cfgs []cluster.Config) []runner.Outcome {
	jobs := make([]runner.Job, len(cfgs))
	for i, cfg := range cfgs {
		jobs[i] = runner.Job{
			Tag:    fmt.Sprintf("%s/%s/%s/%.0frps", exp, cfg.Workload.Name, cfg.Policy, cfg.LoadRPS),
			Config: cfg,
		}
	}
	pool := o.Runner
	if pool == nil {
		pool = runner.New(runner.Options{Jobs: 1})
	}
	return pool.Run(jobs)
}
