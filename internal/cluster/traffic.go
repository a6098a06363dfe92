package cluster

import (
	"sort"

	"ncap/internal/app"
	"ncap/internal/sim"
	"ncap/internal/workload"
)

// resolveTraffic materializes the run's replayed schedule, if any: the
// config's explicit trace, or the scenario generated here from the run
// seed (a pure function of the config, preserving the runner's
// determinism contract). Called from New before clients are built.
func (c *Cluster) resolveTraffic() {
	spec := c.cfg.Traffic
	c.accounting = spec.Accounting()
	if !spec.Replay() {
		return
	}
	t := spec.Trace
	if t == nil {
		var err error
		t, err = spec.Scenario.Generate(workload.GenParams{
			LoadRPS:  c.cfg.LoadRPS,
			Clients:  c.cfg.ClientCount(),
			Horizon:  c.cfg.Warmup + c.cfg.Measure,
			Seed:     c.cfg.Seed,
			ReqBytes: c.cfg.Workload.RequestBytes,
			Pace:     c.cfg.Workload.RequestSpacing,
		})
		if err != nil {
			// Config.Validate vets scenario parameters and sizes; reaching
			// here is a construction bug, like any other New panic.
			panic(err)
		}
	}
	c.replayTrace = t
	c.replayHash = spec.TraceHash
	if c.replayHash == "" {
		c.replayHash = t.Hash()
	}
}

// installTraffic arms the replayed schedule or the live capture once the
// clients exist. Called from New after the client loop.
func (c *Cluster) installTraffic() {
	if c.replayTrace != nil {
		c.scheduleReplay()
	}
	if !c.cfg.Traffic.Recording() {
		return
	}
	if c.replayTrace != nil {
		// A replayed run's schedule IS its arrival record; re-capturing
		// live would interleave lagged sends out of schedule order.
		return
	}
	c.capture = workload.NewCapture(c.cfg.ClientCount(), 0)
	for i, cl := range c.Clients {
		cl.CoAccount = true
		cl.OnSend = c.capture.Hook(i)
	}
}

// scheduleReplay turns the trace into pre-scheduled client sends.
// Coordinated omission: each record keeps its scheduled time (latency
// origin) while the actual send is pushed by the trace's per-client
// pacing floor; the slip lands in the client's LagMeter. The stable sort
// keeps same-instant sends in record order, so replaying a captured
// trace reproduces the original engine FIFO order exactly.
func (c *Cluster) scheduleReplay() {
	t := c.replayTrace
	next := make([]sim.Time, len(c.Clients))
	items := make([]app.ReplayItem, len(t.Records))
	for i := range t.Records {
		r := &t.Records[i]
		at := r.T
		if at < next[r.Client] {
			at = next[r.Client]
		}
		next[r.Client] = at + t.MinGap
		items[i] = app.ReplayItem{
			C:     c.Clients[r.Client],
			Sched: r.T, At: at,
			ReqBytes: r.Req, RespHint: r.Resp,
			Bulk: r.Class == workload.ClassBulk,
		}
	}
	sort.SliceStable(items, func(i, j int) bool { return items[i].At < items[j].At })
	for i := range items {
		c.eng.AtArg(items[i].At, app.ReplayFire, &items[i])
	}
}

// RecordedTrace returns the run's captured arrival schedule: the live
// capture in burst mode, the replayed source schedule otherwise. Nil
// unless the config asked for recording.
func (c *Cluster) RecordedTrace() *workload.Trace {
	if !c.cfg.Traffic.Recording() {
		return nil
	}
	if c.replayTrace != nil {
		return c.replayTrace
	}
	return c.capture.Trace()
}
