package experiments

import (
	"ncap/internal/app"
	"ncap/internal/cluster"
	"ncap/internal/netsim"
	"ncap/internal/sim"
	"ncap/internal/stats"
)

// Methodology experiments back the paper's Sec. 5 measurement arguments.

// OpenVsClosedRow summarizes one client methodology's view of the same
// server configuration.
type OpenVsClosedRow struct {
	Method    string
	P95, P99  sim.Duration
	Completed int64
}

// OpenVsClosedLoop measures the same ond.idle Memcached server with the
// paper's open-loop burst clients and with closed-loop clients at matched
// average load. The closed loop self-throttles during slow episodes
// (client-side queueing bias, Sec. 5 citing Treadmill), reporting a
// flattering tail; the open loop exposes it.
func OpenVsClosedLoop(o Options) []OpenVsClosedRow {
	prof := app.MemcachedProfile()
	load := cluster.LoadRPS(prof.Name, cluster.LowLoad)

	open := run(o, cluster.OndIdle, prof, load, nil)
	rows := []OpenVsClosedRow{{
		Method:    "open-loop",
		P95:       open.Latency.P95,
		P99:       open.Latency.P99,
		Completed: open.Completed,
	}}

	closed := runClosedLoop(o, prof, load)
	rows = append(rows, closed)
	return rows
}

// runClosedLoop assembles the same server node but drives it with
// closed-loop clients whose window/think time target the same average
// load as the open-loop setup.
func runClosedLoop(o Options, prof app.Profile, loadRPS float64) OpenVsClosedRow {
	cfg := o.apply(cluster.DefaultConfig(cluster.OndIdle, prof, loadRPS))
	cl := cluster.New(cfg)
	eng := cl.Engine()

	// Detach the open-loop clients (they were constructed but not
	// started) and attach closed-loop clients with the same aggregate
	// target: window w per client, think = clients*w/load.
	const window = 8
	think := sim.Duration(float64(cfg.Clients) * window / loadRPS * float64(sim.Second))
	var clients []*app.ClosedLoopClient
	for i := 0; i < cfg.Clients; i++ {
		addr := netsim.Addr(100 + i)
		c := app.NewClosedLoopClient(eng, addr, cluster.ServerAddr,
			netsim.NewLink(eng, cfg.Link, cl.Switch()), prof.RequestPayload(),
			window, think, sim.NewRand(cfg.Seed, "closed"+string(rune('0'+i))))
		c.PacketList = cl.Packets()
		cl.Switch().Attach(addr, cfg.Link, c)
		clients = append(clients, c)
		c.Start()
	}
	server := cl.Nodes()[0]
	if server.Ond != nil {
		server.Ond.Start()
	}

	eng.Run(cfg.Warmup)
	server.Chip.ResetStats()
	for _, c := range clients {
		c.BeginMeasurement()
	}
	eng.Run(cfg.Warmup + cfg.Measure)
	for _, c := range clients {
		c.Stop()
	}
	eng.Run(cfg.Warmup + cfg.Measure + cfg.Drain)
	cl.Packets().Flush()

	recs := make([]*stats.LatencyRecorder, len(clients))
	var completed int64
	for i, c := range clients {
		recs[i] = c.Latency()
		completed += c.Completed.Value()
	}
	var merged stats.LatencyRecorder
	merged.MergeFrom(recs...)
	return OpenVsClosedRow{
		Method:    "closed-loop",
		P95:       merged.Percentile(95),
		P99:       merged.Percentile(99),
		Completed: completed,
	}
}

// ModerationRow is one interrupt-moderation setting's outcome.
type ModerationRow struct {
	PITT, AITT sim.Duration
	P95        sim.Duration
	IRQs       int64
}

// ModerationSweep varies the NIC's interrupt throttling timers under the
// perf policy, reproducing the moderation trade-off the paper cites
// (Sec. 2.2 [20]): less moderation cuts delivery latency but multiplies
// interrupts; more moderation does the reverse.
func ModerationSweep(o Options, prof app.Profile) []ModerationRow {
	load := cluster.LoadRPS(prof.Name, cluster.LowLoad)
	settings := []struct{ pitt, aitt sim.Duration }{
		{5 * sim.Microsecond, 20 * sim.Microsecond},
		{30 * sim.Microsecond, 100 * sim.Microsecond}, // default
		{100 * sim.Microsecond, 300 * sim.Microsecond},
	}
	cfgs := make([]cluster.Config, len(settings))
	for i, s := range settings {
		s := s
		cfgs[i] = configFor(o, cluster.Perf, prof, load, func(c *cluster.Config) {
			c.NIC.PITT = s.pitt
			c.NIC.AITT = s.aitt
		})
	}
	rows := make([]ModerationRow, len(settings))
	for i, res := range runBatch(o, "moderation", cfgs) {
		rows[i] = ModerationRow{PITT: settings[i].pitt, AITT: settings[i].aitt,
			P95: res.Latency.P95, IRQs: res.IRQs}
	}
	return rows
}
