package cluster

import (
	"strings"
	"testing"

	"ncap/internal/app"
	"ncap/internal/sim"
	"ncap/internal/topology"
)

func TestParsePolicy(t *testing.T) {
	for _, p := range AllPolicies() {
		got, err := ParsePolicy(string(p))
		if err != nil || got != p {
			t.Errorf("ParsePolicy(%q) = %v, %v", p, got, err)
		}
	}
	if _, err := ParsePolicy("turbo"); err == nil || !strings.Contains(err.Error(), "unknown") {
		t.Fatalf("bad policy error = %v", err)
	}
}

func TestPolicyProperties(t *testing.T) {
	cases := []struct {
		p                 Policy
		ond, menu, hw, sw bool
		fcons             int
	}{
		{Perf, false, false, false, false, 1},
		{Ond, true, false, false, false, 1},
		{PerfIdle, false, true, false, false, 1},
		{OndIdle, true, true, false, false, 1},
		{NcapSW, true, true, false, true, 1},
		{NcapCons, true, true, true, false, 5},
		{NcapAggr, true, true, true, false, 1},
	}
	for _, c := range cases {
		if c.p.UsesOndemand() != c.ond || c.p.UsesMenu() != c.menu ||
			c.p.UsesNCAPHardware() != c.hw || c.p.UsesNCAPSoftware() != c.sw ||
			c.p.FCONS() != c.fcons {
			t.Errorf("%s properties wrong", c.p)
		}
	}
	if len(AllPolicies()) != 7 {
		t.Fatal("the paper evaluates seven policies")
	}
}

func TestLoadRPSMatchesPaper(t *testing.T) {
	cases := []struct {
		w    string
		l    LoadLevel
		want float64
	}{
		{"apache", LowLoad, 24_000}, {"apache", MediumLoad, 45_000}, {"apache", HighLoad, 66_000},
		{"memcached", LowLoad, 35_000}, {"memcached", MediumLoad, 127_000}, {"memcached", HighLoad, 138_000},
	}
	for _, c := range cases {
		if got := LoadRPS(c.w, c.l); got != c.want {
			t.Errorf("LoadRPS(%s,%s) = %v, want %v", c.w, c.l, got, c.want)
		}
	}
	if PaperSLA("apache") != 41*sim.Millisecond || PaperSLA("memcached") != 3*sim.Millisecond {
		t.Fatal("paper SLA constants wrong (41ms / 3ms)")
	}
}

func TestLoadLevelString(t *testing.T) {
	if LowLoad.String() != "low" || MediumLoad.String() != "medium" || HighLoad.String() != "high" {
		t.Fatal("load level strings")
	}
}

func TestConfigValidate(t *testing.T) {
	ok := DefaultConfig(Perf, app.ApacheProfile(), 24_000)
	if err := ok.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := ok
	bad.LoadRPS = 0
	if bad.Validate() == nil {
		t.Fatal("zero load accepted")
	}
	bad = ok
	bad.Policy = "warp"
	if bad.Validate() == nil {
		t.Fatal("bad policy accepted")
	}
	bad = ok
	bad.Clients = 0
	if bad.Validate() == nil {
		t.Fatal("zero clients accepted")
	}
	bad = ok
	bad.Measure = 0
	if bad.Validate() == nil {
		t.Fatal("zero measure accepted")
	}
	bad = ok
	bad.FCONS = -1
	if bad.Validate() == nil {
		t.Fatal("negative FCONS accepted")
	}
	bad = ok
	bad.Queues = -3
	if bad.Validate() == nil {
		t.Fatal("negative Queues accepted")
	}
}

// TestConfigValidateDeviceBlocks: a device block that would panic in New
// or build a server that serves nothing is rejected, in the config's own
// blocks and in a topology group's overrides.
func TestConfigValidateDeviceBlocks(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mutate func(*Config)
	}{
		{"NIC.MITT=0", func(c *Config) { c.NIC.MITT = 0 }},
		{"Link.BandwidthBps=0", func(c *Config) { c.Link.BandwidthBps = 0 }},
		{"NIC.RxRing=0", func(c *Config) { c.NIC.RxRing = 0 }},
		{"Driver.NAPIBudget=0", func(c *Config) { c.Driver.NAPIBudget = 0 }},
	} {
		cfg := shortConfig(NcapCons, app.ApacheProfile(), 24_000)
		tc.mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s accepted", tc.name)
		}
		// The same block as a topology group's override.
		cfg = shortConfig(NcapCons, app.ApacheProfile(), 24_000)
		cfg.Topology = topology.Rack(1, 3)
		g := &cfg.Topology.Groups[0]
		dev := cfg
		tc.mutate(&dev)
		nicCfg, drvCfg, link := dev.NIC, dev.Driver, dev.Link
		g.NIC, g.Driver, g.Link = &nicCfg, &drvCfg, &link
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s accepted as a topology group override", tc.name)
		}
	}
}

// TestServerQueuesFollowConfigQueues: a server NIC's queue count comes
// from Config.Queues alone; a queue count left in a device block is not
// a second way to ask for multi-queue NCAP.
func TestServerQueuesFollowConfigQueues(t *testing.T) {
	cfg := shortConfig(NcapCons, app.ApacheProfile(), 24_000)
	cfg.NIC.Queues = 4
	if n := len(New(cfg).Nodes()[0].NIC.Queues()); n != 1 {
		t.Fatalf("NIC.Queues=4 alone built %d queues, want 1", n)
	}
	cfg.Queues, cfg.PerCoreDVFS = 4, true
	cfg.NIC.Queues = 0
	if n := len(New(cfg).Nodes()[0].NIC.Queues()); n != 4 {
		t.Fatalf("Queues=4 built %d queues, want 4", n)
	}
}

func TestDefaultBurstSize(t *testing.T) {
	if DefaultBurstSize(app.ApacheProfile()) != 200 {
		t.Fatal("apache burst")
	}
	if DefaultBurstSize(app.MemcachedProfile()) != 100 {
		t.Fatal("memcached burst")
	}
}

// shortConfig returns a fast experiment for integration assertions.
func shortConfig(p Policy, prof app.Profile, load float64) Config {
	cfg := DefaultConfig(p, prof, load)
	cfg.Warmup = 50 * sim.Millisecond
	cfg.Measure = 150 * sim.Millisecond
	cfg.Drain = 50 * sim.Millisecond
	return cfg
}

func TestEveryPolicyServesLoad(t *testing.T) {
	for _, p := range AllPolicies() {
		res := New(shortConfig(p, app.MemcachedProfile(), 35_000)).Run()
		wantMin := int64(35_000 * 0.150 * 0.9)
		if res.Completed < wantMin {
			t.Errorf("%s completed %d, want >= %d", p, res.Completed, wantMin)
		}
		if res.EnergyJ <= 0 || res.AvgPowerW <= 0 {
			t.Errorf("%s energy accounting empty", p)
		}
		if res.Latency.P95 <= 0 {
			t.Errorf("%s no latency distribution", p)
		}
	}
}

func TestDeterminism(t *testing.T) {
	run := func() Result {
		return New(shortConfig(NcapAggr, app.MemcachedProfile(), 35_000)).Run()
	}
	a, b := run(), run()
	if a.Latency.P95 != b.Latency.P95 || a.EnergyJ != b.EnergyJ || a.Completed != b.Completed {
		t.Fatalf("same seed diverged: %+v vs %+v", a.Latency, b.Latency)
	}
	cfg := shortConfig(NcapAggr, app.MemcachedProfile(), 35_000)
	cfg.Seed = 999
	c := New(cfg).Run()
	if c.Latency.P95 == a.Latency.P95 && c.EnergyJ == a.EnergyJ {
		t.Fatal("different seeds produced identical results")
	}
}

// The reproduction's headline orderings (Sec. 6), asserted at low load with
// short windows. These are the load-bearing shape checks: if a refactor
// breaks the physics, these fail.
func TestPaperShapeMemcachedLowLoad(t *testing.T) {
	prof := app.MemcachedProfile()
	res := map[Policy]Result{}
	for _, p := range []Policy{Perf, Ond, PerfIdle, OndIdle, NcapAggr} {
		res[p] = New(shortConfig(p, prof, 35_000)).Run()
	}
	// Energy: perf > perf.idle > ncap.aggr > ond.idle (Fig. 9 middle).
	if !(res[Perf].EnergyJ > res[PerfIdle].EnergyJ) {
		t.Errorf("perf energy %.2f not above perf.idle %.2f", res[Perf].EnergyJ, res[PerfIdle].EnergyJ)
	}
	if !(res[PerfIdle].EnergyJ > res[NcapAggr].EnergyJ*1.1) {
		t.Errorf("ncap.aggr %.2f not well below perf.idle %.2f (paper: -34%%)",
			res[NcapAggr].EnergyJ, res[PerfIdle].EnergyJ)
	}
	// Latency: ncap ≈ perf-class; ond far worse (paper: +83%).
	if res[NcapAggr].Latency.P95 > res[Perf].Latency.P95*3/2 {
		t.Errorf("ncap.aggr p95 %v far above perf %v", res[NcapAggr].Latency.P95, res[Perf].Latency.P95)
	}
	if res[Ond].Latency.P95 < res[Perf].Latency.P95*3/2 {
		t.Errorf("ond p95 %v should be much worse than perf %v", res[Ond].Latency.P95, res[Perf].Latency.P95)
	}
}

func TestPaperShapeApacheLowLoad(t *testing.T) {
	prof := app.ApacheProfile()
	res := map[Policy]Result{}
	for _, p := range []Policy{Perf, Ond, PerfIdle, NcapCons} {
		res[p] = New(shortConfig(p, prof, 24_000)).Run()
	}
	// perf.idle saves big for Apache (paper: -58%).
	if res[PerfIdle].EnergyJ > res[Perf].EnergyJ*0.55 {
		t.Errorf("perf.idle %.2f not well below perf %.2f", res[PerfIdle].EnergyJ, res[Perf].EnergyJ)
	}
	// ond saves vs perf but less than perf.idle (paper: -22% vs -58%).
	if !(res[Ond].EnergyJ < res[Perf].EnergyJ && res[Ond].EnergyJ > res[PerfIdle].EnergyJ) {
		t.Errorf("ond %.2f not between perf %.2f and perf.idle %.2f",
			res[Ond].EnergyJ, res[Perf].EnergyJ, res[PerfIdle].EnergyJ)
	}
	// NCAP holds perf-class latency while saving energy vs perf and ond.
	if res[NcapCons].Latency.P95 > res[Perf].Latency.P95*12/10 {
		t.Errorf("ncap.cons p95 %v above 1.2x perf %v", res[NcapCons].Latency.P95, res[Perf].Latency.P95)
	}
	if res[NcapCons].EnergyJ > res[Ond].EnergyJ {
		t.Errorf("ncap.cons energy %.2f above ond %.2f", res[NcapCons].EnergyJ, res[Ond].EnergyJ)
	}
}

func TestHighLoadConvergesToPerf(t *testing.T) {
	prof := app.MemcachedProfile()
	perf := New(shortConfig(Perf, prof, 138_000)).Run()
	ncap := New(shortConfig(NcapAggr, prof, 138_000)).Run()
	ratio := ncap.EnergyJ / perf.EnergyJ
	if ratio < 0.90 || ratio > 1.10 {
		t.Fatalf("high-load energy ratio ncap/perf = %.2f, want ~1 (Sec. 6 convergence)", ratio)
	}
}

func TestNcapHardwareBeatsSoftwareLatency(t *testing.T) {
	prof := app.MemcachedProfile()
	hw := New(shortConfig(NcapAggr, prof, 35_000)).Run()
	sw := New(shortConfig(NcapSW, prof, 35_000)).Run()
	if sw.Latency.P95 <= hw.Latency.P95 {
		t.Fatalf("ncap.sw p95 %v not above hardware %v (Sec. 6)", sw.Latency.P95, hw.Latency.P95)
	}
}

func TestNCAPCountsActions(t *testing.T) {
	res := New(shortConfig(NcapAggr, app.ApacheProfile(), 24_000)).Run()
	if res.Boosts == 0 {
		t.Error("no IT_HIGH boosts recorded")
	}
	if res.StepDowns == 0 {
		t.Error("no IT_LOW stepdowns recorded")
	}
	if res.CITWakes == 0 {
		t.Error("no CIT wakes recorded")
	}
	if res.PStateTransitions == 0 {
		t.Error("no P-state transitions recorded")
	}
}

func TestTraceSamplerWired(t *testing.T) {
	cfg := shortConfig(NcapCons, app.ApacheProfile(), 24_000)
	cfg.TraceInterval = sim.Millisecond
	res := New(cfg).Run()
	if res.Trace == nil {
		t.Fatal("trace missing")
	}
	n := len(res.Trace.Freq.Points)
	if n < 100 {
		t.Fatalf("trace points = %d, want ~150", n)
	}
	// The frequency trace must show both boosted and lowered operation.
	var sawHigh, sawLow bool
	for _, p := range res.Trace.Freq.Points {
		if p.V > 3.0 {
			sawHigh = true
		}
		if p.V < 1.0 {
			sawLow = true
		}
	}
	if !sawHigh || !sawLow {
		t.Fatalf("freq trace lacks dynamics (high=%v low=%v)", sawHigh, sawLow)
	}
	// BW(Rx) must show bursts: max well above mean.
	bw := res.Trace.BWRx
	var sum float64
	for _, p := range bw.Points {
		sum += p.V
	}
	mean := sum / float64(len(bw.Points))
	if bw.Max() < 2*mean {
		t.Fatalf("BW(Rx) trace not bursty: max %.0f vs mean %.0f", bw.Max(), mean)
	}
}

func TestBulkTrafficDoesNotTriggerContextAwareNCAP(t *testing.T) {
	// Ablation E-ctx: heavy background bulk traffic must not cause boosts
	// when templates are context-aware, and must when naive.
	base := shortConfig(NcapAggr, app.MemcachedProfile(), 1_000) // near-idle OLDI load
	base.BulkBps = 2_000_000_000                                 // 2 Gb/s of PUT traffic
	aware := New(base).Run()

	naive := base
	naive.NaiveNCAP = true
	naiveRes := New(naive).Run()

	// A naive trigger sees the bulk stream as request load: the frequency
	// pins at max (no step-downs) and energy climbs; the context-aware
	// NIC keeps stepping down between real-request bursts.
	if naiveRes.StepDowns >= aware.StepDowns {
		t.Fatalf("naive stepdowns (%d) not below context-aware (%d)", naiveRes.StepDowns, aware.StepDowns)
	}
	if naiveRes.EnergyJ <= aware.EnergyJ {
		t.Fatalf("naive energy %.2f not above context-aware %.2f", naiveRes.EnergyJ, aware.EnergyJ)
	}
}

func TestMeetsSLA(t *testing.T) {
	r := Result{}
	r.Latency.P95 = 2 * sim.Millisecond
	if !r.MeetsSLA(3*sim.Millisecond) || r.MeetsSLA(sim.Millisecond) {
		t.Fatal("MeetsSLA wrong")
	}
}

func TestWriteRow(t *testing.T) {
	var sb strings.Builder
	r := Result{Policy: Perf, Workload: "apache", LoadRPS: 24000}
	r.WriteRow(&sb)
	if !strings.Contains(sb.String(), "perf") || !strings.Contains(sb.String(), "apache") {
		t.Fatalf("row = %q", sb.String())
	}
}

func TestRequestConservation(t *testing.T) {
	// Every request first-sent in the measurement window is eventually
	// accounted: completed, abandoned, or still outstanding at the end.
	for _, p := range []Policy{Perf, NcapAggr, NcapSW} {
		cl := New(shortConfig(p, app.MemcachedProfile(), 35_000))
		res := cl.Run()
		outstanding := 0
		for _, c := range cl.Clients {
			outstanding += c.Outstanding()
		}
		if res.Sent != res.Completed+res.Abandoned+int64(outstanding) {
			t.Errorf("%s: sent %d != completed %d + abandoned %d + outstanding %d",
				p, res.Sent, res.Completed, res.Abandoned, outstanding)
		}
	}
}

func TestMultiQueuePerCoreEndToEnd(t *testing.T) {
	cfg := shortConfig(NcapAggr, app.MemcachedProfile(), 35_000)
	cfg.Queues = 4
	cfg.PerCoreDVFS = true
	base := New(shortConfig(NcapAggr, app.MemcachedProfile(), 35_000)).Run()
	multi := New(cfg).Run()
	if multi.Abandoned != 0 {
		t.Fatalf("multi-queue abandoned %d", multi.Abandoned)
	}
	if multi.Completed < base.Completed*9/10 {
		t.Fatalf("multi-queue served %d vs base %d", multi.Completed, base.Completed)
	}
	if multi.EnergyJ >= base.EnergyJ {
		t.Fatalf("per-core steering energy %.2f not below chip-wide %.2f",
			multi.EnergyJ, base.EnergyJ)
	}
}

func TestTOEEndToEnd(t *testing.T) {
	cfg := shortConfig(NcapCons, app.ApacheProfile(), 45_000)
	cfg.TOE = true
	base := New(shortConfig(NcapCons, app.ApacheProfile(), 45_000)).Run()
	toe := New(cfg).Run()
	if toe.Completed < base.Completed*9/10 {
		t.Fatalf("TOE served %d vs %d", toe.Completed, base.Completed)
	}
	if toe.EnergyJ > base.EnergyJ*103/100 {
		t.Fatalf("TOE energy %.2f above stock %.2f", toe.EnergyJ, base.EnergyJ)
	}
}

func TestOndemandPeriodOverride(t *testing.T) {
	cfg := shortConfig(Ond, app.ApacheProfile(), 24_000)
	cfg.OndemandPeriod = sim.Millisecond
	res := New(cfg).Run()
	// 1 ms period over a 150 ms window: ~150 invocations vs 15 at 10 ms.
	if res.GovernorInvocations < 100 {
		t.Fatalf("invocations = %d, want ~150 at 1ms period", res.GovernorInvocations)
	}
}
