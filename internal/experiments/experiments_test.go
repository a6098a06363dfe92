package experiments

import (
	"reflect"
	"strings"
	"testing"

	"ncap/internal/app"
	"ncap/internal/cluster"
	"ncap/internal/power"
	"ncap/internal/runner"
	"ncap/internal/sim"
)

// tiny keeps experiment tests fast.
func tiny() Options {
	return Options{
		Warmup:  30 * sim.Millisecond,
		Measure: 100 * sim.Millisecond,
		Drain:   40 * sim.Millisecond,
		Seed:    1,
	}
}

func TestFig1TransitionTimings(t *testing.T) {
	rows := Fig1()
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	full := rows[0] // deepest → P0
	if full.Direction != "up" {
		t.Fatalf("row 0 direction = %s", full.Direction)
	}
	if full.RampUs != 88 {
		t.Fatalf("full-swing ramp = %v µs, want 88 (0.55 V at 6.25 mV/µs)", full.RampUs)
	}
	if full.HaltUs != power.PLLRelock.Micros() {
		t.Fatalf("halt = %v µs, want 5", full.HaltUs)
	}
	down := rows[2]
	if down.Direction != "down" || down.EffectUs != 5 {
		t.Fatalf("down transition = %+v, want immediate 5 µs halt", down)
	}
	// The paper's asymmetry: raising takes much longer than lowering.
	if full.EffectUs < 10*down.EffectUs {
		t.Fatal("up transition should dwarf down transition")
	}
}

func TestFig2SweepShape(t *testing.T) {
	if len(Fig2Periods()) != 4 {
		t.Fatal("period grid")
	}
	// One cell only (full sweep is exercised by the bench harness).
	o := tiny()
	prof := app.ApacheProfile()
	res := run(o, cluster.Ond, prof, cluster.LoadRPS("apache", cluster.LowLoad),
		func(c *cluster.Config) { c.OndemandPeriod = sim.Millisecond })
	if res.GovernorInvocations < 50 {
		t.Fatalf("1ms governor invoked %d times over 100ms window, want ~100", res.GovernorInvocations)
	}
}

func TestFig4TraceHasCorrelatedSignals(t *testing.T) {
	tr := Fig4(tiny())
	s := tr.Result.Trace
	if s == nil {
		t.Fatal("no trace")
	}
	if len(s.BWRx.Points) == 0 || len(s.Util.Points) != len(s.BWRx.Points) {
		t.Fatal("series missing or misaligned")
	}
	// The correlation the paper demonstrates is lagged: "the surge of U
	// shortly after that of BW(Rx)" (Sec. 3). Compare utilization in the
	// ~3 ms after an rx spike against utilization far from any spike.
	rx := s.BWRx
	max := rx.Max()
	const lag = 6 // 6 × 500 µs samples
	nearSpike := make([]bool, len(rx.Points))
	for i, p := range rx.Points {
		if p.V > max/4 {
			for j := i; j < len(rx.Points) && j <= i+lag; j++ {
				nearSpike[j] = true
			}
		}
	}
	var busyU, quietU float64
	var nb, nq int
	for i := range rx.Points {
		if nearSpike[i] {
			busyU += s.Util.Points[i].V
			nb++
		} else {
			quietU += s.Util.Points[i].V
			nq++
		}
	}
	if nb == 0 || nq == 0 {
		t.Fatalf("trace not bursty: busy=%d quiet=%d", nb, nq)
	}
	if busyU/float64(nb) <= quietU/float64(nq) {
		t.Fatalf("utilization not correlated with BW(Rx): near=%.3f far=%.3f",
			busyU/float64(nb), quietU/float64(nq))
	}
}

func TestLoadGrid(t *testing.T) {
	g := LoadGrid("apache")
	if len(g) != 11 || g[0] != 66_000*0.2 || g[len(g)-1] != 66_000*1.15 {
		t.Fatalf("grid = %v", g)
	}
}

func TestFindSLAKnee(t *testing.T) {
	// Synthetic hockey stick: flat then exploding; knee at the bend.
	pts := []CurvePoint{
		{10, 100}, {20, 110}, {30, 120}, {40, 135},
		{50, 160}, {60, 400}, {70, 2000},
	}
	sla, knee := FindSLA(pts)
	if knee != 50 && knee != 60 {
		t.Fatalf("knee at load %v, want near the bend (50-60)", knee)
	}
	if sla < 150 || sla > 450 {
		t.Fatalf("sla = %v", sla)
	}
}

func TestFindSLADegenerate(t *testing.T) {
	if sla, _ := FindSLA(nil); sla != 0 {
		t.Fatal("empty curve")
	}
	if sla, _ := FindSLA([]CurvePoint{{1, 5}, {2, 9}}); sla != 9 {
		t.Fatalf("two-point curve sla = %v", sla)
	}
	flat := []CurvePoint{{1, 5}, {2, 5}, {3, 5}}
	if sla, _ := FindSLA(flat); sla != 5 {
		t.Fatalf("flat curve sla = %v", sla)
	}
}

func TestMeasuredSLAUsesLooserAnchor(t *testing.T) {
	o := tiny()
	sla, pts := MeasuredSLA(o, app.MemcachedProfile())
	if len(pts) == 0 {
		t.Fatal("no curve returned")
	}
	knee, _ := FindSLA(pts)
	if sla < knee {
		t.Fatalf("sla %v below knee %v", sla, knee)
	}
	// The SLA must be achievable by the baseline at the evaluated loads.
	base := run(o, cluster.Perf, app.MemcachedProfile(),
		cluster.LoadRPS("memcached", cluster.HighLoad), nil)
	if base.Latency.P95 > sla {
		t.Fatalf("perf itself violates the measured SLA: %v > %v", base.Latency.P95, sla)
	}
}

func TestComparisonNormalization(t *testing.T) {
	o := tiny()
	rows := Comparison(o, app.MemcachedProfile(), 3*sim.Millisecond, cluster.LowLoad)
	if len(rows) != len(cluster.AllPolicies()) {
		t.Fatalf("rows = %d", len(rows))
	}
	var perfRow, ncapRow *PolicyRow
	for i := range rows {
		switch rows[i].Policy {
		case cluster.Perf:
			perfRow = &rows[i]
		case cluster.NcapAggr:
			ncapRow = &rows[i]
		}
	}
	if perfRow.NormE != 1.0 {
		t.Fatalf("perf normE = %v, want 1", perfRow.NormE)
	}
	if ncapRow.NormE >= 1.0 {
		t.Fatalf("ncap normE = %v, want < 1 at low load", ncapRow.NormE)
	}
	if !ncapRow.MeetsSLA {
		t.Fatal("ncap.aggr violates a 3ms SLA at low load")
	}
	var sb strings.Builder
	WriteComparison(&sb, "memcached", rows)
	if !strings.Contains(sb.String(), "ncap.aggr") {
		t.Fatal("table missing rows")
	}
}

func TestHeadlineComputation(t *testing.T) {
	mk := func(p cluster.Policy, e float64, ok bool) PolicyRow {
		return PolicyRow{Policy: p, Level: cluster.LowLoad, EnergyJ: e, MeetsSLA: ok}
	}
	rows := []PolicyRow{
		mk(cluster.Perf, 100, true),
		mk(cluster.Ond, 60, true),
		mk(cluster.PerfIdle, 40, false), // cheapest but violates
		mk(cluster.OndIdle, 35, false),
		mk(cluster.NcapAggr, 45, true),
	}
	h := Headline(sim.Millisecond, rows)
	if len(h.Rows) != 1 {
		t.Fatalf("rows = %d", len(h.Rows))
	}
	r := h.Rows[0]
	if r.BestConventional != cluster.Ond {
		t.Fatalf("best conventional = %v, want ond (cheapest SLA-passing)", r.BestConventional)
	}
	if r.SavingVsPerfPct != 55 {
		t.Fatalf("saving vs perf = %v, want 55", r.SavingVsPerfPct)
	}
	if r.SavingVsBestPct != 25 {
		t.Fatalf("saving vs best = %v, want 25", r.SavingVsBestPct)
	}
	if !r.NcapMeetsSLA {
		t.Fatal("ncap SLA flag")
	}
}

func TestAblationCIT(t *testing.T) {
	p := AblationCIT(tiny(), app.MemcachedProfile(), cluster.LowLoad)
	// Removing the CIT wake must not reduce latency; CIT wakes vanish.
	if p.Without.CITWakes != 0 {
		t.Fatalf("disabled CIT still woke %d times", p.Without.CITWakes)
	}
	if p.With.CITWakes == 0 {
		t.Fatal("enabled CIT never woke")
	}
	if p.Without.Latency.P95 < p.With.Latency.P95 {
		t.Fatalf("removing CIT improved p95 (%v -> %v)", p.With.Latency.P95, p.Without.Latency.P95)
	}
}

func TestAblationContext(t *testing.T) {
	p := AblationContext(tiny())
	// Under constant bulk traffic, a naive trigger keeps the request rate
	// above RHT forever: after the first boost the frequency pins at max
	// and IT_LOW never fires, so the step-down count is the signature.
	if p.Without.StepDowns >= p.With.StepDowns {
		t.Fatalf("naive stepdowns %d not below aware %d", p.Without.StepDowns, p.With.StepDowns)
	}
	if p.EnergyDeltaPct <= 5 {
		t.Fatalf("naive trigger should waste energy (delta %+.1f%%)", p.EnergyDeltaPct)
	}
}

func TestAblationOverlap(t *testing.T) {
	p := AblationOverlap(tiny(), app.MemcachedProfile(), cluster.LowLoad)
	// Inspection after DMA must not *improve* the tail; typically it adds
	// the delivery latency back onto the wake path.
	if p.Without.Latency.P95 < p.With.Latency.P95 {
		t.Fatalf("removing the overlap improved p95 (%v -> %v)",
			p.With.Latency.P95, p.Without.Latency.P95)
	}
}

func TestAblationFCONS(t *testing.T) {
	rows := AblationFCONS(tiny(), app.ApacheProfile(), cluster.LowLoad)
	if len(rows) != 4 || rows[0].FCONS != 1 || rows[3].FCONS != 10 {
		t.Fatalf("rows = %+v", rows)
	}
	for _, r := range rows {
		if r.Result.Completed == 0 {
			t.Fatalf("FCONS=%d served nothing", r.FCONS)
		}
	}
}

func TestTraceSnapshotsProduceBothPolicies(t *testing.T) {
	ond, ncap := Snapshots(tiny(), app.ApacheProfile(), cluster.LowLoad)
	if ond.Policy != cluster.OndIdle || ncap.Policy != cluster.NcapCons {
		t.Fatal("policy labels wrong")
	}
	if ond.Result.Trace == nil || ncap.Result.Trace == nil {
		t.Fatal("traces missing")
	}
	// NCAP's trace must include wake-interrupt markers; ond.idle's must not.
	var ncapWakes, ondWakes float64
	for _, p := range ncap.Result.Trace.Wakes.Points {
		ncapWakes += p.V
	}
	for _, p := range ond.Result.Trace.Wakes.Points {
		ondWakes += p.V
	}
	if ncapWakes == 0 {
		t.Fatal("ncap.cons trace has no INT(wake) markers")
	}
	if ondWakes != 0 {
		t.Fatal("ond.idle trace has INT(wake) markers")
	}
}

// TestRunnerParityWithSerial pins the determinism guarantee at the
// experiments layer: attaching a parallel runner pool must not change a
// single row relative to serial execution (a nil Runner).
func TestRunnerParityWithSerial(t *testing.T) {
	serial := tiny()
	parallel := tiny()
	parallel.Runner = runner.New(runner.Options{Jobs: 4})

	a := Comparison(serial, app.MemcachedProfile(), 3*sim.Millisecond, cluster.LowLoad)
	b := Comparison(parallel, app.MemcachedProfile(), 3*sim.Millisecond, cluster.LowLoad)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("parallel Comparison rows differ from serial")
	}

	fa := FleetImbalance(serial, app.MemcachedProfile(), 40_000, cluster.Perf, cluster.NcapAggr)
	fb := FleetImbalance(parallel, app.MemcachedProfile(), 40_000, cluster.Perf, cluster.NcapAggr)
	if !reflect.DeepEqual(fa, fb) {
		t.Fatal("parallel FleetImbalance rows differ from serial")
	}
}

func TestOptionsPresets(t *testing.T) {
	q, f := Quick(), Full()
	if q.Measure >= f.Measure {
		t.Fatal("quick not quicker than full")
	}
	cfg := q.apply(cluster.DefaultConfig(cluster.Perf, app.ApacheProfile(), 24_000))
	if cfg.Measure != q.Measure || cfg.Warmup != q.Warmup {
		t.Fatal("apply did not set windows")
	}
}
