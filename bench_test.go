// The benchmark harness regenerates every table and figure of the paper's
// evaluation (DESIGN.md §3 indexes them as E1–E10). Each benchmark prints
// its rows once — so `go test -bench=. -benchmem` leaves a full set of
// paper-style tables in the output — and reports its key quantities as
// benchmark metrics.
//
// The benchmarks use the Quick() experiment windows; cmd/ncapsweep -full
// reproduces the longer EXPERIMENTS.md measurements.
package ncap_test

import (
	"fmt"
	"os"
	"runtime"
	"sync"
	"testing"

	"ncap/internal/app"
	"ncap/internal/cluster"
	"ncap/internal/core"
	"ncap/internal/cpu"
	"ncap/internal/driver"
	"ncap/internal/experiments"
	"ncap/internal/governor"
	"ncap/internal/netsim"
	"ncap/internal/nic"
	"ncap/internal/oskernel"
	"ncap/internal/power"
	"ncap/internal/runner"
	"ncap/internal/sim"
	"ncap/internal/stats"
	"ncap/internal/topology"
)

// once-per-benchmark table printing: b.N loops must not repeat the rows.
var printed sync.Map

func printOnce(key string, fn func()) {
	if _, dup := printed.LoadOrStore(key, true); !dup {
		fn()
	}
}

// E1 — Fig. 1: the V/F transition sequence, measured on the live chip
// model (not the analytic table): time from Boost() to the new frequency
// taking effect.
func BenchmarkFig1_PStateTransition(b *testing.B) {
	printOnce("fig1", func() {
		fmt.Println("\n# E1 / Fig.1 — P-state transition timing")
		for _, r := range experiments.Fig1() {
			fmt.Printf("  %v -> %v (%s): ramp %.1fµs + halt %.1fµs = %.1fµs\n",
				r.From, r.To, r.Direction, r.RampUs, r.HaltUs, r.EffectUs)
		}
	})
	tab := power.DefaultTable()
	b.ResetTimer()
	var effect sim.Time
	for i := 0; i < b.N; i++ {
		eng := sim.NewEngine()
		chip := cpu.New(eng, 4, tab, power.DefaultModel(), tab.Min())
		chip.OnPStateChange(func(power.PState) { effect = eng.Now() })
		chip.Boost()
		eng.Run(sim.Second)
	}
	b.ReportMetric(effect.Micros(), "boost_µs")
}

// E2 — Fig. 2: Apache p95 latency vs ondemand invocation period.
func BenchmarkFig2_OndemandPeriod(b *testing.B) {
	o := experiments.Quick()
	var rows []experiments.Fig2Row
	for i := 0; i < b.N; i++ {
		rows = experiments.Fig2(o)
	}
	printOnce("fig2", func() {
		fmt.Println("\n# E2 / Fig.2 — Apache p95 vs ondemand period")
		for _, r := range rows {
			fmt.Printf("  period=%-6v load=%-7s p95=%8.3fms\n", r.Period, r.Level, r.P95.Millis())
		}
	})
	b.ReportMetric(rows[len(rows)-1].P95.Millis(), "p95_10ms_high_ms")
}

// E3 — Fig. 4: the network-activity / power-management correlation trace.
func BenchmarkFig4_Correlation(b *testing.B) {
	o := experiments.Quick()
	var tr experiments.TraceResult
	for i := 0; i < b.N; i++ {
		tr = experiments.Fig4(o)
	}
	s := tr.Result.Trace
	printOnce("fig4", func() {
		fmt.Printf("\n# E3 / Fig.4 — ond.idle correlation trace: %d samples"+
			" (use cmd/ncaptrace for the CSV)\n", len(s.BWRx.Points))
		fmt.Printf("  BW(Rx) max %.1f MB/s; mean util %.2f; freq range [%.1f, %.1f] GHz\n",
			s.BWRx.Max()/1e6, meanOf(s.Util), minOf(s.Freq), s.Freq.Max())
	})
	b.ReportMetric(s.BWRx.Max()/1e6, "bwrx_max_MBps")
	b.ReportMetric(meanOf(s.Util), "mean_util")
}

// E4 — Fig. 7: latency versus load and the SLA at the inflexion point.
func BenchmarkFig7_LatencyVsLoad(b *testing.B) {
	for _, prof := range []app.Profile{app.ApacheProfile(), app.MemcachedProfile()} {
		prof := prof
		b.Run(prof.Name, func(b *testing.B) {
			o := experiments.Quick()
			var pts []experiments.CurvePoint
			var sla sim.Duration
			var knee float64
			for i := 0; i < b.N; i++ {
				pts = experiments.LatencyVsLoad(o, prof)
				sla, knee = experiments.FindSLA(pts)
			}
			printOnce("fig7-"+prof.Name, func() {
				fmt.Printf("\n# E4 / Fig.7 — %s latency vs load (perf)\n", prof.Name)
				for _, p := range pts {
					fmt.Printf("  %7.0f rps  p95=%8.3fms\n", p.LoadRPS, p.P95.Millis())
				}
				fmt.Printf("  SLA (inflexion @ %.0f rps) = %.3fms  [paper: %v]\n",
					knee, sla.Millis(), cluster.PaperSLA(prof.Name))
			})
			b.ReportMetric(sla.Millis(), "sla_ms")
			b.ReportMetric(knee, "knee_rps")
		})
	}
}

// E5 — Fig. 8 (Apache) and E7 — Fig. 9 (Memcached): the seven-policy
// comparison, normalized as in the paper.
func benchComparison(b *testing.B, prof app.Profile, tag string) {
	o := experiments.Quick()
	var rows []experiments.PolicyRow
	var sla sim.Duration
	for i := 0; i < b.N; i++ {
		sla, _ = experiments.MeasuredSLA(o, prof)
		rows = experiments.Comparison(o, prof, sla)
	}
	printOnce(tag, func() {
		fmt.Printf("\n# %s — measured SLA %.3fms\n", tag, sla.Millis())
		experiments.WriteComparison(os.Stdout, prof.Name, rows)
	})
	for _, r := range rows {
		if r.Policy == cluster.NcapAggr && r.Level == cluster.LowLoad {
			b.ReportMetric(r.NormE, "ncap_aggr_low_normE")
			b.ReportMetric(r.NormP95, "ncap_aggr_low_normP95")
		}
	}
}

func BenchmarkFig8_Apache(b *testing.B) { benchComparison(b, app.ApacheProfile(), "E5 / Fig.8 apache") }
func BenchmarkFig9_Memcached(b *testing.B) {
	benchComparison(b, app.MemcachedProfile(), "E7 / Fig.9 memcached")
}

// E6 — Fig. 8/9 right: the BW(Rx)-vs-F snapshots with INT(wake) markers.
func BenchmarkFig8_Snapshot(b *testing.B) {
	o := experiments.Quick()
	var ond, ncap experiments.TraceResult
	for i := 0; i < b.N; i++ {
		ond, ncap = experiments.Snapshots(o, app.ApacheProfile(), cluster.LowLoad)
	}
	var wakes float64
	for _, p := range ncap.Result.Trace.Wakes.Points {
		wakes += p.V
	}
	printOnce("fig8snap", func() {
		fmt.Printf("\n# E6 / Fig.8-right — snapshots (CSV via cmd/ncaptrace -snapshot)\n")
		fmt.Printf("  ond.idle:  freq range [%.1f, %.1f] GHz, p95=%v\n",
			minOf(ond.Result.Trace.Freq), ond.Result.Trace.Freq.Max(), ond.Result.Latency.P95)
		fmt.Printf("  ncap.cons: freq range [%.1f, %.1f] GHz, p95=%v, INT(wake)=%d\n",
			minOf(ncap.Result.Trace.Freq), ncap.Result.Trace.Freq.Max(), ncap.Result.Latency.P95, int(wakes))
	})
	b.ReportMetric(wakes, "int_wakes")
}

// E9 — the abstract's headline energy-saving claims.
func BenchmarkHeadline_EnergySavings(b *testing.B) {
	for _, prof := range []app.Profile{app.ApacheProfile(), app.MemcachedProfile()} {
		prof := prof
		b.Run(prof.Name, func(b *testing.B) {
			o := experiments.Quick()
			var h experiments.HeadlineClaims
			for i := 0; i < b.N; i++ {
				sla, _ := experiments.MeasuredSLA(o, prof)
				rows := experiments.Comparison(o, prof, sla)
				h = experiments.Headline(sla, rows)
			}
			printOnce("headline-"+prof.Name, func() {
				fmt.Printf("\n# E9 — headline claims, %s (SLA %.3fms)\n", prof.Name, h.SLA.Millis())
				for _, r := range h.Rows {
					fmt.Printf("  %-7s vs perf %+6.1f%%; vs best conventional (%s) %+6.1f%%; SLA met %v\n",
						r.Level, -r.SavingVsPerfPct, r.BestConventional, -r.SavingVsBestPct, r.NcapMeetsSLA)
				}
			})
			if len(h.Rows) > 0 {
				b.ReportMetric(h.Rows[0].SavingVsPerfPct, "low_saving_vs_perf_pct")
			}
		})
	}
}

// E10 — the hardware-versus-software NCAP comparison (Sec. 5/6).
func BenchmarkNcapSW_Overhead(b *testing.B) {
	o := experiments.Quick()
	prof := app.MemcachedProfile()
	var hw, sw cluster.Result
	for i := 0; i < b.N; i++ {
		hw = cluster.New(quickCfg(o, cluster.NcapAggr, prof, cluster.LoadRPS(prof.Name, cluster.MediumLoad))).Run()
		sw = cluster.New(quickCfg(o, cluster.NcapSW, prof, cluster.LoadRPS(prof.Name, cluster.MediumLoad))).Run()
	}
	printOnce("e10", func() {
		fmt.Printf("\n# E10 — ncap.sw vs hardware NCAP (memcached, medium)\n")
		fmt.Printf("  hw: p95=%v energy=%.2fJ   sw: p95=%v energy=%.2fJ (sw p95 %+0.f%%)\n",
			hw.Latency.P95, hw.EnergyJ, sw.Latency.P95, sw.EnergyJ,
			100*float64(sw.Latency.P95-hw.Latency.P95)/float64(hw.Latency.P95))
	})
	b.ReportMetric(100*float64(sw.Latency.P95-hw.Latency.P95)/float64(hw.Latency.P95), "sw_p95_penalty_pct")
}

// Ablation benches for the design choices DESIGN.md §4 calls out.

func BenchmarkAblation_CIT(b *testing.B) {
	o := experiments.Quick()
	var p experiments.AblationPair
	for i := 0; i < b.N; i++ {
		p = experiments.AblationCIT(o, app.MemcachedProfile(), cluster.LowLoad)
	}
	printOnce("abl-cit", func() {
		fmt.Printf("\n# Ablation — CIT wake off: p95 %+.1f%%, energy %+.1f%% (wakes %d -> %d)\n",
			p.LatencyDeltaPct, p.EnergyDeltaPct, p.With.CITWakes, p.Without.CITWakes)
	})
	b.ReportMetric(p.LatencyDeltaPct, "p95_delta_pct")
}

func BenchmarkAblation_ContextAware(b *testing.B) {
	o := experiments.Quick()
	var p experiments.AblationPair
	for i := 0; i < b.N; i++ {
		p = experiments.AblationContext(o)
	}
	printOnce("abl-ctx", func() {
		fmt.Printf("\n# Ablation — naive rate trigger: energy %+.1f%% (stepdowns %d -> %d)\n",
			p.EnergyDeltaPct, p.With.StepDowns, p.Without.StepDowns)
	})
	b.ReportMetric(p.EnergyDeltaPct, "energy_delta_pct")
}

func BenchmarkAblation_Overlap(b *testing.B) {
	o := experiments.Quick()
	var p experiments.AblationPair
	for i := 0; i < b.N; i++ {
		p = experiments.AblationOverlap(o, app.MemcachedProfile(), cluster.LowLoad)
	}
	printOnce("abl-ovl", func() {
		fmt.Printf("\n# Ablation — inspect after DMA (no wake/delivery overlap): p95 %+.1f%%\n",
			p.LatencyDeltaPct)
	})
	b.ReportMetric(p.LatencyDeltaPct, "p95_delta_pct")
}

func BenchmarkAblation_FCONS(b *testing.B) {
	o := experiments.Quick()
	var rows []experiments.FConsRow
	for i := 0; i < b.N; i++ {
		rows = experiments.AblationFCONS(o, app.ApacheProfile(), cluster.LowLoad)
	}
	printOnce("abl-fcons", func() {
		fmt.Println("\n# Ablation — FCONS sweep (apache, low)")
		for _, r := range rows {
			fmt.Printf("  FCONS=%-3d p95=%8.3fms energy=%6.2fJ\n",
				r.FCONS, r.Result.Latency.P95.Millis(), r.Result.EnergyJ)
		}
	})
	b.ReportMetric(rows[len(rows)-1].Result.EnergyJ, "fcons10_energy_J")
}

// Sec. 7 extension benches: multi-queue + per-core power management, TOE.

func BenchmarkExtension_MultiQueue(b *testing.B) {
	o := experiments.Quick()
	var rows []experiments.ExtensionRow
	for i := 0; i < b.N; i++ {
		rows = experiments.ExtensionMultiQueue(o, app.MemcachedProfile(), cluster.LowLoad)
	}
	printOnce("ext-mq", func() {
		fmt.Println("\n# Extension — multi-queue NIC + per-core DVFS (Sec. 7)")
		for _, r := range rows {
			fmt.Printf("  %-24s p95=%v energy=%.2fJ boosts=%d\n",
				r.Name, r.Result.Latency.P95, r.Result.EnergyJ, r.Result.Boosts)
		}
	})
	base, multi := rows[0].Result, rows[1].Result
	b.ReportMetric(100*(base.EnergyJ-multi.EnergyJ)/base.EnergyJ, "energy_saving_pct")
}

func BenchmarkExtension_TOE(b *testing.B) {
	o := experiments.Quick()
	var rows []experiments.ExtensionRow
	for i := 0; i < b.N; i++ {
		rows = experiments.ExtensionTOE(o, app.MemcachedProfile(), cluster.MediumLoad)
	}
	printOnce("ext-toe", func() {
		fmt.Println("\n# Extension — TCP offload engines (Sec. 7)")
		for _, r := range rows {
			fmt.Printf("  %-24s p95=%v energy=%.2fJ\n", r.Name, r.Result.Latency.P95, r.Result.EnergyJ)
		}
	})
	base, toe := rows[0].Result, rows[1].Result
	b.ReportMetric(100*(base.EnergyJ-toe.EnergyJ)/base.EnergyJ, "energy_saving_pct")
}

// Methodology and fleet benches (Sec. 5 and Sec. 7 arguments).

func BenchmarkMethodology_OpenVsClosedLoop(b *testing.B) {
	o := experiments.Quick()
	var rows []experiments.OpenVsClosedRow
	for i := 0; i < b.N; i++ {
		rows = experiments.OpenVsClosedLoop(o)
	}
	printOnce("meth-loop", func() {
		fmt.Println("\n# Methodology — open vs closed-loop clients (ond.idle memcached)")
		for _, r := range rows {
			fmt.Printf("  %-12s p95=%v p99=%v completed=%d\n", r.Method, r.P95, r.P99, r.Completed)
		}
	})
	b.ReportMetric(float64(rows[0].P95)/float64(rows[1].P95), "open_over_closed_p95")
}

func BenchmarkMethodology_ModerationSweep(b *testing.B) {
	o := experiments.Quick()
	var rows []experiments.ModerationRow
	for i := 0; i < b.N; i++ {
		rows = experiments.ModerationSweep(o, app.MemcachedProfile())
	}
	printOnce("meth-mod", func() {
		fmt.Println("\n# Methodology — interrupt moderation trade-off (perf memcached)")
		for _, r := range rows {
			fmt.Printf("  PITT=%-8v AITT=%-8v p95=%v IRQs=%d\n", r.PITT, r.AITT, r.P95, r.IRQs)
		}
	})
	b.ReportMetric(float64(rows[0].IRQs), "light_irqs")
}

func BenchmarkFleet_Imbalance(b *testing.B) {
	o := experiments.Quick()
	prof := app.MemcachedProfile()
	var rows []experiments.FleetRow
	for i := 0; i < b.N; i++ {
		rows = experiments.FleetImbalance(o, prof, cluster.LoadRPS(prof.Name, cluster.MediumLoad))
	}
	printOnce("fleet", func() {
		fmt.Println("\n# Fleet — Sec. 7 load imbalance (4 servers, 55/20/15/10%)")
		for _, r := range rows {
			fmt.Printf("  %-10s fleet-energy=%.2fJ worst-p95=%v\n", r.Policy, r.TotalEnergyJ, r.WorstP95)
		}
	})
	for _, r := range rows {
		if r.Policy == cluster.NcapAggr {
			b.ReportMetric(r.TotalEnergyJ, "ncap_fleet_J")
		}
	}
}

// BenchmarkRunnerParallel measures the orchestration layer: the same
// batch of independent simulations through a 1-worker pool (serial
// baseline) and a GOMAXPROCS-sized pool. On an N-core machine the
// parallel variant approaches N× lower wall time per batch; the reported
// speedup metric is serial-ns/parallel-ns from the measured averages.
func BenchmarkRunnerParallel(b *testing.B) {
	o := experiments.Quick()
	batch := func() []runner.Job {
		var jobs []runner.Job
		for _, prof := range []app.Profile{app.ApacheProfile(), app.MemcachedProfile()} {
			for _, pol := range []cluster.Policy{cluster.Perf, cluster.OndIdle, cluster.NcapCons, cluster.NcapAggr} {
				jobs = append(jobs, runner.Job{
					Tag:    string(pol) + "/" + prof.Name,
					Config: quickCfg(o, pol, prof, cluster.LoadRPS(prof.Name, cluster.LowLoad)),
				})
			}
		}
		return jobs
	}

	counts := []int{1}
	if max := runtime.GOMAXPROCS(0); max > 1 {
		counts = append(counts, max)
	}
	perWorker := map[int]float64{} // workers → ns/op
	for _, workers := range counts {
		workers := workers
		b.Run(fmt.Sprintf("jobs=%d", workers), func(b *testing.B) {
			pool := runner.New(runner.Options{Jobs: workers})
			for i := 0; i < b.N; i++ {
				for _, out := range pool.Run(batch()) {
					if out.Err != nil {
						b.Fatal(out.Err)
					}
				}
			}
			perWorker[workers] = float64(b.Elapsed().Nanoseconds()) / float64(b.N)
		})
	}
	if s, p := perWorker[1], perWorker[runtime.GOMAXPROCS(0)]; len(counts) > 1 && s > 0 && p > 0 {
		printOnce("runner-parallel", func() {
			fmt.Printf("\n# Runner — %d-job batch: serial %.2fs vs %d workers %.2fs (%.2fx)\n",
				len(batch()), s/1e9, runtime.GOMAXPROCS(0), p/1e9, s/p)
		})
	}
}

// Substrate micro-benchmarks: the cost of the simulator itself.

// BenchmarkEngineScheduleArg is the closure-free fast path: steady-state
// schedule+fire through the pooled-event trampoline API. The regression
// gate holds this at zero allocs/op.
func BenchmarkEngineScheduleArg(b *testing.B) {
	b.ReportAllocs()
	eng := sim.NewEngine()
	var next func(any)
	next = func(arg any) { eng.ScheduleArg(sim.Microsecond, next, arg) }
	eng.ScheduleArg(0, next, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Step()
	}
}

// BenchmarkEngineCancelStorm measures eager cancellation: every op
// schedules and immediately cancels a spread of events across the near
// window and several wheel levels — the NIC ITR / client RTO rearm pattern.
func BenchmarkEngineCancelStorm(b *testing.B) {
	b.ReportAllocs()
	eng := sim.NewEngine()
	nop := func(any) {}
	delays := []sim.Duration{
		500 * sim.Nanosecond,  // near window
		30 * sim.Microsecond,  // level 0
		2 * sim.Millisecond,   // level 1
		120 * sim.Millisecond, // level 2
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var hs [4]sim.Handle
		for j, d := range delays {
			hs[j] = eng.ScheduleArg(d, nop, nil)
		}
		for _, h := range hs {
			h.Cancel()
		}
	}
}

// BenchmarkEngineMixedHorizonDrain schedules a burst spanning 1 ns to
// 2^46 ns (the near window up to wheel levels 5–6), then drains it — the
// cascade cost.
func BenchmarkEngineMixedHorizonDrain(b *testing.B) {
	b.ReportAllocs()
	eng := sim.NewEngine()
	nop := func(any) {}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for lvl := uint(0); lvl < 48; lvl += 2 {
			eng.ScheduleArg(sim.Duration(1)<<lvl, nop, nil)
		}
		for eng.Step() {
		}
	}
}

// BenchmarkEngineStarMix imitates the engine traffic of the paper's star
// (star-apache-ncap: Apache, ncap.cons, 24k RPS). The mix comes from
// TestStarDelayMix in internal/sim, which steps the star at seed 3 through
// its 500 ms measured window (329,398 fired events) and reads the queue
// after every step:
//   - 162 events pending on average, 127 of them scheduled ≥16 ms ahead
//     (the clients' 25 ms RTO timers, armed once per request and almost
//     always canceled);
//   - schedule delays of 256–511 ns 24.29%, 512–1023 ns 0.16%, 1–2 µs
//     10.37%, 2–4 µs 27.26%, 4–8 µs 10.46%, 8–16 µs 9.03%, 16–32 µs
//     6.76%, 32–64 µs 6.46%, 64–128 µs 1.72%, 16–33 ms 3.41%, and under
//     0.1% elsewhere;
//   - a near window below 8 events at 85% of steps and below 64 at all.
//
// The benchmark keeps 35 short events pending; each op fires the earliest
// with a no-op ScheduleArg callback and schedules a replacement drawn from
// the short part of the histogram. The RTO timers cannot reschedule
// themselves like that: drawn from the same histogram, a 25 ms wait would
// hold nearly every pending event. So 127 of them stay armed, and every
// 27th op (the star's one RTO per 27.3 fired events) cancels the oldest and
// arms a new one, which never comes due.
func BenchmarkEngineStarMix(b *testing.B) {
	b.ReportAllocs()
	const (
		short    = 35
		rtos     = 127
		rtoEvery = 27
		nDelays  = 1 << 12
	)
	// Histogram buckets [lo, 2·lo) and their shares in basis points.
	type bucket struct {
		lo sim.Duration
		bp int
	}
	mix := []bucket{
		{256, 2429}, {512, 16}, {1 << 10, 1037}, {1 << 11, 2726}, {1 << 12, 1046},
		{1 << 13, 903}, {1 << 14, 676}, {1 << 15, 646}, {1 << 16, 172},
	}
	total := 0
	for _, m := range mix {
		total += m.bp
	}
	rng := sim.NewRand(1, "star-mix")
	delays := make([]sim.Duration, nDelays)
	for i := range delays {
		pick := rng.Intn(total)
		for _, m := range mix {
			if pick -= m.bp; pick < 0 {
				delays[i] = m.lo + sim.Duration(rng.Intn(int(m.lo)))
				break
			}
		}
	}
	const rtoLo = sim.Duration(1) << 24
	rtoDelay := func() sim.Duration { return rtoLo + sim.Duration(rng.Intn(int(rtoLo))) }

	eng := sim.NewEngine()
	nop := func(any) {}
	for i := 0; i < short; i++ {
		eng.ScheduleArg(delays[i], nop, nil)
	}
	var armed [rtos]sim.Handle
	for i := range armed {
		armed[i] = eng.ScheduleArg(rtoDelay(), nop, nil)
	}
	oldest := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Step()
		eng.ScheduleArg(delays[i&(nDelays-1)], nop, nil)
		if i%rtoEvery == 0 {
			armed[oldest].Cancel()
			armed[oldest] = eng.ScheduleArg(rtoDelay(), nop, nil)
			oldest = (oldest + 1) % rtos
		}
	}
	b.StopTimer()
	if got := eng.Pending(); got != short+rtos {
		b.Fatalf("pending = %d, want %d: an RTO timer came due", got, short+rtos)
	}
}

// benchSink drains delivered frames back to the packet pool.
type benchSink struct{ n int }

func (s *benchSink) Receive(p *netsim.Packet) { s.n++; p.Release() }

// BenchmarkLinkSaturation pushes back-to-back frames through one link —
// the enqueue/serialize/deliver/release cycle that dominates network-side
// simulation time.
func BenchmarkLinkSaturation(b *testing.B) {
	b.ReportAllocs()
	eng := sim.NewEngine()
	s := &benchSink{}
	l := netsim.NewLink(eng, netsim.DefaultLinkConfig(), s)
	payload := []byte("GET /bench")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !l.Send(netsim.NewRequest(2, 1, uint64(i), payload)) {
			b.Fatal("egress overflow despite draining")
		}
		// Keep the egress queue shallow so every frame pays the full
		// enqueue/serialize/deliver cycle instead of being dropped.
		for l.QueuedBytes() > 4096 {
			eng.Step()
		}
	}
	for eng.Step() {
	}
	if s.n == 0 {
		b.Fatal("no deliveries")
	}
}

// Request-path layer benchmarks: the server's side of one request, a NAPI
// poll, one softirq run, each on a bare server node, and one core's sleep
// cycle on a bare chip. The CI allocs gate holds all four at zero
// allocs/op.

// releaseSink is the far end of a link: it returns every frame to the pool.
type releaseSink struct{}

func (releaseSink) Receive(p *netsim.Packet) { p.Release() }

// benchNode is one server node with the default driver and a 4-core chip
// at P0; its NIC transmits into a releaseSink and deliver is the socket
// layer.
func benchNode(deliver driver.Deliver) (*sim.Engine, *oskernel.Kernel, *nic.NIC, *driver.Driver) {
	eng := sim.NewEngine()
	tab := power.DefaultTable()
	k := oskernel.New(cpu.New(eng, 4, tab, power.DefaultModel(), tab.Max()))
	dev := nic.New(eng, 1, nic.DefaultConfig())
	dev.SetLink(netsim.NewLink(eng, netsim.DefaultLinkConfig(), releaseSink{}))
	return eng, k, dev, driver.New(k, dev, driver.DefaultConfig(), driver.PowerHooks{}, deliver)
}

// BenchmarkLayerAppServerRequest is one Apache request through the server:
// HandleDelivered, the application task (and, for a page-cache miss, the
// disk read), finish, and the NET_TX softirq transmitting the response.
func BenchmarkLayerAppServerRequest(b *testing.B) {
	b.ReportAllocs()
	var srv *app.Server
	eng, k, _, drv := benchNode(func(p *netsim.Packet, core int) { srv.HandleDelivered(p, core) })
	srv = app.NewServer(k, drv, app.ApacheProfile(), sim.NewRand(1, "bench"), 1, nil)
	payload := []byte("GET /index.html HTTP/1.1")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		srv.HandleDelivered(netsim.NewRequest(2, 1, uint64(i), payload), 0)
		for eng.Step() {
		}
	}
	if srv.Served.Value() != int64(b.N) {
		b.Fatalf("served %d of %d requests", srv.Served.Value(), b.N)
	}
}

// BenchmarkLayerDriverNAPIPoll is one NAPI poll of a 64-frame batch: the
// frames' DMA and interrupt moderation, the hard IRQ, the NET_RX softirq,
// and 64 per-frame stack runs delivering to the socket layer.
func BenchmarkLayerDriverNAPIPoll(b *testing.B) {
	b.ReportAllocs()
	eng, _, dev, drv := benchNode(func(p *netsim.Packet, _ int) { p.Release() })
	payload := []byte("GET /index.html HTTP/1.1")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < 64; j++ {
			dev.Receive(netsim.NewRequest(2, 1, uint64(j), payload))
		}
		for eng.Step() {
		}
	}
	if drv.Polls.Value() != int64(b.N) || drv.Delivered.Value() != 64*int64(b.N) {
		b.Fatalf("%d polls delivered %d frames, want %d and %d",
			drv.Polls.Value(), drv.Delivered.Value(), b.N, 64*b.N)
	}
}

// BenchmarkLayerSoftIRQRun is one caller-owned Work run in softirq context
// on an idle core and completed.
func BenchmarkLayerSoftIRQRun(b *testing.B) {
	b.ReportAllocs()
	eng, k, _, _ := benchNode(func(p *netsim.Packet, _ int) { p.Release() })
	s := k.NewSoftIRQ("net_rx", 1, 3100, func() {})
	runs := 0
	w := &cpu.Work{OnDone: func() { runs++ }}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Cycles = 6200
		s.Run(w)
		for eng.Step() {
		}
	}
	if runs != b.N {
		b.Fatalf("ran %d of %d", runs, b.N)
	}
}

// BenchmarkLayerCoreTransitions is one sleep cycle of one core of a
// 4-core chip under the menu governor: wake from the C-state the governor
// chose, run a work item, complete it, and go idle again (the governor's
// selection), with 200 µs of idle time before the next submission. Every
// transition re-prices the core and feeds the package energy meter.
func BenchmarkLayerCoreTransitions(b *testing.B) {
	b.ReportAllocs()
	eng := sim.NewEngine()
	tab := power.DefaultTable()
	chip := cpu.New(eng, 4, tab, power.DefaultModel(), tab.Max())
	menu := governor.NewMenu(chip, nil)
	for _, c := range chip.Cores() {
		c.SetIdleDecider(menu)
	}
	core0 := chip.Core(0)
	runs := 0
	w := &cpu.Work{Prio: cpu.PrioTask, OnDone: func() { runs++ }}
	cycle := func() {
		w.Cycles = 6200
		core0.Submit(w)
		eng.Run(eng.Now() + 200*sim.Microsecond)
	}
	cycle() // the first item finds core 0 polling; it sleeps afterwards
	runs = 0
	core0.Wakes.Reset()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cycle()
	}
	if runs != b.N || core0.Wakes.Value() != int64(b.N) || !core0.Sleeping() {
		b.Fatalf("ran %d and woke %d times of %d (sleeping %v)", runs, core0.Wakes.Value(), b.N, core0.Sleeping())
	}
}

func BenchmarkReqMonitorInspect(b *testing.B) {
	m := core.NewReqMonitor()
	m.ProgramStrings("GET", "HEAD", "ge")
	payload := []byte("GET /index.html HTTP/1.1")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Inspect(payload)
	}
}

func BenchmarkDecisionEngineMITT(b *testing.B) {
	d := core.NewDecisionEngine(core.DefaultConfig(), maxFreqStub{}, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.OnMITTExpiry(sim.Time(i)*50*sim.Microsecond, int64(i%5), int64(i%2000), 50*sim.Microsecond)
	}
}

type maxFreqStub struct{}

func (maxFreqStub) AtMaxFreq() bool { return false }
func (maxFreqStub) AtMinFreq() bool { return false }

func BenchmarkFullSystemSimSecond(b *testing.B) {
	// Wall-clock cost of simulating the ncap.cons Apache server at low
	// load; the metric is simulated-vs-wall time.
	o := experiments.Quick()
	for i := 0; i < b.N; i++ {
		cfg := quickCfg(o, cluster.NcapCons, app.ApacheProfile(), 24_000)
		cluster.New(cfg).Run()
	}
}

// BenchmarkFleetE14 is the lightly loaded fleet row: one run of E14's
// 96-node fleet shape (64 servers and 32 clients across 4 racks and 2
// spines, NcapCons) at 1500 RPS per server, 1/16 of the load E14 runs.
// Its event mix is timer-heavy (MITT ticks are a quarter of its events);
// BenchmarkE14Cell is the row at E14's own load.
func BenchmarkFleetE14(b *testing.B) {
	benchFleet(b, 1500, 20*sim.Millisecond, 60*sim.Millisecond, 20*sim.Millisecond)
}

// BenchmarkE14Cell is one fleet4x16 Apache ncap.cons cell of E14 at its
// per-server load (the paper's low load, 24k RPS per server, 1.536M RPS
// across the fleet), on windows short enough for CI. At this load frame
// hops dominate: link deliveries are most of what the engine fires. CI
// runs it at a fixed -benchtime 5x, not the other rows' time budget.
func BenchmarkE14Cell(b *testing.B) {
	benchFleet(b, cluster.LoadRPS("apache", cluster.LowLoad), 10*sim.Millisecond, 20*sim.Millisecond, 5*sim.Millisecond)
}

// BenchmarkE11Cell is one E11 cell: Apache at medium load under
// ncap.cons on the degraded network (1% loss on the server link, a
// flapping client downlink, a slow client), on the 20/60/20 ms windows
// perfbench's ncapd-e11 sweep runs. Its server runs with duplicate
// suppression on, so its B/op row covers the served-response memory.
func BenchmarkE11Cell(b *testing.B) {
	b.ReportAllocs()
	cfg := cluster.DefaultConfig(cluster.NcapCons, app.ApacheProfile(), cluster.LoadRPS("apache", cluster.MediumLoad))
	cfg.Warmup, cfg.Measure, cfg.Drain = 20*sim.Millisecond, 60*sim.Millisecond, 20*sim.Millisecond
	cfg.Fault = experiments.DegradedSpec(0.01, cfg.Warmup+cfg.Measure+cfg.Drain)
	var res cluster.Result
	for i := 0; i < b.N; i++ {
		res = cluster.New(cfg).Run()
	}
	if res.Completed == 0 || res.DupResent+res.DupSuppressed == 0 {
		b.Fatalf("the cell exercised no duplicate suppression: %+v", res)
	}
}

// BenchmarkE11Sweep is the whole Apache E11 sweep perfbench's ncapd-e11
// runs: seven policies × three loss rates on the 20/60/20 ms windows,
// through a fresh one-worker runner pool per op. Unlike BenchmarkE11Cell,
// whose op builds one cluster on fresh memory, each job after the first
// runs on the storage its predecessor left, so its B/op row shows what a
// sweep allocates per job in steady state.
func BenchmarkE11Sweep(b *testing.B) {
	b.ReportAllocs()
	prof := app.ApacheProfile()
	warmup, measure, drain := 20*sim.Millisecond, 60*sim.Millisecond, 20*sim.Millisecond
	var jobs []runner.Job
	for _, loss := range experiments.E11LossRates() {
		for _, pol := range cluster.AllPolicies() {
			cfg := cluster.DefaultConfig(pol, prof, cluster.LoadRPS(prof.Name, cluster.MediumLoad))
			cfg.Warmup, cfg.Measure, cfg.Drain = warmup, measure, drain
			cfg.Fault = experiments.DegradedSpec(loss, warmup+measure+drain)
			jobs = append(jobs, runner.Job{Tag: fmt.Sprintf("%s/%g", pol, loss), Config: cfg})
		}
	}
	for i := 0; i < b.N; i++ {
		for _, out := range runner.New(runner.Options{Jobs: 1}).Run(jobs) {
			if out.Err != nil || out.Result.Completed == 0 {
				b.Fatalf("%s: %v (completed %d)", out.Job.Tag, out.Err, out.Result.Completed)
			}
		}
	}
}

// benchFleet runs the E14 fleet shape (topology.Fleet(4, 2, 16, 8)) with
// Apache under NcapCons at perServer RPS per server, on the given windows.
func benchFleet(b *testing.B, perServer float64, warmup, measure, drain sim.Duration) {
	b.ReportAllocs()
	spec := topology.Fleet(4, 2, 16, 8)
	cfg := cluster.DefaultConfig(cluster.NcapCons, app.ApacheProfile(), perServer*float64(spec.Servers()))
	cfg.Warmup, cfg.Measure, cfg.Drain = warmup, measure, drain
	cfg.Topology = spec
	var res cluster.Result
	for i := 0; i < b.N; i++ {
		res = cluster.New(cfg).Run()
	}
	if res.Completed == 0 {
		b.Fatal("fleet served nothing")
	}
}

func quickCfg(o experiments.Options, pol cluster.Policy, prof app.Profile, load float64) cluster.Config {
	cfg := cluster.DefaultConfig(pol, prof, load)
	cfg.Warmup, cfg.Measure, cfg.Drain = o.Warmup, o.Measure, o.Drain
	cfg.Seed = o.Seed
	return cfg
}

func meanOf(s *stats.TimeSeries) float64 {
	if len(s.Points) == 0 {
		return 0
	}
	var sum float64
	for _, p := range s.Points {
		sum += p.V
	}
	return sum / float64(len(s.Points))
}

func minOf(s *stats.TimeSeries) float64 {
	if len(s.Points) == 0 {
		return 0
	}
	min := s.Points[0].V
	for _, p := range s.Points {
		if p.V < min {
			min = p.V
		}
	}
	return min
}
