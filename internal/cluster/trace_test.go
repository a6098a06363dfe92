package cluster

import (
	"reflect"
	"strings"
	"testing"

	"ncap/internal/app"
	"ncap/internal/cpu"
	"ncap/internal/netsim"
	"ncap/internal/nic"
	"ncap/internal/power"
	"ncap/internal/sim"
	"ncap/internal/telemetry"
)

// Tracing is pure observation: the traced Result, its Trace cleared,
// equals the untraced one field for field (Events included), and the
// Trace reads the same whether the run's registry is the telemetry sink
// or the private one tracing builds without it.
func TestTraceDoesNotPerturbResult(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
	}{
		{"ond.idle-star", shortConfig(OndIdle, app.ApacheProfile(), 24_000)},
		{"ncap.sw-star", shortConfig(NcapSW, app.MemcachedProfile(), 35_000)},
		{"ncap.aggr-queues4-percore", func() Config {
			cfg := shortConfig(NcapAggr, app.MemcachedProfile(), 35_000)
			cfg.Queues, cfg.PerCoreDVFS = 4, true
			return cfg
		}()},
		{"fleet-2x2x2x2", fleetConfig(NcapAggr, app.MemcachedProfile(), 35_000)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			plain := New(tc.cfg).Run()

			cfg := tc.cfg
			cfg.TraceInterval = 500 * sim.Microsecond
			traced := New(cfg).Run()
			cfg.Telemetry = telemetry.New(telemetry.Options{})
			observed := New(cfg).Run()

			if traced.Trace == nil || len(traced.Trace.Freq.Points) == 0 {
				t.Fatal("traced run has no trace")
			}
			if !reflect.DeepEqual(traced.Trace, observed.Trace) {
				t.Fatal("trace differs with telemetry on and off")
			}
			traced.Trace = nil
			if !reflect.DeepEqual(plain, traced) {
				t.Fatalf("tracing perturbed the simulation:\noff: %+v\non:  %+v", plain, traced)
			}
		})
	}
}

// traceRig is a bare 4-core chip and NIC registered as node "server",
// with a trace sampler over them at a 1 ms interval.
func traceRig() (*sim.Engine, *cpu.Chip, *nic.NIC, *telemetry.Sampler) {
	eng := sim.NewEngine()
	tab := power.DefaultTable()
	chip := cpu.New(eng, 4, tab, power.DefaultModel(), tab.Max())
	dev := nic.New(eng, 1, nic.DefaultConfig())
	dev.SetIRQ(func() {})
	reg := telemetry.NewRegistry()
	chip.RegisterTelemetry(reg, nil, "server.cpu")
	dev.RegisterTelemetry(reg, nil, "server.nic")
	return eng, chip, dev, reg.Sampler(eng, sim.Millisecond, traceNames("server", 4, nil)...)
}

func TestTraceAlignedSeries(t *testing.T) {
	eng, _, _, s := traceRig()
	s.Start()
	eng.Run(10 * sim.Millisecond)
	series := buildTrace(s, 4).Series()
	if len(series) != 8 {
		t.Fatalf("series = %d, want 8", len(series))
	}
	for _, ts := range series {
		if len(ts.Points) != 10 {
			t.Fatalf("%s has %d points, want 10", ts.Name, len(ts.Points))
		}
	}
}

func TestTraceBandwidthAndUtil(t *testing.T) {
	eng, chip, dev, s := traceRig()
	s.Start()
	// 1 ms of busy work on core 0 during the first interval, and one
	// received packet (186 wire bytes).
	chip.Core(0).Submit(&cpu.Work{Cycles: 3_100_000, Prio: cpu.PrioTask})
	dev.Receive(netsim.NewRequest(2, 1, 1, make([]byte, 120)))
	eng.Run(2 * sim.Millisecond)
	tr := buildTrace(s, 4)

	if got := tr.Util.Points[0].V; got < 0.24 || got > 0.26 {
		t.Fatalf("util[0] = %v, want 0.25 (1 of 4 cores busy)", got)
	}
	if got := tr.Util.Points[1].V; got != 0 {
		t.Fatalf("util[1] = %v, want 0", got)
	}
	wantBps := float64(186) / 0.001
	if got := tr.BWRx.Points[0].V; got != wantBps {
		t.Fatalf("bwrx[0] = %v, want %v", got, wantBps)
	}
}

type deepDecider struct{}

func (deepDecider) SelectIdleState(*cpu.Core) power.CState { return power.C6 }
func (deepDecider) OnWake(*cpu.Core, sim.Duration)         {}

func TestTraceCStateFractions(t *testing.T) {
	eng, chip, _, s := traceRig()
	// Park core 1 in C6 permanently.
	chip.Core(1).SetIdleDecider(deepDecider{})
	chip.Core(1).Submit(&cpu.Work{Cycles: 310, Prio: cpu.PrioTask})
	s.Start()
	eng.Run(5 * sim.Millisecond)
	// From the second interval on, core 1 is fully in C6: 1/4 of core time.
	if got := buildTrace(s, 4).TC6.Points[3].V; got < 0.24 || got > 0.26 {
		t.Fatalf("t_c6 = %v, want 0.25", got)
	}
}

func TestTraceFreqTracksChip(t *testing.T) {
	eng, chip, _, s := traceRig()
	s.Start()
	eng.ScheduleArg(1500*sim.Microsecond, func(any) { chip.SetPState(chip.Table().Min()) }, nil)
	eng.Run(3 * sim.Millisecond)
	tr := buildTrace(s, 4)
	if got := tr.Freq.Points[0].V; got != 3.1 {
		t.Fatalf("freq[0] = %v", got)
	}
	if got := tr.Freq.Points[2].V; got != 0.8 {
		t.Fatalf("freq[2] = %v", got)
	}
}

func TestTraceCSV(t *testing.T) {
	eng, _, _, s := traceRig()
	s.Start()
	eng.Run(2 * sim.Millisecond)
	var sb strings.Builder
	if err := buildTrace(s, 4).WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.HasPrefix(out, "time_ms,bw_rx_bytes_per_s,bw_tx_bytes_per_s,util,freq_ghz,t_c1,t_c3,t_c6,int_wake\n") {
		t.Fatalf("header = %q", strings.SplitN(out, "\n", 2)[0])
	}
	if got := strings.Count(out, "\n"); got != 3 {
		t.Fatalf("lines = %d, want header + 2 rows", got)
	}
}
