package cluster

import (
	"reflect"
	"strings"
	"testing"

	"ncap/internal/app"
	"ncap/internal/sim"
	"ncap/internal/telemetry"
)

func telemetryConfig() Config {
	cfg := DefaultConfig(NcapAggr, app.ApacheProfile(), 3000)
	cfg.Warmup = 20 * sim.Millisecond
	cfg.Measure = 60 * sim.Millisecond
	cfg.Drain = 20 * sim.Millisecond
	return cfg
}

// Telemetry is pure observation: attaching a sink must not change the
// Result in any field — same event count, same latencies, same energy.
func TestTelemetryDoesNotPerturbResult(t *testing.T) {
	plain := New(telemetryConfig()).Run()

	cfg := telemetryConfig()
	cfg.Telemetry = telemetry.New(telemetry.Options{})
	observed := New(cfg).Run()

	if !reflect.DeepEqual(plain, observed) {
		t.Fatalf("telemetry perturbed the simulation:\noff: %+v\non:  %+v", plain, observed)
	}
}

// The bulk sender sits at its own address past the star's clients, so
// Validate caps the client count below it: 98 clients would give client
// 97 the bulk sender's address (and duplicate its telemetry names), while
// 97 clients build and run with every link registered.
func TestBulkSenderAddressFitsStar(t *testing.T) {
	cfg := telemetryConfig()
	cfg.BulkBps = 1e6
	cfg.Clients = 98
	if err := cfg.Validate(); err == nil || !strings.Contains(err.Error(), "BulkBps") {
		t.Fatalf("98 clients with a bulk sender must be rejected: %v", err)
	}
	cfg.Clients = 97
	cfg.Telemetry = telemetry.New(telemetry.Options{})
	res := New(cfg).Run()
	if res.Completed == 0 {
		t.Fatal("97-client star with a bulk sender completed no request")
	}
}

// The registry must expose the documented component hierarchy under
// stable dotted names, and the dump must agree with the Result where the
// two count the same whole-run quantity.
func TestTelemetryRegistryNames(t *testing.T) {
	cfg := telemetryConfig()
	tel := telemetry.New(telemetry.Options{})
	cfg.Telemetry = tel
	res := New(cfg).Run()

	samples := tel.Registry().Export()
	byName := map[string]telemetry.Sample{}
	for _, s := range samples {
		byName[s.Name] = s
	}
	for _, name := range []string{
		"server.cpu.freq_mhz",
		"server.cpu.energy_j",
		"server.cpu.core0.busy_ns",
		"server.cpu.core0.cstate.c6.residency_ns",
		"server.kernel.hardirqs",
		"server.nic.rx.packets",
		"server.nic.irqs",
		"server.nic.itr.fires",
		"server.nic.q0.ncap.highs",
		"server.driver.boosts",
		"server.app.served",
		"client0.rtt_ns",
		"client0.sent",
	} {
		if _, ok := byName[name]; !ok {
			t.Errorf("metric %q not registered", name)
		}
	}
	// Whole-run counters can only exceed the measurement-window Result.
	if irqs := byName["server.nic.irqs"].Value; irqs < float64(res.IRQs) {
		t.Errorf("whole-run irqs %v < measured-window irqs %d", irqs, res.IRQs)
	}
	if res.Boosts == 0 {
		t.Fatal("quick ncap.aggr run produced no boosts; registry check is vacuous")
	}

	// Export is sorted by name, so dumps are byte-comparable.
	for i := 1; i < len(samples); i++ {
		if samples[i-1].Name >= samples[i].Name {
			t.Fatalf("export unsorted: %q before %q", samples[i-1].Name, samples[i].Name)
		}
	}

	// The event trace saw the run's power transitions.
	kinds := map[string]bool{}
	for _, e := range tel.Trace().Events() {
		kinds[e.Comp+"."+e.Kind] = true
	}
	for _, k := range []string{"cpu.cstate.enter", "cpu.cstate.exit", "cpu.pstate.set", "nic.irq", "driver.boost"} {
		if !kinds[k] {
			t.Errorf("no %q events emitted", k)
		}
	}
	if !strings.HasPrefix(telemetry.EventsSchema, "ncap-events-") {
		t.Fatalf("events schema %q not versioned", telemetry.EventsSchema)
	}
}
