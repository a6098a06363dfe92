package cluster

import (
	"encoding/json"
	"testing"

	"ncap/internal/app"
	"ncap/internal/fault"
	"ncap/internal/sim"
	"ncap/internal/topology"
)

func auditQuickCfg(policy Policy, load float64) Config {
	cfg := DefaultConfig(policy, app.ApacheProfile(), load)
	cfg.Warmup = 10 * sim.Millisecond
	cfg.Measure = 30 * sim.Millisecond
	cfg.Drain = 10 * sim.Millisecond
	return cfg
}

// fleetTestConfig shapes a fleet run small enough for the unit suite
// (the full 64-server E14 windows live in the benchmark and CI smoke).
func fleetTestConfig(spec *topology.Spec, perServer float64) Config {
	cfg := shortConfig(NcapCons, app.ApacheProfile(), perServer*float64(spec.Servers()))
	cfg.Warmup = 20 * sim.Millisecond
	cfg.Measure = 60 * sim.Millisecond
	cfg.Drain = 20 * sim.Millisecond
	cfg.Topology = spec
	return cfg
}

// TestAuditResultByteIdentical: auditing is pure observation — the same
// config produces a byte-identical Result (Events included) with the
// auditor on or off, for every policy family.
func TestAuditResultByteIdentical(t *testing.T) {
	for _, pol := range []Policy{Perf, OndIdle, NcapSW, NcapAggr} {
		cfg := auditQuickCfg(pol, 24_000)
		plain := New(cfg).Run()
		cfg.Audit = true
		audited := New(cfg).Run()
		a, _ := json.Marshal(plain)
		b, _ := json.Marshal(audited)
		if string(a) != string(b) {
			t.Fatalf("%s: audited result differs:\n%s\n%s", pol, a, b)
		}
	}
}

// TestAuditFleetPeaksByteIdentical pins the switch-queue high-water
// contract on a compiled topology: PeakQueueBytes is a whole-run
// maximum, never reset at the measurement boundary or between audit
// epochs, so an audited fleet Result (peaks included) is byte-identical
// to an unaudited one — the audit's post-collection grace window cannot
// leak into the snapshot.
func TestAuditFleetPeaksByteIdentical(t *testing.T) {
	cfg := fleetTestConfig(topology.Rack(8, 4), 1500)
	plain := New(cfg).Run()
	var peak int
	for _, sw := range plain.Switches {
		if sw.PeakQueueBytes > peak {
			peak = sw.PeakQueueBytes
		}
	}
	if peak == 0 {
		t.Fatal("no switch ever queued a byte; the test proves nothing")
	}
	cfg.Audit = true
	audited := New(cfg).Run()
	a, _ := json.Marshal(plain)
	b, _ := json.Marshal(audited)
	if string(a) != string(b) {
		t.Fatalf("audited fleet result differs:\n%s\n%s", a, b)
	}
}

// TestAuditCleanAcrossPolicies: unmutated simulations run violation-free
// with the auditor watching, including a deliberately degraded fabric —
// fault drops, FCS corruption and duplicate frames all balance in the
// conservation ledger.
func TestAuditCleanAcrossPolicies(t *testing.T) {
	for _, pol := range []Policy{Perf, OndIdle, NcapSW, NcapCons, NcapAggr} {
		cfg := auditQuickCfg(pol, 24_000)
		cfg.Audit = true
		cl := New(cfg)
		cl.Run()
		if vs := cl.AuditViolations(); len(vs) != 0 {
			t.Fatalf("%s: violations on a clean run: %v", pol, vs)
		}
	}
}

// A stopped client's next burst tick is a period away, and at low load
// or with many clients the period outlasts the drain and the audit's
// grace window. Those ticks must not count against quiescence.
func TestAuditCleanWithLongBurstPeriod(t *testing.T) {
	cfg := auditQuickCfg(NcapCons, 3000)
	cfg.Clients = 20 // period = 200 × 20 / 3000 rps ≈ 1.3 s
	cfg.Audit = true
	cl := New(cfg)
	cl.Run()
	if vs := cl.AuditViolations(); len(vs) != 0 {
		t.Fatalf("violations on a clean long-period run: %v", vs)
	}
}

func TestAuditCleanOnFaultedFabric(t *testing.T) {
	cfg := auditQuickCfg(NcapCons, 24_000)
	cfg.Audit = true
	cfg.Fault.Links = []fault.LinkFault{{
		Node: uint32(ServerAddr), Dir: fault.Both,
		Model: fault.Model{P: 0.05, CorruptP: 0.02, DupP: 0.02},
	}}
	cl := New(cfg)
	res := cl.Run()
	if res.FaultDrops == 0 && res.CorruptDrops == 0 && res.FaultDups == 0 {
		t.Fatal("fault injection inactive; the test proves nothing")
	}
	if vs := cl.AuditViolations(); len(vs) != 0 {
		t.Fatalf("violations on a faulted-but-correct run: %v", vs)
	}
}

// TestAuditViolationsEmptyWhenOff: without opt-in (and without the audit
// build tag forcing strict mode) no violations are collected.
func TestAuditViolationsEmptyWhenOff(t *testing.T) {
	cl := New(auditQuickCfg(Perf, 24_000))
	cl.Run()
	if vs := cl.AuditViolations(); len(vs) != 0 {
		t.Fatalf("violations without auditing: %v", vs)
	}
}
