package cluster

import (
	"encoding/json"
	"strings"
	"testing"

	"ncap/internal/app"
	"ncap/internal/resilience"
)

// resilientSpec is the full overload-protection stack the E13 study runs
// under, sized for the short test windows.
func resilientSpec(prof app.Profile) *resilience.Spec {
	return &resilience.Spec{
		QueueCap:         256,
		Admit:            resilience.AdmitDeadline,
		Deadline:         2 * PaperSLA(prof.Name),
		RetryBudget:      0.1,
		BreakerThreshold: 8,
		JitterBackoff:    true,
		DedupCap:         1024,
	}
}

// TestOverloadConfigCacheIdentity: a config without overload knobs
// serializes without any Overload key, so content-addressed cache keys
// predating this feature still match.
func TestOverloadConfigCacheIdentity(t *testing.T) {
	blob, err := json.Marshal(DefaultConfig(NcapAggr, app.ApacheProfile(), 10_000))
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(blob), "Overload") {
		t.Fatalf("nil overload spec leaked into the config serialization:\n%s", blob)
	}
}

// TestOverloadInertSpecByteIdentity: an all-zero spec switches on the
// overload accounting but takes every legacy code path — apart from the
// observability fields, the Result is byte-identical to a nil-spec run.
func TestOverloadInertSpecByteIdentity(t *testing.T) {
	cfg := shortConfig(NcapAggr, app.MemcachedProfile(), 35_000)
	plain := New(cfg).Run()
	cfg.Overload = &resilience.Spec{}
	inert := New(cfg).Run()
	if inert.Shed|inert.Rejected|inert.DeadlineExceeded|inert.BudgetDenied|
		inert.BreakerDropped|inert.QueuePeak != 0 {
		t.Fatalf("inert spec activated overload machinery: %+v", inert)
	}
	// Only the derived observability fields may differ.
	inert.RetryAmp = 0
	inert.RecoveryNs = 0
	a, _ := json.Marshal(plain)
	b, _ := json.Marshal(inert)
	if string(a) != string(b) {
		t.Fatalf("inert overload spec changed the simulation:\n%s\n%s", a, b)
	}
}

// TestOverloadBoundedAtDoubleCapacity: with the resilience stack on, a
// 2×-capacity run stays bounded — the queue never exceeds its cap, the
// server keeps doing useful work, and the load shedding is visibly
// active. Run twice to pin determinism under overload.
func TestOverloadBoundedAtDoubleCapacity(t *testing.T) {
	prof := app.MemcachedProfile()
	cfg := shortConfig(NcapAggr, prof, 2*LoadRPS(prof.Name, HighLoad))
	cfg.Overload = resilientSpec(prof)
	res := New(cfg).Run()
	if res.QueuePeak > int64(cfg.Overload.EffQueueCap()) {
		t.Fatalf("queue peaked at %d, cap is %d", res.QueuePeak, cfg.Overload.EffQueueCap())
	}
	if res.Completed == 0 {
		t.Fatal("no goodput at 2× capacity with admission control on")
	}
	if res.Shed+res.Rejected == 0 {
		t.Fatal("no shedding at 2× capacity; overload protection inactive")
	}
	if res.RetryAmp < 1 {
		t.Fatalf("retry amplification = %v, want >= 1", res.RetryAmp)
	}
	again := New(cfg).Run()
	a, _ := json.Marshal(res)
	b, _ := json.Marshal(again)
	if string(a) != string(b) {
		t.Fatalf("overloaded run is nondeterministic:\n%s\n%s", a, b)
	}
}

// TestOverloadOpenLoopCollapse: every knob off at 2× capacity reproduces
// the metastable failure — retries amplify the offered load and the
// server never drains back to idle (the RecoveryNs == -1 signature).
func TestOverloadOpenLoopCollapse(t *testing.T) {
	prof := app.MemcachedProfile()
	cfg := shortConfig(NcapAggr, prof, 2*LoadRPS(prof.Name, HighLoad))
	cfg.Overload = &resilience.Spec{} // inert: measure the collapse, don't prevent it
	res := New(cfg).Run()
	if res.RetryAmp < 1.2 {
		t.Fatalf("retry amplification = %v, want the storm (>1.2)", res.RetryAmp)
	}
	if res.RecoveryNs != -1 {
		t.Fatalf("recovery = %v, want -1 (never drained)", res.RecoveryNs)
	}
}

// TestOverloadAuditClean: the auditor's packet-conservation ledger must
// balance through rejects and sheds — every dropped request packet is
// released, none leak, even at 2× capacity.
func TestOverloadAuditClean(t *testing.T) {
	prof := app.ApacheProfile()
	cfg := auditQuickCfg(NcapCons, 2*LoadRPS(prof.Name, HighLoad))
	cfg.Overload = resilientSpec(prof)
	cfg.Audit = true
	cl := New(cfg)
	res := cl.Run()
	if res.Shed+res.Rejected == 0 {
		t.Fatal("no shedding; the conservation check proves nothing")
	}
	if vs := cl.AuditViolations(); len(vs) != 0 {
		t.Fatalf("violations on an overloaded-but-correct run: %v", vs)
	}
}
