package cluster

import (
	"runtime"
	"testing"

	"ncap/internal/app"
	"ncap/internal/audit"
	"ncap/internal/fault"
	"ncap/internal/sim"
	"ncap/internal/topology"
)

// maxAllocsPerRequest bounds heap allocations per completed request over
// a whole run. Every owner on the request path pools its per-request state
// (see DESIGN.md, "Per-request state ownership"), so what remains is
// amortized growth: free lists, maps and recorders filling up.
const maxAllocsPerRequest = 3

// TestRequestPathAllocs keeps the request path allocation-free: a client
// send, the server NIC, driver, kernel, CPU and application, and the
// response back. It counts mallocs across Run only, after New has built
// the cluster. It also bounds the bytes Run allocates per completed
// request, which is where a run's result state shows: latency samples are
// sized once and merged once at exact size, and the served-response
// memory reuses dead pages (DESIGN.md §1b, "Per-run result memory").
// Each bound is about 1.25x the bytes measured when it was set.
func TestRequestPathAllocs(t *testing.T) {
	if audit.Strict {
		t.Skip("the audit build's packet tracker allocates by design")
	}
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	faulted := shortConfig(NcapCons, app.ApacheProfile(), 24_000)
	faulted.Fault = fault.Spec{Links: []fault.LinkFault{ // E11's shape: a lossy server link, a flapping client link, a slow client
		{Node: uint32(ClientAddr(2)), Dir: fault.Both, Model: fault.Model{ExtraDelay: 200 * sim.Microsecond}},
		{Node: uint32(ClientAddr(1)), Dir: fault.ToNode, Model: fault.Model{
			Flaps: []fault.Window{{Start: 10 * sim.Millisecond, End: 15 * sim.Millisecond}}}},
		{Node: uint32(ServerAddr), Dir: fault.Both, Model: fault.Model{P: 0.01}},
	}}
	rack := shortConfig(NcapCons, app.ApacheProfile(), 16*1500)
	rack.Topology = topology.Rack(16, 8)
	for _, tc := range []struct {
		name     string
		cfg      Config
		maxBytes float64 // per completed request
	}{
		{"star", shortConfig(NcapCons, app.ApacheProfile(), 24_000), 111},
		{"faulted", faulted, 168},
		{"rack16", rack, 325},
	} {
		c := New(tc.cfg)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res := c.Run()
		runtime.ReadMemStats(&after)
		if tc.name == "faulted" && (res.FaultDrops == 0 || res.DupResent+res.DupSuppressed+res.Retransmits == 0) {
			t.Fatalf("%s: the fault spec did not exercise loss recovery: %+v", tc.name, res)
		}
		if res.Completed == 0 {
			t.Fatalf("%s: no request completed", tc.name)
		}
		per := float64(after.Mallocs-before.Mallocs) / float64(res.Completed)
		t.Logf("%s: %d mallocs over %d completed requests (%.2f per request)",
			tc.name, after.Mallocs-before.Mallocs, res.Completed, per)
		if per > maxAllocsPerRequest {
			t.Errorf("%s: %.2f allocations per request, want <= %d", tc.name, per, maxAllocsPerRequest)
		}
		bytes := float64(after.TotalAlloc-before.TotalAlloc) / float64(res.Completed)
		t.Logf("%s: %d bytes over %d completed requests (%.0f per request)",
			tc.name, after.TotalAlloc-before.TotalAlloc, res.Completed, bytes)
		if bytes > tc.maxBytes {
			t.Errorf("%s: %.0f bytes allocated per request, want <= %.0f", tc.name, bytes, tc.maxBytes)
		}
	}
}

// TestAuditedRequestPathAllocs: an audited run allocates like an unaudited
// one. The packet tracker keeps its owner maps, but its packets come from
// and return to the run's list, so the maps stop growing once the list
// holds the run's peak of live frames.
func TestAuditedRequestPathAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	const maxAudited = 2
	cfg := shortConfig(NcapCons, app.ApacheProfile(), 24_000)
	cfg.Audit = true
	c := New(cfg)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res := c.Run()
	runtime.ReadMemStats(&after)
	if vs := c.AuditViolations(); len(vs) != 0 {
		t.Fatalf("audited run reported %d violations, first: %s", len(vs), vs[0])
	}
	if res.Completed == 0 {
		t.Fatal("no request completed")
	}
	per := float64(after.Mallocs-before.Mallocs) / float64(res.Completed)
	t.Logf("%d mallocs over %d completed requests (%.2f per request)",
		after.Mallocs-before.Mallocs, res.Completed, per)
	if per > maxAudited {
		t.Errorf("%.2f allocations per request in an audited run, want <= %d", per, maxAudited)
	}
}
