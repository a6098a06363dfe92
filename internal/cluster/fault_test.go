package cluster

import (
	"reflect"
	"testing"

	"ncap/internal/app"
	"ncap/internal/fault"
	"ncap/internal/sim"
)

// lossyConfig attaches a moderately hostile fault spec to a short run.
func lossyConfig(p Policy, prof app.Profile, load float64) Config {
	cfg := shortConfig(p, prof, load)
	cfg.Fault = fault.Spec{
		Links: []fault.LinkFault{{
			Node: uint32(ServerAddr),
			Dir:  fault.Both,
			Model: fault.Model{
				P:          0.01,
				CorruptP:   0.002,
				DupP:       0.002,
				ReorderP:   0.01,
				ReorderMax: 100 * sim.Microsecond,
			},
		}},
	}
	return cfg
}

// TestInertFaultSpecIsByteIdentical is the backward-compatibility gate:
// a spec that perturbs nothing must leave the simulation on the exact
// fault-free code paths, reproducing historical results bit for bit.
func TestInertFaultSpecIsByteIdentical(t *testing.T) {
	base := shortConfig(NcapCons, app.ApacheProfile(), 24_000)
	inert := base
	inert.Fault = fault.Spec{Links: []fault.LinkFault{
		{Node: uint32(ServerAddr), Dir: fault.Both},
		{Node: uint32(ClientAddr(1)), Dir: fault.Both},
	}}
	if inert.Fault.Enabled() {
		t.Fatal("inert spec reports enabled")
	}
	a := New(base).Run()
	b := New(inert).Run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("inert fault spec changed the result:\n%+v\nvs\n%+v", a, b)
	}
}

// TestFaultedRunDeterministic: faults change the physics, not the
// reproducibility. Same config (spec included) → identical Result.
func TestFaultedRunDeterministic(t *testing.T) {
	cfg := lossyConfig(NcapAggr, app.MemcachedProfile(), 35_000)
	a := New(cfg).Run()
	b := New(cfg).Run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same faulted config diverged:\n%+v\nvs\n%+v", a, b)
	}
	seeded := cfg
	seeded.Seed = 999
	c := New(seeded).Run()
	if c.Latency.P95 == a.Latency.P95 && c.FaultDrops == a.FaultDrops {
		t.Fatal("different seeds produced identical faulted results")
	}
}

// TestLossRecoveryUnderFaults: the transport must absorb a hostile link —
// losses retransmitted, corruption dropped at the FCS, duplicates
// suppressed — and still complete the workload.
func TestLossRecoveryUnderFaults(t *testing.T) {
	res := New(lossyConfig(Perf, app.MemcachedProfile(), 35_000)).Run()
	if res.FaultDrops == 0 {
		t.Error("1% Bernoulli loss produced no wire drops")
	}
	if res.CorruptDrops == 0 {
		t.Error("corruption produced no FCS drops")
	}
	if res.FaultDups == 0 {
		t.Error("duplication produced no duplicate frames")
	}
	if res.Retransmits == 0 {
		t.Error("no retransmissions despite frame loss")
	}
	if res.DupSuppressed+res.DupResent == 0 {
		t.Error("server dedup absorbed nothing despite duplicated frames")
	}
	// Loss recovery has to actually recover: the client keeps the request
	// alive across RTOs, so nearly everything sent completes.
	wantMin := int64(35_000 * 0.150 * 0.9)
	if res.Completed < wantMin {
		t.Errorf("completed %d under faults, want >= %d", res.Completed, wantMin)
	}
	if res.Abandoned > res.Sent/20 {
		t.Errorf("abandoned %d of %d — recovery not working", res.Abandoned, res.Sent)
	}
}

// TestNodeCrashWindowRecovers: a transient node crash — a flap window on
// both of its links — loses everything in flight to and from it, then the
// client-side RTO path resynchronizes.
func TestNodeCrashWindowRecovers(t *testing.T) {
	cfg := shortConfig(Perf, app.MemcachedProfile(), 35_000)
	cfg.Fault = fault.Spec{Links: []fault.LinkFault{{
		Node: uint32(ClientAddr(1)),
		Dir:  fault.Both,
		Model: fault.Model{
			Flaps: []fault.Window{{Start: 80 * sim.Millisecond, End: 100 * sim.Millisecond}},
		},
	}}}
	res := New(cfg).Run()
	if res.FaultDrops == 0 {
		t.Fatal("crash window dropped nothing")
	}
	// The other two clients never stall and the crashed one recovers, so
	// the cluster still completes the bulk of its load.
	wantMin := int64(35_000) * 150 / 1000 * 3 / 4
	if res.Completed < wantMin {
		t.Fatalf("completed %d across a 20ms crash, want >= %d", res.Completed, wantMin)
	}
	if res.Retransmits == 0 {
		t.Fatal("no retransmissions after a crash window")
	}
}

func TestConfigValidateRejectsBadFaultSpec(t *testing.T) {
	cfg := DefaultConfig(Perf, app.ApacheProfile(), 24_000)
	cfg.Fault.Links = []fault.LinkFault{{Node: uint32(ServerAddr), Model: fault.Model{P: 1.5}}}
	if cfg.Validate() == nil {
		t.Fatal("out-of-range loss probability accepted")
	}
}

func TestClientAddrLayout(t *testing.T) {
	// The fault spec addresses nodes by netsim address; the helper must
	// agree with the topology (server at 1, clients following).
	if ClientAddr(0) == ServerAddr {
		t.Fatal("client 0 collides with the server address")
	}
	seen := map[uint32]bool{uint32(ServerAddr): true}
	for i := 0; i < 3; i++ {
		a := uint32(ClientAddr(i))
		if seen[a] {
			t.Fatalf("duplicate address %d", a)
		}
		seen[a] = true
	}
}
