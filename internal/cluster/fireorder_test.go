package cluster

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"reflect"
	"testing"

	"ncap/internal/app"
	"ncap/internal/audit"
	"ncap/internal/fault"
	"ncap/internal/sim"
	"ncap/internal/topology"
)

// fireOrderDigests pins the FNV-64a digest of every fired event key of
// the fire-order panel.
const fireOrderDigests = "testdata/fire_order.fnv64"

// fireOrderConfigs is the fire-order panel: the paper's star, a faulted
// star, a 16-server rack and a 2-rack fleet, named in a fixed order.
func fireOrderConfigs() (names []string, cfgs []Config) {
	star := shortConfig(NcapCons, app.ApacheProfile(), 24_000)

	// E11's degradation (a flapping client downlink and a slow client
	// node) plus a server link that loses, corrupts, duplicates and
	// reorders frames, so every injector verdict is exercised.
	faulted := shortConfig(NcapCons, app.ApacheProfile(), 24_000)
	horizon := faulted.Warmup + faulted.Measure + faulted.Drain
	var flaps []fault.Window
	for at := 10 * sim.Millisecond; at < horizon; at += 40 * sim.Millisecond {
		flaps = append(flaps, fault.Window{Start: at, End: at + 5*sim.Millisecond})
	}
	faulted.Fault = fault.Spec{Links: []fault.LinkFault{
		{Node: uint32(ClientAddr(2)), Dir: fault.Both, Model: fault.Model{ExtraDelay: 200 * sim.Microsecond}},
		{Node: uint32(ClientAddr(1)), Dir: fault.ToNode, Model: fault.Model{Flaps: flaps}},
		{Node: uint32(ServerAddr), Dir: fault.Both, Model: fault.Model{
			P: 0.01, CorruptP: 0.002, DupP: 0.002, ReorderP: 0.01, ReorderMax: 100 * sim.Microsecond,
		}},
	}}

	rack := shortConfig(NcapCons, app.ApacheProfile(), 1500*16)
	rack.Topology = topology.Rack(16, 8)

	return []string{"star", "star-faulted", "rack16", "fleet-2x2"},
		[]Config{star, faulted, rack, fleetConfig(NcapAggr, app.MemcachedProfile(), 35_000)}
}

// stepRun runs c through Cluster.Run's phases one event at a time,
// folding every fired (when, seq) key into an FNV-64a digest. measured
// counts the events stepped through in the warmup and measure phases.
func stepRun(c *Cluster) (res Result, digest string, measured uint64) {
	h := fnv.New64a()
	var buf [16]byte
	eng := c.Engine()
	phase := 0
	res = c.run(func(until sim.Time) uint64 {
		var n uint64
		for {
			k, ok := eng.StepUntil(until)
			if !ok {
				break
			}
			binary.LittleEndian.PutUint64(buf[:8], uint64(k.When()))
			binary.LittleEndian.PutUint64(buf[8:], k.Seq())
			h.Write(buf[:])
			n++
		}
		if extra := eng.Run(until); extra != 0 {
			panic(fmt.Sprintf("Run(%v) fired %d events after stepping", until, extra))
		}
		if phase++; phase <= 2 {
			measured += n
		}
		return n
	})
	return res, fmt.Sprintf("%016x", h.Sum64()), measured
}

// TestFireOrderDigest pins the engine's fire order itself, which output
// hashes only cover through the Results: every config of the panel is
// stepped through Run's phases and the digest of its fired keys must match
// the pin. The stepped Result must deep-equal Run's, so the stepped run
// cannot drift from the real phases, and its Events must be the events
// stepped through up to the measurement window's end. An audited build
// adds epoch events to the stream, so it checks the parity alone.
func TestFireOrderDigest(t *testing.T) {
	want := readDigests(t, fireOrderDigests)
	names, cfgs := fireOrderConfigs()
	for i, name := range names {
		stepped, got, measured := stepRun(New(cfgs[i]))
		t.Logf("%s: %d events, %d completed, fault drops/dups/delays %d/%d/%d", name, stepped.Events, stepped.Completed,
			stepped.FaultDrops, stepped.FaultDups, stepped.FaultDelays)
		if run := New(cfgs[i]).Run(); !reflect.DeepEqual(stepped, run) {
			t.Errorf("%s: stepped Result differs from Run's:\n%+v\nvs\n%+v", name, stepped, run)
		}
		if audit.Strict {
			continue
		}
		if want[name] != got {
			t.Errorf("%s: fire-order digest %s, pinned %q", name, got, want[name])
		}
		if stepped.Events != measured {
			t.Errorf("%s: Result.Events = %d, but warmup and measure stepped %d events", name, stepped.Events, measured)
		}
	}
}

// TestFireOrderDigestOnReusedStorage: every config of the fire-order
// panel, run on a storage whose previous run (the next config of the
// panel) was halted mid-measurement with events queued, requests
// outstanding and request jobs in service, fires exactly the pinned keys
// and gives New's Result.
func TestFireOrderDigestOnReusedStorage(t *testing.T) {
	want := readDigests(t, fireOrderDigests)
	names, cfgs := fireOrderConfigs()
	for i, name := range names {
		st := NewStorage()
		prev := NewWith(cfgs[(i+1)%len(cfgs)], st)
		eng := prev.Engine()
		halfway := prev.cfg.Warmup + prev.cfg.Measure/2
		var inService, outstanding int
		prev.run(func(until sim.Time) uint64 {
			for !eng.Halted() {
				k, ok := eng.StepUntil(until)
				if !ok {
					break
				}
				inService, outstanding = 0, 0
				for _, n := range prev.nodes {
					inService += n.Server.Inflight
				}
				for _, cl := range prev.Clients {
					outstanding += cl.Outstanding()
				}
				if k.When() >= halfway && inService > 0 && outstanding > 0 {
					eng.Halt()
				}
			}
			return 0
		})
		if !eng.Halted() || eng.Pending() == 0 {
			t.Fatalf("%s: the previous run was not halted with events queued", name)
		}
		stepped, got, _ := stepRun(NewWith(cfgs[i], st))
		if run := New(cfgs[i]).Run(); !reflect.DeepEqual(stepped, run) {
			t.Errorf("%s: Result on the reused storage differs from New's", name)
		}
		if !audit.Strict && want[name] != got {
			t.Errorf("%s: fire-order digest on the reused storage %s, pinned %q", name, got, want[name])
		}
	}
}
