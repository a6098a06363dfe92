package cluster

import (
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"ncap/internal/app"
	"ncap/internal/fault"
	"ncap/internal/sim"
	"ncap/internal/topology"
	"ncap/internal/workload"
)

// The compatibility contract behind the topology API: a nil Topology is
// the paper's star, so it runs exactly like the explicit Star(n) spec —
// same addresses, same RNG stream names, same wiring — and the two
// Results are equal once the rollup fields only an explicit spec reports
// are stripped. The nil run reports no rollups at all, which keeps its
// serialized Result byte-identical to the historical one.
func TestStarSpecMatchesLegacy(t *testing.T) {
	prof := app.ApacheProfile()
	variants := []struct {
		name  string
		apply func(*Config)
	}{
		{"plain", func(*Config) {}},
		{"faulted", func(c *Config) {
			slow := 200 * sim.Microsecond
			c.Fault = fault.Spec{Links: []fault.LinkFault{
				{Node: uint32(ClientAddr(0)), Dir: fault.FromNode, Model: fault.Model{ExtraDelay: slow}},
				{Node: uint32(ClientAddr(0)), Dir: fault.ToNode, Model: fault.Model{ExtraDelay: slow,
					Flaps: []fault.Window{{Start: 10 * sim.Millisecond, End: 15 * sim.Millisecond}}}},
				{Node: uint32(ServerAddr), Dir: fault.Both, Model: fault.Model{P: 0.01}},
			}}
		}},
		{"overload", func(c *Config) { c.Overload = resilientSpec(prof) }},
		{"diurnal", func(c *Config) {
			c.Traffic = &workload.Spec{Scenario: workload.Scenario{Name: workload.ScenarioDiurnal}}
		}},
		{"queues4-percore", func(c *Config) { c.Queues, c.PerCoreDVFS = 4, true }},
	}
	for _, clients := range []int{1, 3, 5} {
		for _, v := range variants {
			t.Run(fmt.Sprintf("clients%d/%s", clients, v.name), func(t *testing.T) {
				cfg := shortConfig(NcapCons, prof, 24_000)
				cfg.Clients = clients
				v.apply(&cfg)
				star := New(cfg).Run()
				cfg.Topology = topology.Star(clients)
				compiled := New(cfg).Run()

				if len(star.Groups) != 0 || len(star.Switches) != 0 || star.Unroutable != 0 {
					t.Fatalf("nil topology reported rollups: %d groups, %d switches, %d unroutable",
						len(star.Groups), len(star.Switches), star.Unroutable)
				}
				if len(compiled.Groups) != 2 || len(compiled.Switches) != 1 {
					t.Fatalf("star spec rollups: %d groups, %d switches", len(compiled.Groups), len(compiled.Switches))
				}
				if compiled.Unroutable != 0 {
					t.Fatalf("star spec dropped %d unroutable frames", compiled.Unroutable)
				}
				// Strip what only the explicit spec reports, then demand
				// exact equality.
				compiled.Groups, compiled.Switches = nil, nil
				if !reflect.DeepEqual(star, compiled) {
					t.Fatalf("Star(%d) diverged from the nil topology:\nnil  %+v\nspec %+v", clients, star, compiled)
				}
			})
		}
	}
}

// A nil Topology must serialize to exactly the historical config JSON —
// the runner's cache key is a hash over it, so any new key would orphan
// every cached result.
func TestNilTopologyOmittedFromConfigJSON(t *testing.T) {
	blob, err := json.Marshal(DefaultConfig(NcapCons, app.ApacheProfile(), 24_000))
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(blob), "Topology") {
		t.Fatalf("nil Topology leaked into config JSON: %s", blob)
	}
	cfg := DefaultConfig(NcapCons, app.ApacheProfile(), 24_000)
	cfg.Topology = topology.Star(3)
	blob, err = json.Marshal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(blob), `"Topology"`) {
		t.Fatalf("explicit Topology missing from config JSON: %s", blob)
	}
}

func fleetConfig(p Policy, prof app.Profile, perServer float64) Config {
	spec := topology.Fleet(2, 2, 2, 2)
	cfg := shortConfig(p, prof, perServer*float64(spec.Servers()))
	cfg.Topology = spec
	return cfg
}

// A compiled fleet is as deterministic as the star: same config, same
// Result, field for field.
func TestFleetDeterminism(t *testing.T) {
	run := func() Result {
		res := New(fleetConfig(NcapAggr, app.MemcachedProfile(), 35_000)).Run()
		res.Trace = nil
		return res
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same fleet config diverged:\n%+v\n%+v", a, b)
	}
}

// Sanity of the fleet rollups on a 2-rack/2-spine fleet: every group and
// switch reported, energy split across server groups summing to the fleet
// total, cross-rack clients seeing 3 switch hops, and no unroutable frames.
func TestFleetRollups(t *testing.T) {
	cfg := fleetConfig(NcapCons, app.ApacheProfile(), 24_000)
	res := New(cfg).Run()

	if res.Unroutable != 0 {
		t.Fatalf("fleet dropped %d unroutable frames", res.Unroutable)
	}
	if len(res.Groups) != 2 {
		t.Fatalf("groups = %d, want 2", len(res.Groups))
	}
	sv, cl := res.Groups[0], res.Groups[1]
	if sv.Name != "servers" || sv.Role != "server" || sv.Nodes != 4 {
		t.Fatalf("server group %+v", sv)
	}
	if cl.Name != "clients" || cl.Role != "client" || cl.Nodes != 4 {
		t.Fatalf("client group %+v", cl)
	}
	if sv.EnergyJ <= 0 || sv.AvgPowerW <= 0 {
		t.Fatalf("server group energy %+v", sv)
	}
	const tol = 1e-9
	if diff := sv.EnergyJ - res.EnergyJ; diff > tol || diff < -tol {
		t.Fatalf("group energy %.9f != fleet energy %.9f", sv.EnergyJ, res.EnergyJ)
	}
	if cl.Sent != res.Sent || cl.Completed != res.Completed {
		t.Fatalf("client group accounting %+v vs fleet Sent=%d Completed=%d", cl, res.Sent, res.Completed)
	}
	if cl.Latency.Count == 0 || cl.Hops != 3 {
		t.Fatalf("spread clients must cross the spine (hops=3, got %d) with latency samples", cl.Hops)
	}

	// 2 ToRs + 2 spines, in that order, all forwarding.
	if len(res.Switches) != 4 {
		t.Fatalf("switches = %d, want 4", len(res.Switches))
	}
	names := []string{"tor0", "tor1", "spine0", "spine1"}
	for i, sw := range res.Switches {
		if sw.Name != names[i] {
			t.Fatalf("switch %d = %q, want %q", i, sw.Name, names[i])
		}
		if sw.Unroutable != 0 {
			t.Fatalf("%s unroutable = %d", sw.Name, sw.Unroutable)
		}
	}
	if res.Switches[0].Forwarded == 0 || res.Switches[2].Forwarded == 0 {
		t.Fatal("ToR and spine tiers must both forward traffic")
	}
	if res.ServedRPS < cfg.LoadRPS*0.9 {
		t.Fatalf("fleet served %.0f of %.0f rps", res.ServedRPS, cfg.LoadRPS)
	}
}

// A client group with a Target fans its requests over that server group
// only; per-group core and NIC overrides change the key but not validity.
func TestTopologyTargetedClients(t *testing.T) {
	spec := &topology.Spec{
		Racks: 1,
		Groups: []topology.Group{
			{Name: "web", Role: topology.RoleServer, Count: 2},
			{Name: "db", Role: topology.RoleServer, Count: 1, Cores: 8},
			{Name: "front", Role: topology.RoleClient, Count: 2, Target: "web"},
		},
	}
	cfg := shortConfig(NcapCons, app.ApacheProfile(), 3*24_000)
	cfg.Topology = spec
	res := New(cfg).Run()
	if res.Unroutable != 0 {
		t.Fatalf("unroutable = %d", res.Unroutable)
	}
	var web, db GroupResult
	for _, g := range res.Groups {
		switch g.Name {
		case "web":
			web = g
		case "db":
			db = g
		}
	}
	if web.EnergyJ <= 0 {
		t.Fatalf("targeted web group burned no energy: %+v", web)
	}
	// The db group is untargeted: idle power only, strictly less than the
	// loaded web pair.
	if db.EnergyJ <= 0 || db.EnergyJ >= web.EnergyJ {
		t.Fatalf("idle db group energy %.3f vs loaded web %.3f", db.EnergyJ, web.EnergyJ)
	}
}

// Config.Validate surfaces topology errors and rejects combinations the
// compiled path does not model.
func TestConfigValidateTopology(t *testing.T) {
	cfg := DefaultConfig(NcapCons, app.ApacheProfile(), 24_000)
	cfg.Topology = &topology.Spec{Racks: 2}
	if err := cfg.Validate(); err == nil || !strings.Contains(err.Error(), "spine") {
		t.Fatalf("invalid topology escaped Config.Validate: %v", err)
	}
	cfg = DefaultConfig(NcapCons, app.ApacheProfile(), 24_000)
	cfg.Topology = topology.Star(3)
	cfg.BulkBps = 1
	if err := cfg.Validate(); err == nil || !strings.Contains(err.Error(), "Bulk") {
		t.Fatalf("bulk + topology must be rejected: %v", err)
	}
}
