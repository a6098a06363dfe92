package experiments

import (
	"encoding/json"
	"reflect"
	"testing"

	"ncap/internal/app"
	"ncap/internal/cluster"
	"ncap/internal/fault"
	"ncap/internal/runner"
	"ncap/internal/sim"
	"ncap/internal/topology"
	"ncap/internal/workload"
)

// TestConfigJSONRoundTrip: a config survives the JSON round trip a remote
// ncapd worker makes (it decodes the lease's config), with the same cache
// key and a deep-equal Result. The device fields a cluster derives from
// its own options (the NIC's queue count, the driver's TOE factor) are not
// serialized, so this guards that every server still derives them; the
// E11 case guards the fault spec's inline per-link JSON. Where a case
// names its option, the decoded config must run differently with that
// option cleared.
func TestConfigJSONRoundTrip(t *testing.T) {
	o := Options{Warmup: 5 * sim.Millisecond, Measure: 20 * sim.Millisecond, Drain: 5 * sim.Millisecond, Seed: 1}
	apache, memcached := app.ApacheProfile(), app.MemcachedProfile()
	for _, tc := range []struct {
		name string
		cfg  cluster.Config
		off  func(*cluster.Config) // clears the case's option, if it has one
	}{
		{"queues4-percore", configFor(o, cluster.NcapAggr, memcached, 35_000, func(c *cluster.Config) {
			c.Queues, c.PerCoreDVFS = 4, true
		}), func(c *cluster.Config) { c.Queues = 0 }},
		{"toe", configFor(o, cluster.NcapCons, apache, 45_000, func(c *cluster.Config) { c.TOE = true }),
			func(c *cluster.Config) { c.TOE = false }},
		{"fcons3", configFor(o, cluster.NcapCons, apache, 24_000, func(c *cluster.Config) { c.FCONS = 3 }),
			func(c *cluster.Config) { c.FCONS = 0 }},
		{"e13-spec", configFor(o, cluster.NcapCons, apache, 66_000, func(c *cluster.Config) {
			c.Overload = E13Spec(apache)
			c.Traffic = &workload.Spec{Scenario: E13Scenarios()[1]}
		}), nil},
		{"e12-scenario", configFor(o, cluster.NcapAggr, apache, 24_000, func(c *cluster.Config) {
			c.Traffic = &workload.Spec{Scenario: E12Scenarios()[1]}
		}), nil},
		{"rack2x2", configFor(o, cluster.NcapCons, apache, 48_000, func(c *cluster.Config) {
			c.Topology = topology.Rack(2, 2)
		}), nil},
		{"e11-faults", configFor(o, cluster.NcapCons, apache, 24_000, func(c *cluster.Config) {
			c.Fault = DegradedSpec(0.01, c.Warmup+c.Measure+c.Drain)
		}), func(c *cluster.Config) { c.Fault = fault.Spec{} }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			blob, err := json.Marshal(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			var back cluster.Config
			if err := json.Unmarshal(blob, &back); err != nil {
				t.Fatal(err)
			}
			a, b := runner.Job{Config: tc.cfg}, runner.Job{Config: back}
			if a.Key() != b.Key() {
				t.Fatalf("round trip moved the key: %s → %s", a.Key(), b.Key())
			}
			want, got := cluster.New(tc.cfg).Run(), cluster.New(back).Run()
			if want.Completed == 0 {
				t.Fatal("the original config completed no requests")
			}
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("round-tripped config ran differently:\n want %+v\n  got %+v", want, got)
			}
			if tc.off != nil {
				off := back
				tc.off(&off)
				if reflect.DeepEqual(got, cluster.New(off).Run()) {
					t.Fatal("the decoded config runs the same with its option cleared")
				}
			}
		})
	}
}
