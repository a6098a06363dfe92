// E14 — "From the star to the rack": the topology study. The paper
// evaluates one server behind one switch; E14 compiles the declarative
// topology API (internal/topology) into a rack of 16 servers behind a
// top-of-rack switch, then 4 such racks behind a 2-spine ECMP tier, and
// sweeps all seven power policies over each shape. The aggregate load
// scales with the server count (the paper's per-server low-load operating
// point), so every server sees the same utilization the star's server
// does and policy effects compose rather than saturate. The rollups make
// the fabric visible: per-group energy and tail latency, worst-case hops
// (1 inside a rack, 3 across the spine), and per-switch queue peaks.
package experiments

import (
	"fmt"
	"io"

	"ncap/internal/app"
	"ncap/internal/cluster"
	"ncap/internal/topology"
)

// E14Shape is one evaluated cluster shape.
type E14Shape struct {
	Name string
	Spec *topology.Spec
}

// E14Shapes returns the evaluated shapes: the rack-of-16 building block
// and the 4-rack, 2-spine fleet (64 servers, 32 clients).
func E14Shapes() []E14Shape {
	return []E14Shape{
		{Name: "rack16", Spec: topology.Rack(16, 8)},
		{Name: "fleet4x16", Spec: topology.Fleet(4, 2, 16, 8)},
	}
}

// TopologyRow is one shape × policy cell.
type TopologyRow struct {
	Shape   string
	Servers int
	Policy  cluster.Policy
	Result  cluster.Result
	Err     string
}

// TopologySweep runs E14 for one workload: every shape × every policy,
// one batch, deterministic row order. Load is the paper's per-server low
// level times the shape's server count.
func TopologySweep(o Options, prof app.Profile) []TopologyRow {
	perServer := cluster.LoadRPS(prof.Name, cluster.LowLoad)
	pols := cluster.AllPolicies()
	var cfgs []cluster.Config
	var rows []TopologyRow
	for _, sh := range E14Shapes() {
		spec := sh.Spec
		load := perServer * float64(spec.Servers())
		for _, pol := range pols {
			cfgs = append(cfgs, configFor(o, pol, prof, load,
				func(c *cluster.Config) { c.Topology = spec }))
			rows = append(rows, TopologyRow{Shape: sh.Name, Servers: spec.Servers(), Policy: pol})
		}
	}
	for i, oc := range runBatchOutcomes(o, "e14", cfgs) {
		rows[i].Result = oc.Result
		if oc.Err != nil {
			rows[i].Err = oc.Err.Error()
		}
	}
	return rows
}

// RenderTopology runs and writes the E14 table for one workload
// (ncapsweep -exp e14).
func RenderTopology(w io.Writer, o Options, prof app.Profile) {
	fmt.Fprintf(w, "# E14 — %s on compiled topologies: rack-of-16 and 4-rack/2-spine fleet, per-server low load\n", prof.Name)
	fmt.Fprintf(w, "# W/srv = fleet energy over the window per server; hops = worst client request path; peakq = worst switch egress backlog\n")
	fmt.Fprintf(w, "%-10s %4s %-10s %9s %8s %9s %9s %4s %9s %6s\n",
		"shape", "srv", "policy", "served/s", "E(J)", "W/srv", "p99(ms)", "hops", "peakq(B)", "unrt")
	for _, r := range TopologySweep(o, prof) {
		if r.Err != "" {
			fmt.Fprintf(w, "%-10s %4d %-10s FAILED: %s\n",
				r.Shape, r.Servers, r.Policy, firstLine(r.Err))
			continue
		}
		res := r.Result
		hops := 0
		var peak int
		for _, g := range res.Groups {
			if g.Hops > hops {
				hops = g.Hops
			}
		}
		for _, sw := range res.Switches {
			if sw.PeakQueueBytes > peak {
				peak = sw.PeakQueueBytes
			}
		}
		fmt.Fprintf(w, "%-10s %4d %-10s %9.0f %8.2f %9.2f %9.3f %4d %9d %6d\n",
			r.Shape, r.Servers, r.Policy,
			res.ServedRPS, res.EnergyJ, res.AvgPowerW/float64(r.Servers),
			res.Latency.P99.Millis(), hops, peak, res.Unroutable)
	}
	fmt.Fprintln(w)
}
