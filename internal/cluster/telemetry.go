package cluster

import (
	"fmt"
	"strings"
)

// registerTelemetry wires every component's metrics and event trace into
// the config's sink under stable dotted prefixes. Each cluster needs its
// own Telemetry instance — registering two clusters into one sink panics
// on the duplicate names, by design. A nil sink makes this a no-op: the
// components keep nil handles and every instrumentation call vanishes.
func (c *Cluster) registerTelemetry() {
	tel := c.cfg.Telemetry
	if !tel.Enabled() {
		return
	}
	reg, tr := tel.Registry(), tel.Trace()
	// Per-node prefixes come from the node label: "server" for node 0
	// (the star's historical names), "serverN" beyond it.
	for _, n := range c.nodes {
		p := n.label
		n.Chip.RegisterTelemetry(reg, tr, p+".cpu")
		n.Kernel.RegisterTelemetry(reg, p+".kernel")
		n.NIC.RegisterTelemetry(reg, tr, p+".nic")
		n.Driver.RegisterTelemetry(reg, tr, p+".driver")
		if n.Ond != nil {
			n.Ond.RegisterTelemetry(reg, p+".gov.ondemand")
		}
		if n.Menu != nil {
			n.Menu.RegisterTelemetry(reg, p+".gov.menu")
		}
		n.Server.RegisterTelemetry(reg, tr, p+".app")
	}
	for i, cl := range c.Clients {
		cl.RegisterTelemetry(reg, fmt.Sprintf("client%d", i))
	}
	for i, l := range c.faultLinks {
		name := strings.ReplaceAll(c.faultLinkNames[i], "/", ".")
		l.RegisterTelemetry(reg, tr, "link."+name)
	}
	for i, l := range c.trunks {
		name := strings.ReplaceAll(c.trunkNames[i], "/", ".")
		l.RegisterTelemetry(reg, tr, "trunk."+name)
	}
}
