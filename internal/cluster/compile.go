package cluster

import (
	"strconv"

	"ncap/internal/app"
	"ncap/internal/fault"
	"ncap/internal/netsim"
	"ncap/internal/sim"
	"ncap/internal/topology"
)

// compile is the graph compiler: it turns the config's topology — a
// declarative spec of node groups, rack (ToR) switches and an optional
// ECMP spine tier, the paper's star when Config.Topology is nil — into
// wired simulation components. Addresses are assigned from 1 in group
// declaration order, node by node, so the star's server is ServerAddr and
// client i is ClientAddr(i).
func (c *Cluster) compile() {
	cfg := c.cfg
	spec := cfg.spec()

	fwDelay := spec.FwDelay
	if fwDelay == 0 {
		fwDelay = topology.DefaultFwDelay
	}

	// Switch tiers. Switches() exposes them ToRs-first; trunkOwner below
	// indexes into that order.
	for r := 0; r < spec.Racks; r++ {
		sw := netsim.NewSwitch(c.eng, fwDelay)
		sw.SetName("tor" + strconv.Itoa(r))
		c.tors = append(c.tors, sw)
	}
	for s := 0; s < spec.Spines; s++ {
		sw := netsim.NewSwitch(c.eng, fwDelay)
		sw.SetName("spine" + strconv.Itoa(s))
		c.spines = append(c.spines, sw)
	}

	// Trunks: every ToR gets an uplink to every spine (its equal-cost
	// default routes — cross-rack flows ECMP-hash across them) and every
	// spine a downlink back to every ToR (bound to rack-local addresses
	// as nodes are placed). Without an explicit Uplink the trunks run at
	// 4× the access rate (the conventional 10G-access/40G-uplink rack):
	// at access rate a handful of cross-rack servers would saturate the
	// spine tier and every fleet experiment would measure the trunk, not
	// the policy.
	uplink := cfg.Link
	if spec.Link != nil {
		uplink = *spec.Link
	}
	if spec.Uplink != nil {
		uplink = *spec.Uplink
	} else {
		uplink.BandwidthBps *= 4
	}
	downTo := make([][]*netsim.Link, spec.Spines) // [spine][rack]
	for s, sp := range c.spines {
		downTo[s] = make([]*netsim.Link, spec.Racks)
		for r, tor := range c.tors {
			downTo[s][r] = sp.Connect(uplink, tor)
			c.addTrunk(downTo[s][r], "down/"+sp.Name()+"-"+tor.Name(), len(c.tors)+s)
		}
	}
	for r, tor := range c.tors {
		ups := make([]*netsim.Link, 0, spec.Spines)
		for _, sp := range c.spines {
			up := tor.Connect(uplink, sp)
			ups = append(ups, up)
			c.addTrunk(up, "up/"+tor.Name()+"-"+sp.Name(), r)
		}
		tor.SetDefaultRoutes(ups...)
	}

	// Placement plan: address and rack for every node, in declaration
	// order. Spread groups distribute round-robin across the racks.
	type placement struct {
		addr netsim.Addr
		rack int
	}
	plans := make([][]placement, len(spec.Groups))
	next := netsim.Addr(1)
	for gi := range spec.Groups {
		g := &spec.Groups[gi]
		ps := make([]placement, g.Count)
		for i := range ps {
			rack := g.Rack
			if g.Spread {
				rack = i % spec.Racks
			}
			ps[i] = placement{addr: next, rack: rack}
			next++
		}
		plans[gi] = ps
	}

	// Group rollup shells, in declaration order.
	for gi := range spec.Groups {
		g := &spec.Groups[gi]
		c.groups = append(c.groups, compiledGroup{name: g.Name, role: string(g.Role)})
	}

	accessLink := func(g *topology.Group) netsim.LinkConfig {
		if g.Link != nil {
			return *g.Link
		}
		if spec.Link != nil {
			return *spec.Link
		}
		return cfg.Link
	}

	// attach wires a node endpoint to its rack's ToR (both directions,
	// fault-injectable) and binds its address on every spine.
	attach := func(pl placement, link netsim.LinkConfig, node netsim.Receiver) *netsim.Link {
		tor := c.tors[pl.rack]
		up := c.faulted(netsim.NewLink(c.eng, link, tor), pl.addr, fault.FromNode)
		c.faulted(tor.Attach(pl.addr, link, node), pl.addr, fault.ToNode)
		for s := range c.spines {
			c.spines[s].AddRoute(pl.addr, downTo[s][pl.rack])
		}
		return up
	}

	// Server nodes, in declaration order.
	serversByGroup := map[string][]*Node{}
	var allServers []*Node
	si := 0
	for gi := range spec.Groups {
		g := &spec.Groups[gi]
		if g.Role != topology.RoleServer {
			continue
		}
		link := accessLink(g)
		for _, pl := range plans[gi] {
			cores := cfg.Cores
			if g.Cores > 0 {
				cores = g.Cores
			}
			nicCfg := cfg.NIC
			if g.NIC != nil {
				nicCfg = *g.NIC
			}
			nicCfg.Queues = cfg.Queues
			drvCfg := cfg.Driver
			if g.Driver != nil {
				drvCfg = *g.Driver
			}
			n := c.addServerNode(serverLabel(si), pl.rack, pl.addr, cores, nicCfg, drvCfg)
			n.NIC.SetLink(attach(pl, link, n.NIC))
			c.groups[gi].servers = append(c.groups[gi].servers, len(c.nodes)-1)
			serversByGroup[g.Name] = append(serversByGroup[g.Name], n)
			allServers = append(allServers, n)
			si++
		}
	}

	// Traffic source resolves before the clients so they come up in
	// replay mode.
	c.resolveTraffic()

	// Client nodes, phase-staggered across the shared period by global
	// client index and assigned to eligible servers round-robin, so load
	// balances deterministically across the fleet.
	total := spec.Clients()
	period := app.TargetPeriodFor(cfg.LoadRPS, cfg.BurstSize, total)
	payload := cfg.Workload.RequestPayload()
	ci := 0
	for gi := range spec.Groups {
		g := &spec.Groups[gi]
		if g.Role != topology.RoleClient {
			continue
		}
		cg := &c.groups[gi]
		cg.hops = 1
		link := accessLink(g)
		targets := allServers
		if g.Target != "" {
			targets = serversByGroup[g.Target]
		}
		for _, pl := range plans[gi] {
			// Each client fans successive requests round-robin over every
			// eligible server, starting at its own index so the fleet's
			// instantaneous load spreads instead of marching in lockstep.
			// A symmetric fleet therefore exercises both rack-local and
			// cross-spine paths, and every server sees the same share.
			srv := targets[ci%len(targets)]
			ccfg := c.clientConfig(period, ci, total)
			tor := c.tors[pl.rack]
			cl := app.NewClient(c.eng, pl.addr, srv.addr,
				c.faulted(netsim.NewLink(c.eng, link, tor), pl.addr, fault.FromNode),
				payload, ccfg,
				sim.NewRand(cfg.Seed, clientLabel(ci)), c.st.app)
			if len(targets) > 1 {
				cl.Targets = fanout(targets, ci)
			}
			cl.PacketList = c.pkts
			cl.Replay = c.replayTrace != nil
			if cfg.Overload.Enabled() {
				cl.Budget = cfg.Overload.NewBudget()
				cl.Breaker = cfg.Overload.NewBreaker()
			}
			c.faulted(tor.Attach(pl.addr, link, cl), pl.addr, fault.ToNode)
			for s := range c.spines {
				c.spines[s].AddRoute(pl.addr, downTo[s][pl.rack])
			}
			c.Clients = append(c.Clients, cl)
			cg.clients = append(cg.clients, len(c.Clients)-1)
			for _, t := range targets {
				if t.rack != pl.rack {
					// Cross-rack request path: ToR, spine, ToR.
					cg.hops = 3
				}
			}
			ci++
		}
	}
	c.installTraffic()

	// Optional background bulk traffic (the context-aware ablation; star
	// only, see Config.Validate) into the server from its own address.
	if cfg.BulkBps > 0 {
		c.bulk = app.NewBulkSender(c.eng, bulkAddr, ServerAddr,
			c.faulted(netsim.NewLink(c.eng, cfg.Link, c.tors[0]), bulkAddr, fault.FromNode),
			cfg.BulkBps, 1400)
		c.bulk.PacketList = c.pkts
	}
}

// fanout returns the group's eligible server addresses rotated to begin
// at the client's round-robin slot — the client's request-destination
// rotation (app.Client.Targets).
func fanout(targets []*Node, start int) []netsim.Addr {
	out := make([]netsim.Addr, len(targets))
	for i := range targets {
		out[i] = targets[(start+i)%len(targets)].addr
	}
	return out
}

// addTrunk records a switch↔switch trunk for audit conservation, queue
// rollups and telemetry. owner indexes the sending switch in Switches()
// order (ToRs first, then spines).
func (c *Cluster) addTrunk(l *netsim.Link, name string, owner int) {
	c.trunks = append(c.trunks, l)
	c.trunkNames = append(c.trunkNames, name)
	c.trunkOwner = append(c.trunkOwner, owner)
}
