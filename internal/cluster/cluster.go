package cluster

import (
	"strconv"

	"ncap/internal/app"
	"ncap/internal/audit"
	"ncap/internal/core"
	"ncap/internal/cpu"
	"ncap/internal/driver"
	"ncap/internal/fault"
	"ncap/internal/governor"
	"ncap/internal/netsim"
	"ncap/internal/nic"
	"ncap/internal/oskernel"
	"ncap/internal/power"
	"ncap/internal/sim"
	"ncap/internal/trace"
	"ncap/internal/workload"
)

// Network addresses in the four-node topology. Compiled topologies assign
// addresses sequentially from 1 in group declaration order, which for the
// explicit star spec reproduces exactly these values.
const (
	ServerAddr      netsim.Addr = 1
	firstClientAddr netsim.Addr = 2
	bulkAddr        netsim.Addr = 99
)

// ClientAddr returns the network address of client i (0-based) in the
// legacy star. Fault specs target nodes by address; this keeps the
// numbering in one place. Compiled topologies report their addresses
// through Cluster.Nodes.
func ClientAddr(i int) netsim.Addr { return firstClientAddr + netsim.Addr(i) }

// serverNode bundles one fully modeled server: processor, kernel, NIC,
// driver, application and per-node governors. The legacy star has exactly
// one; a compiled topology has one per server in the spec.
type serverNode struct {
	addr  netsim.Addr
	group string // rollup group name ("" on the legacy star)
	label string // RNG-stream and telemetry prefix ("server", "server1", ...)
	rack  int

	Chip   *cpu.Chip
	Kernel *oskernel.Kernel
	NIC    *nic.NIC
	Driver *driver.Driver
	Server *app.Server
	Ond    *governor.Ondemand
	Menu   *governor.Menu
}

// compiledGroup is one topology group's node set, kept for Result rollups.
type compiledGroup struct {
	name    string
	role    string
	servers []int // indices into Cluster.nodes
	clients []int // indices into Cluster.Clients
	hops    int   // worst-case switch count on a client group's request path
}

// Cluster is an assembled experiment: fully modeled server nodes and
// open-loop client nodes behind a switch fabric (the paper's single
// store-and-forward switch, or a compiled rack/spine topology).
type Cluster struct {
	cfg Config
	eng *sim.Engine
	sw  *netsim.Switch

	// faultLinks are every link an injector may be attached to; their
	// fault counters aggregate into the Result. faultLinkNames holds the
	// matching "dir/nodeN" labels for telemetry registration.
	faultLinks     []*netsim.Link
	faultLinkNames []string

	// Fleet state. nodes always holds every server node — on the legacy
	// star, exactly the one the singular fields below alias. Switch tiers,
	// trunk links and group rollup indices exist only for compiled
	// topologies.
	nodes      []*serverNode
	tors       []*netsim.Switch
	spines     []*netsim.Switch
	trunks     []*netsim.Link
	trunkNames []string
	trunkOwner []int // index into allSwitches(), parallel to trunks
	groups     []compiledGroup

	// Singular aliases of nodes[0], kept so the paper's single-server
	// experiments (and their tests, examples and tooling) keep reading
	// naturally.
	Chip    *cpu.Chip
	Kernel  *oskernel.Kernel
	NIC     *nic.NIC
	Driver  *driver.Driver
	Server  *app.Server
	Clients []*app.Client
	Bulk    *app.BulkSender

	Ond     *governor.Ondemand
	Menu    *governor.Menu
	Sampler *trace.Sampler

	// Traffic replay state (see internal/workload): the schedule being
	// replayed (nil in burst mode), its canonical hash, the live capture
	// when recording, and whether intended-send accounting is active.
	replayTrace *workload.Trace
	replayHash  string
	capture     *workload.Capture
	accounting  bool

	// aud is the runtime invariant auditor (nil unless Config.Audit or
	// the audit build tag enabled it).
	aud *auditState

	// Sharded execution (see shard.go): the engine partitions (engs[0]
	// aliases eng) with their cross-shard outboxes, and the conservative
	// time-sync coordinator. shards == nil is the serial path — the only
	// path when Config.Shards ≤ 1 or a clamp applies. linkSeq numbers
	// every link in construction order, giving boundary links their
	// partition-invariant frame-ordering identity.
	engs     []*sim.Engine
	outboxes []*netsim.Outbox
	shards   *shardSet
	linkSeq  uint64

	// links holds every link in construction order; their serialization
	// completions count toward Result.Events (see firedEvents).
	links []*netsim.Link
}

// chipState adapts the chip for core.DecisionEngine (chip-wide DVFS).
type chipState struct{ chip *cpu.Chip }

func (c chipState) AtMaxFreq() bool { return c.chip.Target() == c.chip.Table().Max() }
func (c chipState) AtMinFreq() bool { return c.chip.Target() == c.chip.Table().Min() }

// domainState adapts one core's DVFS domain for core.DecisionEngine
// (per-core extension).
type domainState struct {
	dom *cpu.Domain
	tab *power.Table
}

func (d domainState) AtMaxFreq() bool { return d.dom.Target() == d.tab.Max() }
func (d domainState) AtMinFreq() bool { return d.dom.Target() == d.tab.Min() }

// serverLabel names server node i's RNG stream and telemetry prefix.
// Node 0 keeps the legacy "server" name so the explicit star spec replays
// the legacy construction's random streams bit-for-bit.
func serverLabel(i int) string {
	if i == 0 {
		return "server"
	}
	return "server" + strconv.Itoa(i)
}

// clientLabel names client node i's RNG stream. Identical to the legacy
// "client"+digit naming for the paper's three clients.
func clientLabel(i int) string { return "client" + strconv.Itoa(i) }

// New assembles a cluster from the config. It panics on an invalid config
// (construction bug); use Config.Validate to check user input first. A
// nil Config.Topology builds the paper's 4-node star through the legacy
// path, byte-identical to historical runs; a non-nil spec is compiled
// into a rack/spine fabric (see compile.go).
func New(cfg Config) *Cluster {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	eng := sim.NewEngine()
	c := &Cluster{cfg: cfg, eng: eng}
	if n := cfg.effectiveShards(); n > 1 {
		c.initShards(n)
	}
	if cfg.Topology != nil {
		c.compile()
	} else {
		c.buildStar()
	}

	// Optional tracing (node 0's processor and NIC).
	if cfg.TraceInterval > 0 {
		c.Sampler = trace.NewSampler(c.Chip, c.NIC, cfg.TraceInterval, c.wakeCounter())
	}

	// Optional telemetry: registered last, once every component (NCAP
	// blocks included) is assembled.
	c.registerTelemetry()

	// Optional invariant auditing; the audit build tag forces it on for
	// every run so `go test ./... -tags audit` exercises the checks.
	if cfg.Audit || audit.Strict {
		c.enableAudit()
	}
	return c
}

// buildStar is the legacy construction path: one server, Config.Clients
// burst clients and an optional bulk sender behind a single switch.
// Sharded, the switch and server keep the primary engine and the clients
// round-robin across the partitions; serially every shard helper is an
// identity and this is byte-for-byte the historical construction.
func (c *Cluster) buildStar() {
	cfg := c.cfg
	eng := c.eng

	// Network fabric. Fault injectors (perfect fabric: none) attach per
	// unidirectional link, each with its own random stream keyed by seed
	// and link name so draws stay independent.
	c.sw = netsim.NewSwitch(eng, 500*sim.Nanosecond)
	nicCfg := cfg.NIC
	if cfg.Queues > 1 {
		nicCfg.Queues = cfg.Queues
	}

	// Server node: processor, kernel, NIC, governors, driver, application
	// and the policy's NCAP embodiment (Table 1). Server 0 and the switch
	// share shard 0 by construction (shardOf(0) == 0).
	n := c.addServerNode(eng, "", serverLabel(0), 0, ServerAddr, cfg.Cores, nicCfg, cfg.Driver)
	c.adoptPrimary(n)
	c.NIC.SetLink(c.bridge(c.faulted(netsim.NewLink(eng, cfg.Link, c.sw), ServerAddr, fault.FromNode), 0, 0))
	c.bridge(c.faulted(c.sw.Attach(ServerAddr, cfg.Link, c.NIC), ServerAddr, fault.ToNode), 0, 0)

	// Traffic source: resolve a replayed schedule (explicit trace or
	// generated scenario) before the clients are built so they come up
	// in replay mode.
	c.resolveTraffic()

	// Clients, phase-staggered across the period.
	period := app.TargetPeriodFor(cfg.LoadRPS, cfg.BurstSize, cfg.Clients)
	payload := cfg.Workload.RequestPayload()
	for i := 0; i < cfg.Clients; i++ {
		addr := firstClientAddr + netsim.Addr(i)
		sh := c.shardOf(i)
		ceng := c.shardEng(sh)
		ccfg := c.clientConfig(period, i, cfg.Clients)
		cl := app.NewClient(ceng, addr, ServerAddr,
			c.bridge(c.faulted(netsim.NewLink(ceng, cfg.Link, c.sw), addr, fault.FromNode), sh, 0),
			payload, ccfg,
			sim.NewRand(cfg.Seed, "client"+string(rune('0'+i))))
		cl.Replay = c.replayTrace != nil
		if cfg.Overload.Enabled() {
			cl.Budget = cfg.Overload.NewBudget()
			cl.Breaker = cfg.Overload.NewBreaker()
		}
		c.bridge(c.faulted(c.sw.Attach(addr, cfg.Link, cl), addr, fault.ToNode), 0, sh)
		c.Clients = append(c.Clients, cl)
	}
	c.installTraffic()

	// Optional background bulk traffic (rides shard 0 with the switch).
	if cfg.BulkBps > 0 {
		c.Bulk = app.NewBulkSender(eng, bulkAddr, ServerAddr,
			c.bridge(c.faulted(netsim.NewLink(eng, cfg.Link, c.sw), bulkAddr, fault.FromNode), 0, 0),
			cfg.BulkBps, 1400)
	}
}

// faulted registers a link in the fault-injection set (and attaches an
// injector when the config's fault spec is active).
func (c *Cluster) faulted(l *netsim.Link, node netsim.Addr, dir fault.Direction) *netsim.Link {
	name := dir.String() + "/" + node.String()
	c.faultLinks = append(c.faultLinks, l)
	c.faultLinkNames = append(c.faultLinkNames, name)
	if c.cfg.Fault.Enabled() {
		model := c.cfg.Fault.Resolve(uint32(node), dir)
		l.SetInjector(fault.NewInjector(model, c.cfg.Seed, name))
	}
	return l
}

// clientConfig resolves one client's config from the cluster config and
// its global index (phase stagger across the shared period).
func (c *Cluster) clientConfig(period sim.Duration, i, total int) app.ClientConfig {
	cfg := c.cfg
	ccfg := app.DefaultClientConfig()
	ccfg.BurstSize = cfg.BurstSize
	ccfg.Period = period
	if cfg.Workload.RequestSpacing > 0 {
		ccfg.Spacing = cfg.Workload.RequestSpacing
	}
	ccfg.StartOffset = period * sim.Duration(i) / sim.Duration(total)
	// Under an imperfect fabric the client's RTO backs off exponentially,
	// as TCP's would, so a crashed or flapping path is not hammered at a
	// fixed cadence.
	ccfg.Backoff = cfg.Fault.Enabled()
	if cfg.Overload.Enabled() {
		// The resilience layer's client half: backoff always on, plus
		// whatever the spec enables (deadlines, jitter).
		ccfg.Backoff = true
		ccfg.Deadline = cfg.Overload.Deadline
		ccfg.JitterBackoff = cfg.Overload.JitterBackoff
	}
	return ccfg
}

// addServerNode builds one fully modeled server — chip, kernel, NIC,
// governors, driver, application, NCAP embodiment — on the given shard
// engine, and appends it to the node list. The caller wires its NIC to
// the fabric.
func (c *Cluster) addServerNode(eng *sim.Engine, group, label string, rack int, addr netsim.Addr,
	cores int, nicCfg nic.Config, drvCfg driver.Config) *serverNode {
	cfg := c.cfg
	n := &serverNode{addr: addr, group: group, label: label, rack: rack}

	// Processor and kernel (Table 1).
	tab := power.DefaultTable()
	initial := tab.Max()
	if cfg.Policy == Ond || cfg.Policy == OndIdle || cfg.Policy.UsesNCAPHardware() || cfg.Policy.UsesNCAPSoftware() {
		// Dynamic policies start mid-table; the governor settles them.
		initial = tab.ByIndex(tab.Len() / 2)
	}
	if cfg.PerCoreDVFS {
		n.Chip = cpu.NewPerCore(eng, cores, tab, power.DefaultModel(), initial)
	} else {
		n.Chip = cpu.New(eng, cores, tab, power.DefaultModel(), initial)
	}
	n.Kernel = oskernel.New(n.Chip)
	n.NIC = nic.New(eng, addr, nicCfg)

	// Governors.
	if cfg.Policy.UsesOndemand() {
		invoke := func(cycles int64, fn func()) {
			n.Chip.Core(0).Submit(&cpu.Work{Name: "ondemand", Cycles: cycles, Prio: cpu.PrioIRQ, OnDone: fn})
		}
		n.Ond = governor.NewOndemand(n.Chip, cfg.OndemandPeriod, invoke)
	}
	if cfg.Policy.UsesMenu() {
		n.Menu = governor.NewMenu(n.Chip, n.Kernel.TimerHint())
		for _, core := range n.Chip.Cores() {
			core.SetIdleDecider(n.Menu)
		}
	}

	// Driver with the policy's power hooks.
	if cfg.TOE {
		drvCfg.TOEFactor = 0.5
	}
	hooks := c.hooksFor(n)
	var server *app.Server
	n.Driver = driver.New(n.Kernel, n.NIC, drvCfg, hooks, func(p *netsim.Packet, pollCore int) {
		server.HandleDelivered(p, pollCore)
	})
	server = app.NewServer(n.Kernel, n.Driver, cfg.Workload,
		sim.NewRand(cfg.Seed, label), addr)
	server.Affine = cfg.Queues > 1
	// A lossy fabric needs TCP's retransmission semantics on the server
	// side too: absorb duplicate requests, retransmit stored responses.
	// The overload-resilience layer implies the same transport mode: its
	// retry storms duplicate requests just as a lossy fabric does.
	overload := cfg.Overload.Enabled()
	server.Dedup = cfg.Fault.Enabled() || overload
	if overload {
		server.DedupCap = cfg.Overload.DedupCap
		if cfg.Overload.Admission() {
			server.EnableAdmission(cfg.Overload)
		}
	}
	n.Server = server

	// NCAP embodiments. Template programming models the driver-init
	// sysfs writes (Sec. 4.1).
	templates := c.templates()
	if cfg.Policy.UsesNCAPHardware() {
		for _, q := range n.NIC.Queues() {
			state := core.ChipState(chipState{n.Chip})
			if cfg.PerCoreDVFS {
				// Each queue's DecisionEngine judges and steers its own
				// target core's DVFS domain (Sec. 7 extension).
				state = domainState{
					dom: n.Chip.Core(q.ID() % len(n.Chip.Cores())).Domain(),
					tab: n.Chip.Table(),
				}
			}
			q.EnableNCAP(cfg.ncapConfig(), state)
			q.Monitor().ProgramStrings(templates...)
		}
	}
	if cfg.Policy.UsesNCAPSoftware() {
		n.Driver.EnableSoftwareNCAP(cfg.ncapConfig(), chipState{n.Chip}, templates...)
	}

	c.nodes = append(c.nodes, n)
	return n
}

// adoptPrimary aliases node 0 into the singular fields.
func (c *Cluster) adoptPrimary(n *serverNode) {
	c.Chip, c.Kernel, c.NIC = n.Chip, n.Kernel, n.NIC
	c.Driver, c.Server = n.Driver, n.Server
	c.Ond, c.Menu = n.Ond, n.Menu
}

// templates returns the NCAP request templates, with the context-unaware
// strawman's bulk pattern appended for the ablation.
func (c *Cluster) templates() []string {
	templates := c.cfg.Workload.Templates
	if c.cfg.NaiveNCAP {
		// Context-unaware strawman: also treat bulk traffic ("PUT ...")
		// as rate-trigger input.
		templates = append(append([]string{}, templates...), "PU")
	}
	return templates
}

// hooksFor wires the enhanced interrupt handler's power levers
// (Fig. 5(d)) to one server node's chip and governors.
func (c *Cluster) hooksFor(n *serverNode) driver.PowerHooks {
	if !c.cfg.Policy.UsesNCAPHardware() && !c.cfg.Policy.UsesNCAPSoftware() {
		return driver.PowerHooks{}
	}
	fcons := c.cfg.ncapConfig().FCONS
	tab := n.Chip.Table()
	step := (tab.Len() - 1 + fcons - 1) / fcons // ceil((states-1)/FCONS)
	h := driver.PowerHooks{
		Boost:    n.Chip.Boost,
		StepDown: func() { n.Chip.SetPState(tab.StepTowardMin(n.Chip.Target(), step)) },
	}
	if c.cfg.PerCoreDVFS {
		h.BoostCore = func(id int) { n.Chip.Core(id).Domain().Boost() }
		h.StepDownCore = func(id int) { n.Chip.Core(id).Domain().StepTowardMin(step) }
	}
	if n.Menu != nil {
		h.MenuEnable = func() {
			n.Menu.Enable()
			// Governor change kicks idle cores so they re-select (the
			// kernel's wake_up_all_idle_cpus on cpuidle state change);
			// cores halted in C1 at high voltage move to deep sleep.
			for _, core := range n.Chip.Cores() {
				core.KickIdle()
			}
		}
		h.MenuDisable = n.Menu.Disable
		if c.cfg.Queues > 1 {
			// Per-core menu control: a burst on queue q restricts only
			// q's target core (Sec. 7 extension).
			h.MenuDisableCore = n.Menu.DisableCore
			h.MenuEnableCore = func(id int) {
				n.Menu.EnableCore(id)
				n.Chip.Core(id).KickIdle()
			}
		}
	}
	if n.Ond != nil {
		h.OndemandInhibit = n.Ond.Inhibit
	}
	return h
}

// wakeCounter returns the cumulative proactive-transition interrupt count
// (IT_HIGH boosts plus CIT wakes) for the INT(wake) trace markers (node 0).
func (c *Cluster) wakeCounter() func() int64 {
	if c.cfg.Policy.UsesNCAPHardware() {
		return func() int64 {
			var n int64
			for _, q := range c.NIC.Queues() {
				d := q.Decision()
				n += d.Highs.Value() + d.Wakes.Value()
			}
			return n
		}
	}
	if c.cfg.Policy.UsesNCAPSoftware() {
		return func() int64 {
			d := c.Driver.SWDecision()
			return d.Highs.Value() + d.Wakes.Value()
		}
	}
	return nil
}

// Engine exposes the simulation engine (examples and tests).
func (c *Cluster) Engine() *sim.Engine { return c.eng }

// Switch exposes the network fabric so additional endpoints (bulk
// sources, alternative client designs) can be attached before Run. On a
// compiled topology it returns the first top-of-rack switch.
func (c *Cluster) Switch() *netsim.Switch { return c.sw }

// Switches returns every switch in the fabric: the single star switch on
// the legacy path, or the ToR tier followed by the spine tier.
func (c *Cluster) Switches() []*netsim.Switch {
	if len(c.tors) == 0 && len(c.spines) == 0 {
		return []*netsim.Switch{c.sw}
	}
	out := make([]*netsim.Switch, 0, len(c.tors)+len(c.spines))
	out = append(out, c.tors...)
	out = append(out, c.spines...)
	return out
}

// ServerCount returns the number of fully modeled server nodes.
func (c *Cluster) ServerCount() int { return len(c.nodes) }

// Config returns the experiment configuration.
func (c *Cluster) Config() Config { return c.cfg }
