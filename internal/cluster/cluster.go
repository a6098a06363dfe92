package cluster

import (
	"strconv"

	"ncap/internal/app"
	"ncap/internal/audit"
	"ncap/internal/cpu"
	"ncap/internal/driver"
	"ncap/internal/fault"
	"ncap/internal/governor"
	"ncap/internal/netsim"
	"ncap/internal/nic"
	"ncap/internal/oskernel"
	"ncap/internal/power"
	"ncap/internal/sim"
	"ncap/internal/telemetry"
	"ncap/internal/workload"
)

// Network addresses in the paper's star. Topologies assign addresses
// sequentially from 1 in group declaration order, so the star's server is
// ServerAddr and its clients follow; the bulk sender sits apart at
// bulkAddr.
const (
	ServerAddr      netsim.Addr = 1
	firstClientAddr netsim.Addr = 2
	bulkAddr        netsim.Addr = 99
)

// ClientAddr returns the network address of client i (0-based) in the
// star. Fault specs target nodes by address; this keeps the numbering in
// one place. On other topologies addresses follow group declaration order.
func ClientAddr(i int) netsim.Addr { return firstClientAddr + netsim.Addr(i) }

// Node bundles one fully modeled server: processor, kernel, NIC, driver,
// application and per-node governors. The topology has one per server in
// its spec; the paper's star has exactly one.
type Node struct {
	addr  netsim.Addr
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
	cfg  Config
	st   *Storage // the run's storage; eng is its engine
	eng  *sim.Engine
	pkts *netsim.PacketList // the run's packet free list (see Packets)

	// faultLinks are every link an injector may be attached to: every
	// link but the trunks. Their fault counters aggregate into the
	// Result. faultLinkNames holds the matching "dir/nodeN" labels for
	// telemetry registration.
	faultLinks     []*netsim.Link
	faultLinkNames []string

	// Fabric state: every server node in declaration order, the switch
	// tiers, the switch-to-switch trunks (none on a single-rack shape)
	// and the group rollup indices.
	nodes      []*Node
	tors       []*netsim.Switch
	spines     []*netsim.Switch
	trunks     []*netsim.Link
	trunkNames []string
	trunkOwner []int // index into Switches(), parallel to trunks
	groups     []compiledGroup

	// Clients are the load-generating nodes, in declaration order.
	Clients []*app.Client
	bulk    *app.BulkSender    // background sender (nil unless Config.BulkBps)
	sampler *telemetry.Sampler // node 0's trace signals (nil unless Config.TraceInterval)

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
}

// domainState adapts a core's DVFS domain for core.DecisionEngine: the
// whole chip under chip-wide DVFS, the core alone under PerCoreDVFS.
type domainState struct {
	dom *cpu.Domain
	tab *power.Table
}

func (d domainState) AtMaxFreq() bool { return d.dom.Target() == d.tab.Max() }
func (d domainState) AtMinFreq() bool { return d.dom.Target() == d.tab.Min() }

// stateOf returns the DecisionEngine view of core id's DVFS domain.
func (n *Node) stateOf(id int) domainState {
	return domainState{dom: n.Chip.Core(id).Domain(), tab: n.Chip.Table()}
}

// serverLabel names server node i's RNG stream and telemetry prefix.
// Node 0 is plain "server", the name every historical star run drew its
// random stream from.
func serverLabel(i int) string {
	if i == 0 {
		return "server"
	}
	return "server" + strconv.Itoa(i)
}

// clientLabel names client node i's RNG stream ("client0", "client1", ...).
func clientLabel(i int) string { return "client" + strconv.Itoa(i) }

// New assembles a cluster from the config, on a fresh storage. It panics
// on an invalid config (construction bug); use Config.Validate to check
// user input first. The topology — Config.Topology, or the paper's star
// when that is nil — is compiled into wired simulation components (see
// compile.go).
func New(cfg Config) *Cluster { return NewWith(cfg, NewStorage()) }

// NewWith is New on the given storage: it takes the storage, freeing
// every object of the run that used it before, and the new run recycles
// them (see Storage). The Result is the one New would give.
func NewWith(cfg Config, st *Storage) *Cluster {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	st.take()
	c := &Cluster{cfg: cfg, st: st, eng: st.eng, pkts: netsim.NewPacketList()}
	c.compile()

	// Optional telemetry: registered once every component (NCAP blocks
	// included) is assembled.
	c.registerTelemetry()

	// Optional tracing, which reads node 0's metrics from the registry.
	if cfg.TraceInterval > 0 {
		c.sampler = c.traceSampler()
	}

	// Optional invariant auditing; the audit build tag forces it on for
	// every run so `go test ./... -tags audit` exercises the checks.
	if cfg.Audit || audit.Strict {
		c.enableAudit()
	}
	return c
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
// governors, driver, application, NCAP embodiment — and appends it to the
// node list. The caller wires its NIC to the fabric.
func (c *Cluster) addServerNode(label string, rack int, addr netsim.Addr,
	cores int, nicCfg nic.Config, drvCfg driver.Config) *Node {
	cfg, eng := c.cfg, c.eng
	n := &Node{addr: addr, label: label, rack: rack}

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
		// One Work serves every invocation: the 10 ms period is far longer
		// than an invocation's run, so the previous one has always
		// finished. Should it ever still be queued, a fresh Work keeps
		// that tick's run rather than coalescing it.
		work := &cpu.Work{Name: "ondemand", Prio: cpu.PrioIRQ}
		invoke := func(cycles int64, fn func()) {
			w := work
			if w.Pending() {
				w = &cpu.Work{Name: "ondemand", Prio: cpu.PrioIRQ}
			}
			w.Cycles, w.OnDone = cycles, fn
			n.Chip.Core(0).Submit(w)
		}
		n.Ond = governor.NewOndemand(n.Chip, cfg.OndemandPeriod, invoke)
	}
	if cfg.Policy.UsesMenu() {
		n.Menu = governor.NewMenu(n.Chip, n.Kernel.TimerHint())
		for _, core := range n.Chip.Cores() {
			core.SetIdleDecider(n.Menu)
		}
	}

	// Driver with the policy's power hooks. TOE halves the per-packet
	// stack costs (Sec. 7).
	drvCfg.TOEFactor = 0
	if cfg.TOE {
		drvCfg.TOEFactor = 0.5
	}
	hooks := c.hooksFor(n)
	var server *app.Server
	n.Driver = driver.New(n.Kernel, n.NIC, drvCfg, hooks, func(p *netsim.Packet, pollCore int) {
		server.HandleDelivered(p, pollCore)
	})
	server = app.NewServer(n.Kernel, n.Driver, cfg.Workload,
		sim.NewRand(cfg.Seed, label), addr, c.st.app)
	server.Affine = cfg.Queues > 1
	server.PacketList = c.pkts
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

	// NCAP embodiments. Each DecisionEngine judges its target core's DVFS
	// domain: a queue's core (Sec. 7 extension), or the IRQ core for
	// ncap.sw. Template programming models the driver-init sysfs writes
	// (Sec. 4.1).
	templates := c.templates()
	if cfg.Policy.UsesNCAPHardware() {
		for i, q := range n.NIC.Queues() {
			q.EnableNCAP(cfg.ncapConfig(), n.stateOf(n.Driver.QueueCore(i)))
			q.Monitor().ProgramStrings(templates...)
		}
	}
	if cfg.Policy.UsesNCAPSoftware() {
		n.Driver.EnableSoftwareNCAP(cfg.ncapConfig(), n.stateOf(n.Kernel.IRQCore()), templates...)
	}

	c.nodes = append(c.nodes, n)
	return n
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
// (Fig. 5(d)) to one server node's chip and governors. It alone decides
// how far an action on a core reaches:
//   - a hardware queue's DVFS levers act on its core's domain, which is
//     the whole chip when there is one domain;
//   - with several queues, a hardware queue's menu levers act on its
//     core alone (Sec. 7 extension), otherwise on the global menu;
//   - ncap.sw's one engine judges the whole chip, so its levers reach
//     every domain and the global menu.
func (c *Cluster) hooksFor(n *Node) driver.PowerHooks {
	hw, sw := c.cfg.Policy.UsesNCAPHardware(), c.cfg.Policy.UsesNCAPSoftware()
	if !hw && !sw {
		return driver.PowerHooks{}
	}
	fcons := c.cfg.FCONS
	if fcons == 0 {
		fcons = c.cfg.Policy.FCONS()
	}
	tab := n.Chip.Table()
	step := (tab.Len() - 1 + fcons - 1) / fcons // ceil((states-1)/FCONS)
	h := driver.PowerHooks{
		Boost:    func(id int) { n.Chip.Core(id).Domain().Boost() },
		StepDown: func(id int) { n.Chip.Core(id).Domain().StepTowardMin(step) },
	}
	if sw {
		h.Boost = func(int) { n.Chip.Boost() }
		h.StepDown = func(int) { n.Chip.SetPState(tab.StepTowardMin(n.Chip.Target(), step)) }
	}
	if n.Menu != nil {
		if hw && c.cfg.Queues > 1 {
			h.MenuDisable = n.Menu.DisableCore
			h.MenuEnable = func(id int) {
				n.Menu.EnableCore(id)
				n.Chip.Core(id).KickIdle()
			}
		} else {
			h.MenuDisable = func(int) { n.Menu.Disable() }
			h.MenuEnable = func(int) {
				n.Menu.Enable()
				// Governor change kicks idle cores so they re-select (the
				// kernel's wake_up_all_idle_cpus on cpuidle state change);
				// cores halted in C1 at high voltage move to deep sleep.
				for _, core := range n.Chip.Cores() {
					core.KickIdle()
				}
			}
		}
	}
	if n.Ond != nil {
		h.OndemandInhibit = n.Ond.Inhibit
	}
	return h
}

// Engine exposes the simulation engine (examples and tests).
func (c *Cluster) Engine() *sim.Engine { return c.eng }

// Packets returns the run's packet free list, for endpoints attached
// before Run. Run hands its free packets back to the process pool when it
// returns; a caller that drives the engine itself calls Flush when done.
func (c *Cluster) Packets() *netsim.PacketList { return c.pkts }

// Switch exposes the first top-of-rack switch — the star's only switch —
// so additional endpoints (bulk sources, alternative client designs) can
// be attached before Run.
func (c *Cluster) Switch() *netsim.Switch { return c.tors[0] }

// Switches returns every switch in the fabric: the ToR tier followed by
// the spine tier.
func (c *Cluster) Switches() []*netsim.Switch {
	out := make([]*netsim.Switch, 0, len(c.tors)+len(c.spines))
	out = append(out, c.tors...)
	out = append(out, c.spines...)
	return out
}

// Nodes returns every fully modeled server node in declaration order;
// on the paper's star, Nodes()[0] is its one server.
func (c *Cluster) Nodes() []*Node { return c.nodes }
