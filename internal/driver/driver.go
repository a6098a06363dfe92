// Package driver models the NIC device driver: the hardware interrupt
// handler (enhanced per Fig. 5(d) to act on IT_HIGH/IT_LOW), the NAPI-style
// NET_RX softirq receive path, the transmit path, and the software
// implementation of NCAP (ncap.sw) that the paper compares against — the
// same ReqMonitor/DecisionEngine logic run in softirq context plus a 1 ms
// kernel timer, paying CPU cycles for every inspection (Sec. 5).
//
// With a multi-queue NIC (Sec. 7 extension) the driver registers one
// MSI-X vector and one NAPI context per queue, pinned to the queue's
// target core. Every power action, hardware or ncap.sw, runs the one
// IT_HIGH/IT_LOW sequence on behalf of a core: a queue's target core, or
// the IRQ core for ncap.sw. The driver never decides how far an action
// reaches; the node assembly binds each lever to that core's DVFS domain
// and menu state, or to the whole chip.
package driver

import (
	"fmt"

	"ncap/internal/core"
	"ncap/internal/cpu"
	"ncap/internal/netsim"
	"ncap/internal/nic"
	"ncap/internal/oskernel"
	"ncap/internal/sim"
	"ncap/internal/stats"
	"ncap/internal/telemetry"
)

// Config carries the driver's CPU cost model (cycles at the executing
// frequency) and NAPI parameters.
type Config struct {
	// IRQCycles is the hard IRQ handler cost: register save, the ICR read
	// over PCIe (the dominant term), cause demultiplexing.
	IRQCycles int64
	// SoftIRQCycles is the do_softirq dispatch overhead per run.
	SoftIRQCycles int64
	// RxPacketCycles is the network-stack cost per received packet
	// (driver unhook, skb handling, IP/TCP receive, socket demux).
	RxPacketCycles int64
	// TxPacketCycles is the transmit-path cost per packet.
	TxPacketCycles int64
	// NAPIBudget is the poll batch size.
	NAPIBudget int
	// SWInspectCycles is ncap.sw's extra per-packet ReqMonitor cost.
	SWInspectCycles int64
	// SWTimerCycles is ncap.sw's 1 ms DecisionEngine timer cost.
	SWTimerCycles int64
	// TOEFactor models the NIC's TCP offload engine (Sec. 7): the
	// per-packet stack costs drop to the given fraction of their
	// configured values (0 or 1 disables the offload, 0.5 halves them).
	// A cluster sets it from its own TOE option, so it is not part of the
	// serialized config.
	TOEFactor float64 `json:"-"`
}

// DefaultConfig returns costs calibrated for a 3.1 GHz core: ~2 µs hard
// IRQ (ICR read), ~1 µs softirq dispatch, ~2 µs per-packet stack cost.
func DefaultConfig() Config {
	return Config{
		IRQCycles:       6200,
		SoftIRQCycles:   3100,
		RxPacketCycles:  6200,
		TxPacketCycles:  3100,
		NAPIBudget:      64,
		SWInspectCycles: 2500,
		SWTimerCycles:   15_000,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.NAPIBudget <= 0:
		return fmt.Errorf("driver: NAPI budget must be positive")
	case c.IRQCycles < 0 || c.SoftIRQCycles < 0 || c.RxPacketCycles < 0 ||
		c.TxPacketCycles < 0 || c.SWInspectCycles < 0 || c.SWTimerCycles < 0:
		return fmt.Errorf("driver: cycle costs must be non-negative")
	}
	return nil
}

func (c Config) rxCycles() int64 { return scaled(c.RxPacketCycles, c.TOEFactor) }
func (c Config) txCycles() int64 { return scaled(c.TxPacketCycles, c.TOEFactor) }

func scaled(cycles int64, factor float64) int64 {
	if factor <= 0 || factor >= 1 {
		return cycles
	}
	return int64(float64(cycles) * factor)
}

// PowerHooks are the driver's levers over the power-management stack,
// wired up by the node assembly. Each lever acts on behalf of a core; the
// assembly alone decides how far it reaches (that core's DVFS domain or
// menu state, or the whole chip). Any may be nil (policy absent).
type PowerHooks struct {
	// Boost raises the core's frequency to the maximum (P0).
	Boost func(coreID int)
	// StepDown lowers it by one IT_LOW step of the FCONS walk.
	StepDown func(coreID int)
	// MenuDisable / MenuEnable toggle the cpuidle menu governor for it.
	MenuDisable func(coreID int)
	MenuEnable  func(coreID int)
	// OndemandInhibit suspends the ondemand governor for one period.
	OndemandInhibit func()
}

// Deliver hands a received packet to the application socket layer along
// with the core that polled it (for flow-affine task placement).
type Deliver func(p *netsim.Packet, coreID int)

// queueCtx binds one NIC queue to its interrupt vector and NAPI context,
// and is the power-action context of the queue's core. ncap.sw acts
// through a context of its own on the IRQ core, with no queue.
type queueCtx struct {
	d      *Driver
	q      *nic.Queue
	coreID int
	irq    *oskernel.IRQ
	napi   *oskernel.SoftIRQ
	menu   bool       // this context holds a menu-disable reference
	rxFree []*rxBatch // idle batch cursors
}

// rxBatch is the cursor of one polled batch being processed: it runs each
// frame's stack cost as softirq work and delivers the frame when that work
// completes. A queue keeps one cursor per batch in flight, because an
// urgent NCAP wake can start a second poll chain mid-batch.
type rxBatch struct {
	work cpu.Work // OnDone is b.deliverNext
	c    *queueCtx
	pkts []*netsim.Packet
	i    int // next frame to deliver
}

// txBatch is one response's NET_TX softirq run: the segments it transmits
// when its stack cost has been paid.
type txBatch struct {
	work cpu.Work // OnDone is b.transmit
	d    *Driver
	pkts []*netsim.Packet
}

// Driver binds a NIC to a kernel.
type Driver struct {
	k       *oskernel.Kernel
	dev     *nic.NIC
	cfg     Config
	hooks   PowerHooks
	ctxs    []*queueCtx
	deliver Deliver
	txFree  []*txBatch // idle transmit batches

	// menuRefs counts menu-disable holders per core (several queues can
	// share a core): the governor is disabled at 0→1 and re-enabled at
	// 1→0, so one queue's IT_LOW cannot re-enable deep sleep while a
	// sibling queue's burst is still protected. A lever that reaches the
	// whole chip's menu is bound only where one context can hold it.
	menuRefs map[int]int

	// ncap.sw state (nil unless EnableSoftwareNCAP was called).
	swMon   *core.ReqMonitor
	swTxc   *core.TxBytesCounter
	swDec   *core.DecisionEngine
	swTimer *oskernel.Timer
	swCtx   *queueCtx

	// Polls counts NAPI poll batches; Delivered counts packets handed to
	// the application; Boosts/StepDowns count power actions taken.
	Polls     stats.Counter
	Delivered stats.Counter
	Boosts    stats.Counter
	StepDowns stats.Counter

	// trace receives boost/stepdown events when telemetry is enabled
	// (see RegisterTelemetry); nil otherwise, and Emit no-ops.
	trace *telemetry.EventTrace
}

// New initializes the driver: one interrupt vector and NET_RX softirq per
// NIC queue (queue i pinned to core i mod cores, like irqbalance with
// RSS), and wires the NIC's interrupt lines. deliver receives each packet
// after stack processing.
func New(k *oskernel.Kernel, dev *nic.NIC, cfg Config, hooks PowerHooks, deliver Deliver) *Driver {
	if deliver == nil {
		panic("driver: nil deliver callback")
	}
	d := &Driver{k: k, dev: dev, cfg: cfg, hooks: hooks, deliver: deliver, menuRefs: map[int]int{}}
	cores := len(k.Chip().Cores())
	for _, q := range dev.Queues() {
		ctx := &queueCtx{d: d, q: q, coreID: q.ID() % cores}
		ctx.irq = k.NewIRQOn(ctx.coreID, "nic-irq", cfg.IRQCycles, ctx.handleIRQ)
		ctx.napi = k.NewSoftIRQ("net_rx", ctx.coreID, cfg.SoftIRQCycles, ctx.poll)
		q.SetIRQ(ctx.irq.Assert)
		d.ctxs = append(d.ctxs, ctx)
	}
	return d
}

// QueueCore returns the core serving NIC queue q.
func (d *Driver) QueueCore(q int) int { return d.ctxs[q].coreID }

// EnableSoftwareNCAP activates the ncap.sw variant: ReqMonitor runs per
// packet in the softirq (costing SWInspectCycles each), TxBytesCounter in
// the transmit path, and a 1 ms kernel timer evaluates DecisionEngine
// (Sec. 5). Its actions run the hardware queues' IT_HIGH/IT_LOW sequence
// on behalf of the IRQ core, whose DVFS state the engine judges through
// state. templates mirror the sysfs programming of the hardware path.
func (d *Driver) EnableSoftwareNCAP(cfg core.Config, state core.ChipState, templates ...string) {
	d.swMon = core.NewReqMonitor()
	d.swMon.ProgramStrings(templates...)
	d.swTxc = &core.TxBytesCounter{}
	d.swDec = core.NewDecisionEngine(cfg, state, d.k.Engine().Now())
	d.swCtx = &queueCtx{d: d, coreID: d.k.IRQCore()}
	d.swTimer = d.k.NewTimer("ncap-sw", d.swCtx.coreID, d.cfg.SWTimerCycles, d.swTick)
	d.swTimer.ArmPeriodic(sim.Millisecond)
}

// SoftwareNCAP reports whether the ncap.sw variant is active.
func (d *Driver) SoftwareNCAP() bool { return d.swDec != nil }

// SWDecision exposes the software decision engine for tests and traces.
func (d *Driver) SWDecision() *core.DecisionEngine { return d.swDec }

// handleIRQ is the enhanced NIC hardware interrupt handler (Fig. 5(d)).
func (c *queueCtx) handleIRQ() {
	causes := c.q.ReadICR()
	if causes&nic.ITHigh != 0 {
		c.actHigh()
	}
	if causes&nic.ITLow != 0 {
		c.actLow()
	}
	if causes&nic.ITRx != 0 {
		// NAPI: mask rx interrupts and defer to the polling softirq. For a
		// pure CIT wake (nothing DMA'd yet) the poll finds an empty ring
		// and unmasks again — the interrupt's purpose was the wake itself.
		c.q.MaskRxIRQ()
		c.napi.Raise()
	}
}

// actHigh performs the IT_HIGH sequence from Sec. 4.3 on behalf of this
// context's core: (1) F to max, (2) disable the menu governor, (3) inhibit
// ondemand for one period.
func (c *queueCtx) actHigh() {
	d := c.d
	d.Boosts.Inc()
	d.emit("boost", c.coreID)
	if d.hooks.Boost != nil {
		d.hooks.Boost(c.coreID)
	}
	if !c.menu && d.hooks.MenuDisable != nil {
		c.menu = true
		d.menuRefs[c.coreID]++
		if d.menuRefs[c.coreID] == 1 {
			d.hooks.MenuDisable(c.coreID)
		}
	}
	if d.hooks.OndemandInhibit != nil {
		d.hooks.OndemandInhibit()
	}
}

// actLow handles IT_LOW: re-enable the menu governor on the first IT_LOW
// after a high period, and walk the frequency down one FCONS step.
func (c *queueCtx) actLow() {
	d := c.d
	d.StepDowns.Inc()
	d.emit("stepdown", c.coreID)
	if c.menu {
		c.menu = false
		d.menuRefs[c.coreID]--
		if d.menuRefs[c.coreID] == 0 && d.hooks.MenuEnable != nil {
			d.hooks.MenuEnable(c.coreID)
		}
	}
	if d.hooks.StepDown != nil {
		d.hooks.StepDown(c.coreID)
	}
}

// poll is the NET_RX softirq handler: drain a budget of packets and
// process them one at a time — each packet pays its stack cost and is
// handed to the socket layer as soon as its own processing completes, as
// NAPI does, rather than at the end of the batch.
func (c *queueCtx) poll() {
	pkts := c.q.Poll(c.d.cfg.NAPIBudget)
	if len(pkts) == 0 {
		c.q.UnmaskRxIRQ()
		return
	}
	c.d.Polls.Inc()
	var b *rxBatch
	if n := len(c.rxFree); n > 0 {
		b, c.rxFree = c.rxFree[n-1], c.rxFree[:n-1]
	} else {
		b = &rxBatch{c: c}
		b.work.OnDone = b.deliverNext
	}
	b.pkts, b.i = pkts, 0
	b.runNext()
}

// runNext submits the next frame's stack cost, or retires the batch: the
// slice goes back to the NIC queue, the cursor to the free list, and NAPI
// either polls again or re-enables the rx interrupt.
func (b *rxBatch) runNext() {
	c := b.c
	d := c.d
	if b.i == len(b.pkts) {
		c.q.Recycle(b.pkts)
		c.rxFree = append(c.rxFree, b)
		if c.q.RxPending() > 0 {
			c.napi.Raise()
		} else {
			c.q.UnmaskRxIRQ()
		}
		return
	}
	b.work.Cycles = d.cfg.rxCycles()
	if d.swMon != nil {
		b.work.Cycles += d.cfg.SWInspectCycles
	}
	c.napi.Run(&b.work)
}

func (b *rxBatch) deliverNext() {
	c := b.c
	d := c.d
	p := b.pkts[b.i]
	b.i++
	if d.swMon != nil {
		d.swMon.Inspect(p.Payload)
	}
	d.Delivered.Inc()
	d.deliver(p, c.coreID)
	b.runNext()
}

// Send transmits response packets on the given core. The tx stack cost
// runs in NET_TX softirq context: it preempts queued application tasks
// (responses leave as soon as their request completes, they do not wait
// behind the rest of the run queue) but yields to hard interrupts. Send
// copies pkts, so the caller may reuse the slice once it returns.
func (d *Driver) Send(coreID int, pkts []*netsim.Packet) {
	if len(pkts) == 0 {
		return
	}
	var b *txBatch
	if n := len(d.txFree); n > 0 {
		b, d.txFree = d.txFree[n-1], d.txFree[:n-1]
	} else {
		b = &txBatch{d: d}
		b.work = cpu.Work{Name: "net_tx", OnDone: b.transmit}
	}
	b.pkts = append(b.pkts[:0], pkts...)
	b.work.Cycles = int64(len(pkts)) * d.cfg.txCycles()
	d.k.SubmitSoftIRQOn(coreID, &b.work)
}

func (b *txBatch) transmit() {
	d := b.d
	for _, p := range b.pkts {
		// Transmit hands the packet to the link, which owns (and may
		// release) it from then on — read the size first.
		ws := p.WireSize()
		if d.dev.Transmit(p) && d.swTxc != nil {
			d.swTxc.Add(ws)
		}
	}
	d.txFree = append(d.txFree, b)
}

// swTick is ncap.sw's 1 ms DecisionEngine evaluation (kernel timer).
func (d *Driver) swTick() {
	act := d.swDec.OnMITTExpiry(d.k.Engine().Now(), d.swMon.TakeReqCnt(), d.swTxc.TakeTxCnt(), sim.Millisecond)
	if act.High {
		d.swCtx.actHigh()
	}
	if act.Low {
		d.swCtx.actLow()
	}
}

// Quiesce stops the ncap.sw periodic decision timer so a drained
// simulation reaches zero pending events. Only the audit finalizer calls
// it, after the measurement has been collected.
func (d *Driver) Quiesce() {
	if d.swTimer != nil {
		d.swTimer.Stop()
	}
}

// ResetStats zeroes driver counters at the warmup boundary.
func (d *Driver) ResetStats() {
	d.Polls.Reset()
	d.Delivered.Reset()
	d.Boosts.Reset()
	d.StepDowns.Reset()
	if d.swDec != nil {
		d.swDec.ResetStats()
	}
}
