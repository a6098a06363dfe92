package driver

import (
	"testing"

	"ncap/internal/core"
	"ncap/internal/cpu"
	"ncap/internal/netsim"
	"ncap/internal/nic"
	"ncap/internal/oskernel"
	"ncap/internal/power"
	"ncap/internal/sim"
)

type rig struct {
	eng    *sim.Engine
	chip   *cpu.Chip
	k      *oskernel.Kernel
	dev    *nic.NIC
	drv    *Driver
	rx     []*netsim.Packet
	rxTime []sim.Time
}

type chipState struct{ chip *cpu.Chip }

func (c chipState) AtMaxFreq() bool { return c.chip.Target() == c.chip.Table().Max() }
func (c chipState) AtMinFreq() bool { return c.chip.Target() == c.chip.Table().Min() }

func newRig(hooks PowerHooks) *rig {
	eng := sim.NewEngine()
	tab := power.DefaultTable()
	chip := cpu.New(eng, 4, tab, power.DefaultModel(), tab.Max())
	k := oskernel.New(chip)
	dev := nic.New(eng, 1, nic.DefaultConfig())
	r := &rig{eng: eng, chip: chip, k: k, dev: dev}
	r.drv = New(k, dev, DefaultConfig(), hooks, func(p *netsim.Packet, _ int) {
		r.rx = append(r.rx, p)
		r.rxTime = append(r.rxTime, eng.Now())
	})
	return r
}

func TestRxPathDeliversThroughIRQAndSoftIRQ(t *testing.T) {
	r := newRig(PowerHooks{})
	r.dev.Receive(netsim.NewRequest(2, 1, 7, []byte("GET /")))
	r.eng.Run(sim.Millisecond)
	if len(r.rx) != 1 || r.rx[0].ReqID != 7 {
		t.Fatalf("delivered = %v", r.rx)
	}
	// Delivery happens after DMA (≈0.6µs) + PITT (25µs) + IRQ (2µs) +
	// softirq dispatch (1µs) + per-packet stack (2µs) ≈ 30.5µs.
	if r.rxTime[0] < 28*sim.Microsecond || r.rxTime[0] > 40*sim.Microsecond {
		t.Fatalf("delivery at %v, want ~30µs", r.rxTime[0])
	}
	if r.k.HardIRQs.Value() != 1 {
		t.Fatalf("hard IRQs = %d", r.k.HardIRQs.Value())
	}
	if r.drv.Delivered.Value() != 1 {
		t.Fatalf("Delivered = %d", r.drv.Delivered.Value())
	}
}

func TestRxBatchRespectsNAPIBudget(t *testing.T) {
	r := newRig(PowerHooks{})
	for i := 0; i < 100; i++ {
		r.dev.Receive(netsim.NewRequest(2, 1, uint64(i), []byte("GET /")))
	}
	r.eng.Run(10 * sim.Millisecond)
	if len(r.rx) != 100 {
		t.Fatalf("delivered = %d, want 100", len(r.rx))
	}
	// 100 packets with budget 64 needs at least two poll batches.
	if r.drv.Polls.Value() < 2 {
		t.Fatalf("polls = %d, want >= 2", r.drv.Polls.Value())
	}
	// FIFO order preserved end to end.
	for i, p := range r.rx {
		if p.ReqID != uint64(i) {
			t.Fatalf("packet %d has ReqID %d", i, p.ReqID)
		}
	}
}

func TestITHighSequence(t *testing.T) {
	var boosted, menuOff, inhibited bool
	r := newRig(PowerHooks{
		Boost:           func(int) { boosted = true },
		MenuDisable:     func(int) { menuOff = true },
		MenuEnable:      func(int) { menuOff = false },
		OndemandInhibit: func() { inhibited = true },
	})
	r.dev.Queue(0).EnableNCAP(core.DefaultConfig(), chipState{r.chip})
	r.dev.Queue(0).Monitor().ProgramStrings("GET")
	// Force a non-max current frequency so IT_HIGH isn't suppressed.
	r.chip.SetPState(r.chip.Table().Min())
	r.eng.Run(20 * sim.Microsecond)

	for i := 0; i < 20; i++ {
		r.dev.Receive(netsim.NewRequest(2, 1, uint64(i), []byte("GET /")))
	}
	r.eng.Run(sim.Millisecond)
	if !boosted || !menuOff || !inhibited {
		t.Fatalf("IT_HIGH sequence incomplete: boost=%v menuOff=%v inhibit=%v", boosted, menuOff, inhibited)
	}
	if r.drv.Boosts.Value() < 1 {
		t.Fatalf("boosts = %d", r.drv.Boosts.Value())
	}
}

func TestITLowReenablesMenuAndStepsDown(t *testing.T) {
	var menuOn, stepped bool
	menuOff := false
	var r *rig
	r = newRig(PowerHooks{
		Boost:       func(int) { r.chip.Boost() },
		MenuDisable: func(int) { menuOff = true },
		MenuEnable:  func(int) { menuOn = true; menuOff = false },
		StepDown:    func(int) { stepped = true },
	})
	r.dev.Queue(0).EnableNCAP(core.DefaultConfig(), chipState{r.chip})
	r.dev.Queue(0).Monitor().ProgramStrings("GET")
	r.chip.SetPState(r.chip.Table().Min())
	r.eng.Run(20 * sim.Microsecond)

	// Burst (IT_HIGH, menu off), then silence (IT_LOW after 1 ms).
	for i := 0; i < 20; i++ {
		r.dev.Receive(netsim.NewRequest(2, 1, uint64(i), []byte("GET /")))
	}
	r.eng.Run(10 * sim.Millisecond)
	if !menuOn || menuOff {
		t.Fatal("menu governor not re-enabled by first IT_LOW")
	}
	if !stepped {
		t.Fatal("frequency never stepped down")
	}
	if r.drv.StepDowns.Value() < 1 {
		t.Fatalf("stepdowns = %d", r.drv.StepDowns.Value())
	}
}

func TestCITWakePollsEmptyRingSafely(t *testing.T) {
	// A CIT wake interrupt can arrive before any packet finishes DMA; the
	// poll must handle the empty ring and unmask.
	r := newRig(PowerHooks{})
	r.dev.Queue(0).EnableNCAP(core.DefaultConfig(), chipState{r.chip})
	r.dev.Queue(0).Monitor().ProgramStrings("GET")
	r.eng.Run(sim.Millisecond) // long silent gap
	r.dev.Receive(netsim.NewRequest(2, 1, 1, []byte("GET /")))
	r.eng.Run(5 * sim.Millisecond)
	if len(r.rx) != 1 {
		t.Fatalf("delivered = %d, want 1", len(r.rx))
	}
}

func TestTxPathTransmitsAndCharges(t *testing.T) {
	r := newRig(PowerHooks{})
	sink := &txSink{}
	r.dev.SetLink(netsim.NewLink(r.eng, netsim.DefaultLinkConfig(), sink))
	pkts := netsim.NewPacketList().SegmentResponse(nil, 1, 2, 9, 5000)
	r.drv.Send(2, pkts)
	r.eng.Run(sim.Millisecond)
	if len(sink.got) != len(pkts) {
		t.Fatalf("transmitted %d, want %d", len(sink.got), len(pkts))
	}
	// Tx work was charged on core 2.
	if r.chip.Core(2).BusyTime() == 0 {
		t.Fatal("tx cycles not charged on core 2")
	}
}

type txSink struct{ got []*netsim.Packet }

func (s *txSink) Receive(p *netsim.Packet) { s.got = append(s.got, p) }

func TestSoftwareNCAPBoostsViaTimer(t *testing.T) {
	boosts := 0
	var menuCores []int
	r := newRig(PowerHooks{
		Boost:       func(int) { boosts++ },
		MenuDisable: func(id int) { menuCores = append(menuCores, id) },
	})
	r.drv.EnableSoftwareNCAP(core.DefaultConfig(), chipState{r.chip}, "GET")
	r.chip.SetPState(r.chip.Table().Min())
	r.eng.Run(20 * sim.Microsecond)

	// 60 GETs within one 1 ms window: 60 K RPS > RHT.
	for i := 0; i < 60; i++ {
		d := sim.Duration(i) * 10 * sim.Microsecond
		r.eng.ScheduleArg(d, func(any) {
			r.dev.Receive(netsim.NewRequest(2, 1, 1, []byte("GET /")))
		}, nil)
	}
	r.eng.Run(5 * sim.Millisecond)
	if boosts == 0 {
		t.Fatal("ncap.sw never boosted")
	}
	if !r.drv.SoftwareNCAP() {
		t.Fatal("SoftwareNCAP() = false")
	}
	// ncap.sw runs the queues' IT_HIGH sequence on behalf of the IRQ core,
	// taking the menu-disable reference once however often it boosts.
	if len(menuCores) != 1 || menuCores[0] != r.k.IRQCore() {
		t.Fatalf("menu disabled on cores %v, want once on IRQ core %d", menuCores, r.k.IRQCore())
	}
}

func TestSoftwareNCAPChargesInspectionCycles(t *testing.T) {
	// The same packet load must consume more core-0 CPU with ncap.sw than
	// without — the overhead that makes ncap.sw lose at high load.
	run := func(sw bool) sim.Duration {
		r := newRig(PowerHooks{Boost: func(int) {}})
		if sw {
			r.drv.EnableSoftwareNCAP(core.DefaultConfig(), chipState{r.chip}, "GET")
		}
		for i := 0; i < 200; i++ {
			d := sim.Duration(i) * 5 * sim.Microsecond
			r.eng.ScheduleArg(d, func(any) {
				r.dev.Receive(netsim.NewRequest(2, 1, 1, []byte("GET /")))
			}, nil)
		}
		r.eng.Run(20 * sim.Millisecond)
		return r.chip.Core(0).BusyTime()
	}
	plain, sw := run(false), run(true)
	if sw <= plain {
		t.Fatalf("ncap.sw busy %v not above plain %v", sw, plain)
	}
}

func TestSoftwareNCAPStepsDownWhenQuiet(t *testing.T) {
	steps := 0
	r := newRig(PowerHooks{StepDown: func(int) { steps++ }})
	r.drv.EnableSoftwareNCAP(core.DefaultConfig(), chipState{r.chip}, "GET")
	// Total silence for 10 ms: the 1 ms timer accumulates low windows.
	r.eng.Run(10 * sim.Millisecond)
	if steps == 0 {
		t.Fatal("ncap.sw never stepped down")
	}
}

func TestDriverResetStats(t *testing.T) {
	r := newRig(PowerHooks{})
	r.dev.Receive(netsim.NewRequest(2, 1, 1, []byte("GET /")))
	r.eng.Run(sim.Millisecond)
	r.drv.ResetStats()
	if r.drv.Delivered.Value() != 0 || r.drv.Polls.Value() != 0 {
		t.Fatal("stats not reset")
	}
}

func TestTOEFactorReducesStackCost(t *testing.T) {
	run := func(factor float64) sim.Duration {
		eng := sim.NewEngine()
		tab := power.DefaultTable()
		chip := cpu.New(eng, 4, tab, power.DefaultModel(), tab.Max())
		k := oskernel.New(chip)
		dev := nic.New(eng, 1, nic.DefaultConfig())
		cfg := DefaultConfig()
		cfg.TOEFactor = factor
		drv := New(k, dev, cfg, PowerHooks{}, func(*netsim.Packet, int) {})
		for i := 0; i < 100; i++ {
			dev.Receive(netsim.NewRequest(2, 1, uint64(i), []byte("GET /")))
		}
		eng.Run(10 * sim.Millisecond)
		_ = drv
		return chip.Core(0).BusyTime()
	}
	stock, toe := run(1), run(0.5)
	if toe >= stock {
		t.Fatalf("TOE busy %v not below stock %v", toe, stock)
	}
}

func TestMultiQueueDriverRoutesPerCore(t *testing.T) {
	eng := sim.NewEngine()
	tab := power.DefaultTable()
	chip := cpu.New(eng, 4, tab, power.DefaultModel(), tab.Max())
	k := oskernel.New(chip)
	cfg := nic.DefaultConfig()
	cfg.Queues = 4
	dev := nic.New(eng, 1, cfg)
	var gotCores []int
	drv := New(k, dev, DefaultConfig(), PowerHooks{}, func(p *netsim.Packet, coreID int) {
		gotCores = append(gotCores, coreID)
	})
	if drv.QueueCore(2) != 2 {
		t.Fatalf("queue 2 core = %d", drv.QueueCore(2))
	}
	// Packets from peers 2 and 3 land on queues (and cores) 2 and 3.
	dev.Receive(netsim.NewRequest(2, 1, 1, []byte("GET /")))
	dev.Receive(netsim.NewRequest(3, 1, 2, []byte("GET /")))
	eng.Run(sim.Millisecond)
	if len(gotCores) != 2 {
		t.Fatalf("delivered = %d", len(gotCores))
	}
	seen := map[int]bool{gotCores[0]: true, gotCores[1]: true}
	if !seen[2] || !seen[3] {
		t.Fatalf("poll cores = %v, want {2,3}", gotCores)
	}
}

func TestDeliveryLatencyMatchesPaper(t *testing.T) {
	// Sec. 2.2: the NIC→memory→softirq delivery path (DMA, moderation,
	// ICR read, dispatch) averaged 86 µs in the paper's Apache runs. Our
	// substitution must keep the same order of magnitude, or NCAP's
	// wake/delivery overlap would be meaningless.
	r := newRig(PowerHooks{})
	type stamp struct{ rx, deliver sim.Time }
	stamps := map[uint64]*stamp{}
	r.drv.deliver = func(p *netsim.Packet, _ int) { stamps[p.ReqID].deliver = r.eng.Now() }
	// A 64-packet burst arriving at wire rate, like a client burst head.
	for i := 0; i < 64; i++ {
		id := uint64(i)
		d := sim.Duration(i) * 150 * sim.Nanosecond
		r.eng.ScheduleArg(d, func(any) {
			stamps[id] = &stamp{rx: r.eng.Now()}
			r.dev.Receive(netsim.NewRequest(2, 1, id, []byte("GET /index.html")))
		}, nil)
	}
	r.eng.Run(10 * sim.Millisecond)
	var total sim.Duration
	for _, s := range stamps {
		if s.deliver == 0 {
			t.Fatal("packet never delivered")
		}
		total += s.deliver - s.rx
	}
	mean := total / 64
	if mean < 40*sim.Microsecond || mean > 170*sim.Microsecond {
		t.Fatalf("mean delivery latency = %v, want the paper's ~86µs order", mean)
	}
	t.Logf("mean NIC→application delivery latency: %v (paper: ~86µs)", mean)
}

func TestMenuDisableRefcountAcrossQueuesSharingCore(t *testing.T) {
	// Two queues on the same core (8 queues, 4 cores): one queue's IT_LOW
	// must not re-enable the core's menu governor while the sibling still
	// holds the disable.
	eng := sim.NewEngine()
	tab := power.DefaultTable()
	chip := cpu.New(eng, 4, tab, power.DefaultModel(), tab.Max())
	k := oskernel.New(chip)
	cfg := nic.DefaultConfig()
	cfg.Queues = 8
	dev := nic.New(eng, 1, cfg)
	disabled := map[int]bool{}
	drv := New(k, dev, DefaultConfig(), PowerHooks{
		Boost:       func(int) {},
		StepDown:    func(int) {},
		MenuDisable: func(id int) { disabled[id] = true },
		MenuEnable:  func(id int) { disabled[id] = false },
	}, func(*netsim.Packet, int) {})

	// Queues 0 and 4 both serve core 0.
	c0, c4 := drv.ctxs[0], drv.ctxs[4]
	c0.actHigh()
	c4.actHigh()
	if !disabled[0] {
		t.Fatal("menu not disabled")
	}
	c4.actLow() // sibling releases its reference
	if !disabled[0] {
		t.Fatal("menu re-enabled while queue 0 still holds the disable")
	}
	c0.actLow()
	if disabled[0] {
		t.Fatal("menu not re-enabled after the last holder released")
	}
}

// An urgent NCAP wake (a CIT-gap request match) interrupts while a poll
// batch is still being processed, and the NET_RX softirq starts a second
// poll chain mid-batch. Each batch keeps its own cursor: every frame of
// both batches is delivered exactly once and in arrival order.
func TestUrgentWakeStartsSecondPollChainMidBatch(t *testing.T) {
	r := newRig(PowerHooks{})
	cfg := core.DefaultConfig()
	cfg.CIT = 10 * sim.Microsecond
	r.dev.Queue(0).EnableNCAP(cfg, chipState{r.chip})
	r.dev.Queue(0).Monitor().ProgramStrings("GET")
	// Batch one: 40 frames NCAP does not classify as latency-critical,
	// ~80 µs of stack processing once moderation fires.
	for i := 0; i < 40; i++ {
		r.dev.Receive(netsim.NewRequest(2, 1, uint64(i), []byte("PUT /")))
	}
	var midBatch int
	r.eng.AtArg(60*sim.Microsecond, func(any) {
		midBatch = len(r.rx)
		for i := 100; i < 103; i++ {
			r.dev.Receive(netsim.NewRequest(2, 1, uint64(i), []byte("GET /")))
		}
	}, nil)
	r.eng.Run(sim.Millisecond)

	if midBatch == 0 || midBatch >= 40 {
		t.Fatalf("%d frames delivered when the wake arrived; want it mid-batch", midBatch)
	}
	if r.drv.Polls.Value() < 2 {
		t.Fatalf("polls = %d, want a second poll chain", r.drv.Polls.Value())
	}
	if len(r.rx) != 43 {
		t.Fatalf("delivered %d frames, want 43", len(r.rx))
	}
	var put, get []uint64
	firstGet := -1
	for i, p := range r.rx {
		if p.ReqID >= 100 {
			get = append(get, p.ReqID)
			if firstGet < 0 {
				firstGet = i
			}
		} else {
			put = append(put, p.ReqID)
		}
	}
	for i, id := range put {
		if id != uint64(i) {
			t.Fatalf("batch one delivered out of order: %v", put)
		}
	}
	for i, id := range get {
		if id != uint64(100+i) {
			t.Fatalf("batch two delivered out of order: %v", get)
		}
	}
	if firstGet >= 40 {
		t.Fatal("batch two started only after batch one finished")
	}
}
