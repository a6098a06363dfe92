package app

import (
	"strings"
	"testing"

	"ncap/internal/cpu"
	"ncap/internal/driver"
	"ncap/internal/netsim"
	"ncap/internal/nic"
	"ncap/internal/oskernel"
	"ncap/internal/power"
	"ncap/internal/sim"
)

func TestProfilesValid(t *testing.T) {
	for _, p := range []Profile{ApacheProfile(), MemcachedProfile()} {
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", p.Name, err)
		}
	}
}

func TestProfileByName(t *testing.T) {
	if p, err := ProfileByName("apache"); err != nil || p.Name != "apache" {
		t.Fatalf("apache lookup: %v %v", p, err)
	}
	if p, err := ProfileByName("memcached"); err != nil || p.Name != "memcached" {
		t.Fatalf("memcached lookup: %v %v", p, err)
	}
	if _, err := ProfileByName("nginx"); err == nil || !strings.Contains(err.Error(), "unknown") {
		t.Fatalf("unknown lookup err = %v", err)
	}
}

func TestProfileContrast(t *testing.T) {
	a, m := ApacheProfile(), MemcachedProfile()
	if a.DiskProb <= 0 {
		t.Error("Apache must be I/O-intensive")
	}
	if m.DiskProb != 0 {
		t.Error("Memcached must be memory-resident")
	}
	if a.AppCycles <= m.AppCycles {
		t.Error("Apache requests must cost more CPU than Memcached's")
	}
	if a.ResponseBytes <= netsim.MSS {
		t.Error("Apache responses must span multiple segments")
	}
	if m.ResponseBytes > netsim.MSS {
		t.Error("Memcached responses must fit one segment")
	}
}

func TestProfileValidation(t *testing.T) {
	p := ApacheProfile()
	p.RequestBytes = 3
	if err := p.Validate(); err == nil {
		t.Fatal("undersized request accepted")
	}
	p = ApacheProfile()
	p.DiskProb = 1.5
	if err := p.Validate(); err == nil {
		t.Fatal("bad disk probability accepted")
	}
	p = MemcachedProfile()
	p.AppCycles = 0
	if err := p.Validate(); err == nil {
		t.Fatal("zero cycles accepted")
	}
}

func TestRequestPayload(t *testing.T) {
	p := ApacheProfile()
	b := p.RequestPayload()
	if len(b) != p.RequestBytes {
		t.Fatalf("payload len = %d", len(b))
	}
	if string(b[:3]) != "GET" {
		t.Fatalf("payload prefix = %q", b[:3])
	}
}

// readDone adapts a function to a DiskReader.
type readDone func()

func (f readDone) ReadDone() { f() }

func TestDiskConcurrencyAndQueueing(t *testing.T) {
	eng := sim.NewEngine()
	rng := sim.NewRand(1, "disk")
	d := NewDisk(eng, rng, sim.Millisecond, 2)
	done := 0
	for i := 0; i < 6; i++ {
		d.Read(readDone(func() { done++ }))
	}
	if d.Inflight() != 2 || d.Queued() != 4 {
		t.Fatalf("inflight=%d queued=%d, want 2/4", d.Inflight(), d.Queued())
	}
	eng.Run(sim.Second)
	if done != 6 {
		t.Fatalf("done = %d", done)
	}
	if d.Reads.Value() != 6 {
		t.Fatalf("reads = %d", d.Reads.Value())
	}
	if d.MaxQueue != 4 {
		t.Fatalf("max queue = %d", d.MaxQueue)
	}
}

func TestDiskMeanServiceTime(t *testing.T) {
	eng := sim.NewEngine()
	rng := sim.NewRand(2, "disk")
	d := NewDisk(eng, rng, sim.Millisecond, 1)
	var total sim.Duration
	var last sim.Time
	const n = 2000
	remaining := n
	var issue func()
	issue = func() {
		d.Read(readDone(func() {
			total += eng.Now() - last
			last = eng.Now()
			remaining--
			if remaining > 0 {
				issue()
			}
		}))
	}
	issue()
	eng.Run(time100s())
	mean := total / n
	if mean < 900*sim.Microsecond || mean > 1100*sim.Microsecond {
		t.Fatalf("mean service = %v, want ~1ms", mean)
	}
}

func time100s() sim.Time { return 100 * sim.Second }

// serverRig wires a full server node: chip+kernel+nic+driver+server.
type serverRig struct {
	eng  *sim.Engine
	chip *cpu.Chip
	k    *oskernel.Kernel
	dev  *nic.NIC
	drv  *driver.Driver
	srv  *Server
	out  *sinkReceiver // captures transmitted response segments
}

type sinkReceiver struct{ got []*netsim.Packet }

func (s *sinkReceiver) Receive(p *netsim.Packet) { s.got = append(s.got, p) }

func newServerRig(profile Profile) *serverRig {
	eng := sim.NewEngine()
	tab := power.DefaultTable()
	chip := cpu.New(eng, 4, tab, power.DefaultModel(), tab.Max())
	k := oskernel.New(chip)
	dev := nic.New(eng, 1, nic.DefaultConfig())
	r := &serverRig{eng: eng, chip: chip, k: k, dev: dev}
	r.out = &sinkReceiver{}
	dev.SetLink(netsim.NewLink(eng, netsim.DefaultLinkConfig(), r.out))
	var srv *Server
	r.drv = driver.New(k, dev, driver.DefaultConfig(), driver.PowerHooks{}, func(p *netsim.Packet, pollCore int) {
		srv.HandleDelivered(p, pollCore)
	})
	srv = NewServer(k, r.drv, profile, sim.NewRand(7, "server"), 1, nil)
	r.srv = srv
	return r
}

func TestServerServesMemcachedRequest(t *testing.T) {
	r := newServerRig(MemcachedProfile())
	req := netsim.NewRequest(2, 1, 42, MemcachedProfile().RequestPayload())
	r.dev.Receive(req)
	r.eng.Run(10 * sim.Millisecond)
	if r.srv.Served.Value() != 1 {
		t.Fatalf("served = %d", r.srv.Served.Value())
	}
	if len(r.out.got) != 1 {
		t.Fatalf("response segments = %d, want 1", len(r.out.got))
	}
	resp := r.out.got[0]
	if resp.ReqID != 42 || resp.Dst != 2 || resp.Kind != netsim.KindResponse {
		t.Fatalf("response = %+v", resp)
	}
}

func TestServerApacheMultiSegmentResponse(t *testing.T) {
	r := newServerRig(ApacheProfile())
	req := netsim.NewRequest(2, 1, 1, ApacheProfile().RequestPayload())
	r.dev.Receive(req)
	r.eng.Run(50 * sim.Millisecond)
	if r.srv.Served.Value() != 1 {
		t.Fatalf("served = %d", r.srv.Served.Value())
	}
	if len(r.out.got) < 2 {
		t.Fatalf("segments = %d, want multi-segment", len(r.out.got))
	}
	total := 0
	for _, p := range r.out.got {
		total += p.PayloadLen
	}
	if total < 1024 {
		t.Fatalf("response bytes = %d, implausibly small", total)
	}
}

func TestServerIgnoresNonRequests(t *testing.T) {
	r := newServerRig(MemcachedProfile())
	bulk := &netsim.Packet{Src: 2, Dst: 1, Kind: netsim.KindBulk, PayloadLen: 1000, SegCount: 1}
	r.dev.Receive(bulk)
	r.eng.Run(5 * sim.Millisecond)
	if r.srv.Served.Value() != 0 || r.srv.Ignored.Value() != 1 {
		t.Fatalf("served=%d ignored=%d", r.srv.Served.Value(), r.srv.Ignored.Value())
	}
}

func TestServerDiskPathReleasesCore(t *testing.T) {
	p := ApacheProfile()
	p.DiskProb = 1 // force every request through storage
	p.DiskMean = 5 * sim.Millisecond
	r := newServerRig(p)
	r.dev.Receive(netsim.NewRequest(2, 1, 1, p.RequestPayload()))
	r.eng.Run(2 * sim.Millisecond)
	// While the disk access is in flight, no core may be busy.
	for _, c := range r.chip.Cores() {
		if c.Busy() {
			t.Fatalf("core %d busy during disk wait", c.ID())
		}
	}
	if r.srv.DiskReads.Value() != 1 {
		t.Fatalf("disk reads = %d", r.srv.DiskReads.Value())
	}
	r.eng.Run(100 * sim.Millisecond)
	if r.srv.Served.Value() != 1 {
		t.Fatal("request never completed after disk read")
	}
}

func TestTargetPeriodFor(t *testing.T) {
	// 3 clients, 100-request bursts, 30 K RPS total -> 10 ms period.
	if got := TargetPeriodFor(30_000, 100, 3); got != 10*sim.Millisecond {
		t.Fatalf("period = %v, want 10ms", got)
	}
}

// loopback wires a client directly to a serving rig through a switch.
func TestClientServerRoundTrip(t *testing.T) {
	r := newServerRig(MemcachedProfile())
	sw := netsim.NewSwitch(r.eng, 500*sim.Nanosecond)
	// Server side: NIC egress -> switch; switch -> server NIC.
	r.dev.SetLink(netsim.NewLink(r.eng, netsim.DefaultLinkConfig(), sw))
	sw.Attach(1, netsim.DefaultLinkConfig(), r.dev)

	cfg := DefaultClientConfig()
	cfg.BurstSize = 20
	cfg.Period = 5 * sim.Millisecond
	cl := NewClient(r.eng, 2, 1, netsim.NewLink(r.eng, netsim.DefaultLinkConfig(), sw),
		MemcachedProfile().RequestPayload(), cfg, sim.NewRand(3, "client"), nil)
	sw.Attach(2, netsim.DefaultLinkConfig(), cl)

	cl.Start()
	r.eng.Run(100 * sim.Millisecond)

	if cl.Completed.Value() < 300 {
		t.Fatalf("completed = %d, want ~400", cl.Completed.Value())
	}
	if cl.Outstanding() > 25 {
		t.Fatalf("outstanding = %d", cl.Outstanding())
	}
	lat := cl.Latency().Summarize()
	if lat.P95 <= 0 || lat.P95 > 5*sim.Millisecond {
		t.Fatalf("p95 = %v, implausible for an idle server at P0", lat.P95)
	}
	if cl.Abandoned.Value() != 0 {
		t.Fatalf("abandoned = %d", cl.Abandoned.Value())
	}
}

func TestClientMeasurementBoundary(t *testing.T) {
	r := newServerRig(MemcachedProfile())
	sw := netsim.NewSwitch(r.eng, 0)
	r.dev.SetLink(netsim.NewLink(r.eng, netsim.DefaultLinkConfig(), sw))
	sw.Attach(1, netsim.DefaultLinkConfig(), r.dev)
	cfg := DefaultClientConfig()
	cfg.BurstSize = 10
	cfg.Period = 10 * sim.Millisecond
	cl := NewClient(r.eng, 2, 1, netsim.NewLink(r.eng, netsim.DefaultLinkConfig(), sw),
		MemcachedProfile().RequestPayload(), cfg, sim.NewRand(4, "client"), nil)
	sw.Attach(2, netsim.DefaultLinkConfig(), cl)
	cl.Start()
	r.eng.Run(50 * sim.Millisecond)
	preCount := cl.Latency().Count()
	if preCount == 0 {
		t.Fatal("no warmup completions")
	}
	cl.BeginMeasurement(100 * sim.Millisecond)
	if cl.Latency().Count() != 0 {
		t.Fatal("recorder not reset")
	}
	r.eng.Run(100 * sim.Millisecond)
	if cl.Latency().Count() == 0 {
		t.Fatal("no post-boundary completions recorded")
	}
}

func TestClientRetransmitOnSilentServer(t *testing.T) {
	eng := sim.NewEngine()
	sw := netsim.NewSwitch(eng, 0)
	// No server attached at addr 1: all requests vanish (unroutable).
	cfg := DefaultClientConfig()
	cfg.BurstSize = 5
	cfg.Period = sim.Second
	cfg.RTO = 10 * sim.Millisecond
	cfg.MaxRetries = 2
	cl := NewClient(eng, 2, 1, netsim.NewLink(eng, netsim.DefaultLinkConfig(), sw),
		[]byte("GET /"), cfg, sim.NewRand(5, "client"), nil)
	sw.Attach(2, netsim.DefaultLinkConfig(), cl)
	cl.Start()
	eng.Run(200 * sim.Millisecond)
	if cl.Retransmits.Value() != 10 { // 5 requests × 2 retries
		t.Fatalf("retransmits = %d, want 10", cl.Retransmits.Value())
	}
	if cl.Abandoned.Value() != 5 {
		t.Fatalf("abandoned = %d, want 5", cl.Abandoned.Value())
	}
	// Abandoned requests are recorded at give-up time (~30 ms).
	if got := cl.Latency().Percentile(50); got < 25*sim.Millisecond {
		t.Fatalf("abandoned latency = %v, want ~30ms", got)
	}
	if cl.Outstanding() != 0 {
		t.Fatalf("outstanding = %d", cl.Outstanding())
	}
}

func TestBulkSenderRate(t *testing.T) {
	eng := sim.NewEngine()
	sink := &sinkReceiver{}
	b := NewBulkSender(eng, 3, 1, netsim.NewLink(eng, netsim.DefaultLinkConfig(), sink), 100_000_000, 1400)
	b.Start()
	eng.Run(100 * sim.Millisecond)
	// 100 Mb/s with 1466-byte frames ≈ 8527 pkt/s → ~853 in 100 ms.
	got := b.Packets.Value()
	if got < 800 || got > 900 {
		t.Fatalf("bulk packets = %d, want ~853", got)
	}
	b.Stop()
	eng.Run(200 * sim.Millisecond)
	if b.Packets.Value() != got {
		t.Fatal("bulk sender kept emitting after Stop")
	}
	// Payload must NOT look latency-critical.
	if string(sink.got[0].Payload[:3]) != "PUT" {
		t.Fatalf("bulk payload prefix = %q", sink.got[0].Payload[:3])
	}
}

func TestServerAffinityPinsTasks(t *testing.T) {
	r := newServerRig(MemcachedProfile())
	r.srv.Affine = true
	// Deliver requests claiming poll-core 3: all app work lands there.
	for i := 0; i < 10; i++ {
		r.srv.HandleDelivered(netsim.NewRequest(2, 1, uint64(i), MemcachedProfile().RequestPayload()), 3)
	}
	r.eng.Run(10 * sim.Millisecond)
	if r.srv.Served.Value() != 10 {
		t.Fatalf("served = %d", r.srv.Served.Value())
	}
	if r.chip.Core(3).BusyTime() == 0 {
		t.Fatal("no work on the affine core")
	}
	for _, id := range []int{1, 2} {
		if r.chip.Core(id).BusyTime() != 0 {
			t.Fatalf("affine mode leaked work to core %d", id)
		}
	}
}

func TestServerNonAffineBalances(t *testing.T) {
	r := newServerRig(MemcachedProfile())
	for i := 0; i < 40; i++ {
		r.srv.HandleDelivered(netsim.NewRequest(2, 1, uint64(i), MemcachedProfile().RequestPayload()), 0)
	}
	r.eng.Run(10 * sim.Millisecond)
	busyCores := 0
	for _, c := range r.chip.Cores() {
		if c.BusyTime() > 0 {
			busyCores++
		}
	}
	if busyCores < 3 {
		t.Fatalf("work spread over %d cores, want >= 3", busyCores)
	}
}

func TestClientIgnoresDuplicateSegments(t *testing.T) {
	eng := sim.NewEngine()
	sw := netsim.NewSwitch(eng, 0)
	cfg := DefaultClientConfig()
	cfg.BurstSize = 1
	cfg.Period = sim.Second
	cfg.RTO = 0
	cl := NewClient(eng, 2, 1, netsim.NewLink(eng, netsim.DefaultLinkConfig(), sw),
		[]byte("GET /"), cfg, sim.NewRand(1, "c"), nil)
	sw.Attach(2, netsim.DefaultLinkConfig(), cl)
	cl.Start()
	eng.Run(sim.Millisecond)
	if cl.Outstanding() != 1 {
		t.Fatalf("outstanding = %d", cl.Outstanding())
	}
	id := uint64(2)<<40 | 0
	seg := func(i int) *netsim.Packet {
		return &netsim.Packet{Src: 1, Dst: 2, Kind: netsim.KindResponse,
			ReqID: id, Seg: i, SegCount: 3, PayloadLen: 100}
	}
	// Duplicates of segment 0 must not complete a 3-segment response.
	cl.Receive(seg(0))
	cl.Receive(seg(0))
	cl.Receive(seg(1))
	if cl.Completed.Value() != 0 {
		t.Fatal("completed on duplicate segments")
	}
	cl.Receive(seg(2))
	if cl.Completed.Value() != 1 {
		t.Fatal("did not complete with all distinct segments")
	}
}
