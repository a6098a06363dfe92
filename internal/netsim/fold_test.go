package netsim

import (
	"fmt"
	"testing"

	"ncap/internal/fault"
	"ncap/internal/sim"
)

// A frame crossing link → switch → link pays the forwarding delay once,
// inside the ingress link's delivery: it reaches its receiver at
// t0 + 2·ser + 2·lat + fw, and the engine fires two events for it, one
// delivery per link. Collected inside the forwarding delay, the frame
// counts as forwarded. With no forwarding delay the timing and the event
// count are the same less fw.
func TestSwitchHopFoldsIntoDelivery(t *testing.T) {
	for _, fw := range []sim.Duration{500 * sim.Nanosecond, 0} {
		eng := sim.NewEngine()
		t0 := sim.Time(7 * sim.Microsecond)
		eng.Run(t0)
		sw := NewSwitch(eng, fw)
		dst := &sink{eng: eng}
		sw.Attach(2, DefaultLinkConfig(), dst)
		in := NewLink(eng, DefaultLinkConfig(), sw)
		p := NewRequest(1, 2, 1, make([]byte, 1000))
		ser := in.serialization(p.WireSize())
		in.Send(p)
		arrival := t0 + ser + DefaultLinkConfig().Latency
		fired := eng.Run(arrival + fw/2)
		if fwd, _ := sw.Held(); fw > 0 && (fwd != 1 || fired != 0) {
			t.Fatalf("fw %v: inside the delay %d held, %d fired; want 1 held, none fired", fw, fwd, fired)
		}
		fired += eng.Run(sim.Second)

		want := t0 + 2*ser + 2*DefaultLinkConfig().Latency + fw
		if len(dst.times) != 1 || dst.times[0] != want {
			t.Fatalf("fw %v: delivered at %v, want one frame at %v", fw, dst.times, want)
		}
		if fired != 2 {
			t.Fatalf("fw %v: the engine fired %d events, want 2", fw, fired)
		}
		if got, _ := sw.Held(); got != 0 || sw.Forwarded.Value() != 1 {
			t.Fatalf("fw %v: forwarded %d, held %d at quiescence", fw, sw.Forwarded.Value(), got)
		}
	}
}

// refSwitch is the reference model for a switch hop: the scheme Switch
// used before the forwarding delay moved into the ingress link. It routes
// each frame on arrival, counting it, and forwards it by an event of its
// own fw later.
type refSwitch struct {
	*Switch
	fwd, unroutable int64
}

func refForward(a0, a1 any) { a0.(*Link).Send(a1.(*Packet)) }

func (r *refSwitch) Receive(p *Packet) {
	out := r.route(p)
	if out == nil {
		r.unroutable++
		p.Release()
		return
	}
	r.fwd++
	r.eng.ScheduleArg2(r.fwDelay, refForward, out, p)
}

// fabric is one switch with two faulty ingress links and two small-buffer
// egress ports, under test or as the reference.
type fabric struct {
	eng   *sim.Engine
	sw    *Switch
	ref   *refSwitch // nil on the fabric under test
	links []*Link    // ingress, then egress
	log   []delivery
}

// Receive logs a frame leaving an egress port.
func (f *fabric) Receive(p *Packet) {
	f.log = append(f.log, delivery{f.eng.Now(), p.ReqID, p.Corrupt})
	p.Release()
}

func newFabric(seed uint64, reference bool) *fabric {
	f := &fabric{eng: sim.NewEngine()}
	f.sw = NewSwitch(f.eng, 500*sim.Nanosecond)
	var into Receiver = f.sw
	if reference {
		f.ref = &refSwitch{Switch: f.sw}
		into = f.ref
	}
	cfg := DefaultLinkConfig()
	ser := sim.Duration(1500 * 8 * int64(sim.Second) / cfg.BandwidthBps)
	model := fault.Model{
		Loss: fault.LossBernoulli, P: 0.05,
		CorruptP: 0.05, DupP: 0.1,
		ReorderP: 0.3, ReorderMax: 3 * ser,
	}
	for i := 0; i < 2; i++ {
		l := NewLink(f.eng, cfg, into)
		l.SetInjector(fault.NewInjector(model, seed, fmt.Sprintf("in%d", i)))
		f.links = append(f.links, l)
	}
	out := cfg
	out.QueueBytes = 4500 // three full frames
	for addr := Addr(1); addr <= 2; addr++ {
		f.links = append(f.links, f.sw.Attach(addr, out, f))
	}
	return f
}

// counts returns what Result.Events and the switch's rollup would read:
// fired events plus completions, the folded forwards and the held frames.
func (f *fabric) counts() (events uint64, fwd, unroutable int64) {
	events = f.eng.Fired()
	for _, l := range f.links {
		events += l.Completions()
	}
	if f.ref != nil {
		return events, f.ref.fwd, f.ref.unroutable
	}
	fwd, unroutable = f.sw.Held()
	events += uint64(f.sw.Forwarded.Value() + fwd + unroutable)
	return events, f.sw.Forwarded.Value() + fwd, f.sw.Unroutable.Value() + unroutable
}

// ownHeld counts the held frames that their own delivery event carries.
func (f *fabric) ownHeld() (n int) {
	for _, l := range f.links {
		for _, r := range l.own {
			if r.key.When()-l.hold <= f.eng.Now() {
				n++
			}
		}
	}
	return n
}

// TestHeldFramesKeepPerForwardCounts feeds a folded switch hop and the
// per-forward-event reference the same faulty, tie-heavy traffic, some of
// it unroutable, and collects both at every multiple of 37 ns (so many
// collections fall inside a frame's forwarding delay, and some on a
// delivery's instant). Event counts, forwarded and unroutable counts, and
// every frame's egress delivery must match.
func TestHeldFramesKeepPerForwardCounts(t *testing.T) {
	var inside, own int
	for seed := uint64(1); seed <= 10; seed++ {
		fold, ref := newFabric(seed, false), newFabric(seed, true)
		rng := sim.NewRand(seed, "held")
		ser := fold.links[0].serialization(1500)
		for i := 0; i < 300; i++ {
			at := sim.Time(rng.Intn(150)) * ser
			in := rng.Intn(2)
			dst := Addr(1 + rng.Intn(3)) // 3 is unroutable
			size := 1434
			if rng.Bool(0.3) {
				size = rng.Intn(1434)
			}
			payload := make([]byte, size)
			for _, f := range []*fabric{fold, ref} {
				p := NewRequest(9, dst, uint64(i), payload)
				l := f.links[in]
				f.eng.AtArg(at, func(any) { l.Send(p) }, nil)
			}
		}
		for now := sim.Time(0); fold.eng.Pending()+ref.eng.Pending() > 0; now += 37 {
			fold.eng.Run(now)
			ref.eng.Run(now)
			e1, f1, u1 := fold.counts()
			e2, f2, u2 := ref.counts()
			if e1 != e2 || f1 != f2 || u1 != u2 {
				t.Fatalf("seed %d at %v: events/forwarded/unroutable %d/%d/%d, reference %d/%d/%d",
					seed, now, e1, f1, u1, e2, f2, u2)
			}
			if fwd, unr := fold.sw.Held(); fwd+unr > 0 {
				inside++
			}
			own += fold.ownHeld()
		}
		if fmt.Sprint(fold.log) != fmt.Sprint(ref.log) {
			t.Fatalf("seed %d: egress delivered\n%v\nreference\n%v", seed, fold.log, ref.log)
		}
		if fold.sw.Unroutable.Value() == 0 || fold.links[2].Drops.Value()+fold.links[3].Drops.Value() == 0 {
			t.Fatalf("seed %d: no unroutable frame or no egress drop; the panel is not exercised", seed)
		}
	}
	if inside == 0 || own == 0 {
		t.Fatalf("%d collections fell inside a forwarding delay, %d held frames were overtakers; want both > 0", inside, own)
	}
}
