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
// delivery per link. With no forwarding delay the timing and the event
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
		fired := eng.Run(sim.Second)

		want := t0 + 2*ser + 2*DefaultLinkConfig().Latency + fw
		if len(dst.times) != 1 || dst.times[0] != want {
			t.Fatalf("fw %v: delivered at %v, want one frame at %v", fw, dst.times, want)
		}
		if fired != 2 {
			t.Fatalf("fw %v: the engine fired %d events, want 2", fw, fired)
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
		P: 0.05, CorruptP: 0.05, DupP: 0.1,
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

// TestHeldFramesKeepPerForwardCounts feeds a folded switch hop and the
// per-forward-event reference the same faulty, tie-heavy traffic, some of
// it unroutable. Every frame's egress delivery must match, and at
// quiescence so must the forwarded and unroutable counts.
func TestHeldFramesKeepPerForwardCounts(t *testing.T) {
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
		fold.eng.Run(sim.Second)
		ref.eng.Run(sim.Second)
		if fmt.Sprint(fold.log) != fmt.Sprint(ref.log) {
			t.Fatalf("seed %d: egress delivered\n%v\nreference\n%v", seed, fold.log, ref.log)
		}
		if f, u := fold.sw.Forwarded.Value(), fold.sw.Unroutable.Value(); f != ref.ref.fwd || u != ref.ref.unroutable {
			t.Fatalf("seed %d: forwarded/unroutable %d/%d, reference %d/%d", seed, f, u, ref.ref.fwd, ref.ref.unroutable)
		}
		if fold.sw.Unroutable.Value() == 0 || fold.links[2].Drops.Value()+fold.links[3].Drops.Value() == 0 ||
			fold.links[0].FaultDelays.Value()+fold.links[1].FaultDelays.Value() == 0 {
			t.Fatalf("seed %d: no unroutable frame, egress drop or delayed frame; the panel is not exercised", seed)
		}
	}
}
