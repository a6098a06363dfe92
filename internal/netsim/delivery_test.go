package netsim

import (
	"fmt"
	"testing"

	"ncap/internal/fault"
	"ncap/internal/sim"
)

// refWire is the reference model for a link's deliveries: the scheme Link
// used before frames in flight were folded into its arrival FIFO. Its
// refLink keeps the egress accounting, and every frame that survives the
// injector's verdict is delivered by its own engine event.
type refWire struct {
	*refLink
	inj *fault.Injector
	dst Receiver
}

func refArrive(a0, a1 any) { a0.(*refWire).dst.Receive(a1.(*Packet)) }

func (r *refWire) sendFrame(p *Packet) {
	ws := p.WireSize()
	if !r.send(ws) {
		p.Release()
		return
	}
	arrival := r.busyTil + r.cfg.Latency
	if r.inj == nil {
		r.eng.AtArg2(arrival, refArrive, r, p)
		return
	}
	act := r.inj.Judge(r.eng.Now())
	if act.Drop {
		p.Release()
		return
	}
	if act.Corrupt {
		p.Corrupt = true
	}
	arrival += act.ExtraDelay
	r.eng.AtArg2(arrival, refArrive, r, p)
	if act.Duplicate {
		dup := p.list.Alloc()
		*dup = *p
		r.eng.AtArg2(arrival+sim.Duration(int64(ws)*8*int64(sim.Second)/r.cfg.BandwidthBps), refArrive, r, dup)
	}
}

// delivery is one frame handed to a receiver: when, which, and whether it
// arrived corrupted.
type delivery struct {
	at      sim.Time
	id      uint64
	corrupt bool
}

// logHop logs every frame it receives and relays it to the next hop's
// link (or reference), like a switch with no forwarding delay; the last
// hop releases it.
type logHop struct {
	log  *[]delivery
	next func(*Packet)
	eng  *sim.Engine
}

func (h logHop) Receive(p *Packet) {
	*h.log = append(*h.log, delivery{h.eng.Now(), p.ReqID, p.Corrupt})
	if h.next != nil {
		h.next(p)
	} else {
		p.Release()
	}
}

// TestLinkDeliveriesMatchPerFrameEvents sends tie-heavy traffic of random
// sizes over a chain of faulty links — loss, corruption, duplicates and
// random extra delays — beside a chain of per-frame-event references fed
// the same frames with the same injector streams. Every hop must receive
// the same frames, in the same order, at the same times.
func TestLinkDeliveriesMatchPerFrameEvents(t *testing.T) {
	var overtakes int
	for seed := uint64(1); seed <= 20; seed++ {
		overtakes += runFaultyHops(t, seed)
		if t.Failed() {
			return
		}
	}
	t.Logf("%d frames overtook a frame in flight", overtakes)
	if overtakes == 0 {
		t.Fatal("no frame overtook a frame in flight; the own-event path is not exercised")
	}
}

// runFaultyHops runs one seed and returns how many committed frames were
// delivered by their own event rather than from the arrival FIFO.
func runFaultyHops(t *testing.T, seed uint64) (overtakes int) {
	rng := sim.NewRand(seed, "fault-hops")
	eng := sim.NewEngine()
	cfg := DefaultLinkConfig()
	cfg.QueueBytes = 6000 // four full frames
	if seed%2 == 0 {
		cfg.Latency = 0
	}
	ser := sim.Duration(1500 * 8 * int64(sim.Second) / cfg.BandwidthBps)
	model := fault.Model{
		P: 0.05, CorruptP: 0.05, DupP: 0.1,
		ReorderP: 0.2, ReorderMax: 3 * ser,
	}
	if seed%3 == 0 {
		model.ExtraDelay = ser // a slow node: every frame late by one slot
	}

	const nHops = 3
	links := make([]*Link, nHops)
	refs := make([]*refWire, nHops)
	linkLogs := make([][]delivery, nHops)
	refLogs := make([][]delivery, nHops)
	for i := nHops - 1; i >= 0; i-- {
		var nextLink, nextRef func(*Packet)
		if i+1 < nHops {
			nextLink, nextRef = sendVia(links[i+1]), refs[i+1].sendFrame
		}
		name := fmt.Sprintf("hop%d", i)
		links[i] = NewLink(eng, cfg, logHop{&linkLogs[i], nextLink, eng})
		links[i].SetInjector(fault.NewInjector(model, seed, name))
		refs[i] = &refWire{&refLink{eng: eng, cfg: cfg}, fault.NewInjector(model, seed, name), logHop{&refLogs[i], nextRef, eng}}
	}

	// Two sources, into the head of the chain and the middle hop, on a
	// lattice of full-frame serialization times with random sizes mixed
	// in. The reference is offered its copy first, at the same instant.
	var id uint64
	for i := 0; i < 300; i++ {
		at := sim.Time(rng.Intn(150)) * ser
		hop := rng.Intn(2)
		size := 1434
		if rng.Bool(0.3) {
			size = rng.Intn(1434)
		}
		id++
		payload := make([]byte, size)
		pl, pr := NewRequest(1, 2, id, payload), NewRequest(1, 2, id, payload)
		eng.AtArg(at, func(any) {
			refs[hop].sendFrame(pr)
			l := links[hop]
			lost := l.Drops.Value() + l.FaultDrops.Value()
			l.Send(pl)
			if l.Drops.Value()+l.FaultDrops.Value() == lost && !l.inArrivalFIFO(pl) {
				overtakes++
			}
		}, nil)
	}
	eng.Run(sim.Second)

	for i := range links {
		if fmt.Sprint(linkLogs[i]) != fmt.Sprint(refLogs[i]) {
			t.Fatalf("seed %d hop %d: link delivered\n%v\nreference\n%v", seed, i, linkLogs[i], refLogs[i])
		}
		if len(linkLogs[i]) == 0 {
			t.Fatalf("seed %d hop %d: nothing delivered", seed, i)
		}
		if !links[i].arrivals.empty() {
			t.Fatalf("seed %d hop %d: arrival FIFO not empty at quiescence", seed, i)
		}
	}
	if eng.Pending() != 0 {
		t.Fatalf("seed %d: %d events pending at quiescence", seed, eng.Pending())
	}
	return overtakes
}

// sendVia relays frames into l (the intermediate hops' links are fed by
// deliveries, not by the sources, so their overtakes go uncounted).
func sendVia(l *Link) func(*Packet) { return func(p *Packet) { l.Send(p) } }

// inArrivalFIFO reports whether p waits in the link's arrival FIFO.
func (l *Link) inArrivalFIFO(p *Packet) bool {
	q := &l.arrivals
	for c, i := q.head, q.headIdx; c != nil; c, i = c.next, 0 {
		end := len(c.recs)
		if c == q.tail {
			end = q.tailIdx
		}
		for ; i < end; i++ {
			if c.recs[i].val == p {
				return true
			}
		}
	}
	return false
}
