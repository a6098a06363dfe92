package netsim

import (
	"testing"

	"ncap/internal/fault"
	"ncap/internal/sim"
)

// faultyLink builds a link with an injector for the given model.
func faultyLink(eng *sim.Engine, m fault.Model) (*Link, *sink) {
	s := &sink{eng: eng}
	l := NewLink(eng, DefaultLinkConfig(), s)
	l.SetInjector(fault.NewInjector(m, 1, "test"))
	return l, s
}

func TestLinkFaultDropConsumesWire(t *testing.T) {
	eng := sim.NewEngine()
	l, s := faultyLink(eng, fault.Model{P: 1})
	p := NewRequest(2, 1, 1, []byte("GET /"))
	ws := p.WireSize() // Send takes ownership; read the size first
	if !l.Send(p) {
		t.Fatal("physical-layer loss reported as an egress-buffer drop")
	}
	eng.Run(sim.Millisecond)
	if len(s.pkts) != 0 {
		t.Fatalf("dropped frame delivered %d times", len(s.pkts))
	}
	if l.FaultDrops.Value() != 1 || l.Drops.Value() != 0 {
		t.Fatalf("drops: fault=%d queue=%d, want 1/0", l.FaultDrops.Value(), l.Drops.Value())
	}
	// The sender still spent the serialization slot: bytes count as sent.
	if l.Bytes.Value() != int64(ws) {
		t.Fatalf("bytes = %d, want %d", l.Bytes.Value(), ws)
	}
}

func TestLinkFaultDuplicateDeliversTwice(t *testing.T) {
	eng := sim.NewEngine()
	l, s := faultyLink(eng, fault.Model{DupP: 1})
	l.Send(NewRequest(2, 1, 7, []byte("GET /")))
	eng.Run(sim.Millisecond)
	if len(s.pkts) != 2 {
		t.Fatalf("deliveries = %d, want 2", len(s.pkts))
	}
	if s.pkts[0].ReqID != 7 || s.pkts[1].ReqID != 7 {
		t.Fatalf("duplicate is not the same request: %d/%d", s.pkts[0].ReqID, s.pkts[1].ReqID)
	}
	if s.pkts[0] == s.pkts[1] {
		t.Fatal("duplicate shares the original's frame instance")
	}
	if !(s.times[1] > s.times[0]) {
		t.Fatalf("duplicate at %v not after original at %v", s.times[1], s.times[0])
	}
	if l.FaultDups.Value() != 1 {
		t.Fatalf("FaultDups = %d", l.FaultDups.Value())
	}
}

func TestLinkFaultCorruptMarksFrame(t *testing.T) {
	eng := sim.NewEngine()
	l, s := faultyLink(eng, fault.Model{CorruptP: 1})
	l.Send(NewRequest(2, 1, 1, []byte("GET /")))
	eng.Run(sim.Millisecond)
	if len(s.pkts) != 1 || !s.pkts[0].Corrupt {
		t.Fatalf("corrupt frame not delivered marked: %+v", s.pkts)
	}
	if l.FaultCorrupts.Value() != 1 {
		t.Fatalf("FaultCorrupts = %d", l.FaultCorrupts.Value())
	}
}

func TestLinkFaultReorderBoundedAndOvertaking(t *testing.T) {
	eng := sim.NewEngine()
	const max = 50 * sim.Microsecond
	l, s := faultyLink(eng, fault.Model{ReorderP: 1, ReorderMax: max})
	const n = 50
	for i := 0; i < n; i++ {
		l.Send(NewRequest(2, 1, uint64(i), []byte("x")))
	}
	eng.Run(10 * sim.Millisecond)
	if len(s.pkts) != n {
		t.Fatalf("delivered %d of %d", len(s.pkts), n)
	}
	// Every frame's extra delay is bounded by ReorderMax: delivery lags
	// the fault-free schedule by at most max.
	ser := l.serialization(s.pkts[0].WireSize())
	for i, at := range s.times {
		id := int(s.pkts[i].ReqID)
		ideal := sim.Time(id+1)*ser + DefaultLinkConfig().Latency
		if at < ideal || at > ideal+max {
			t.Fatalf("frame %d delivered at %v, fault-free schedule %v (+%v max)", id, at, ideal, max)
		}
	}
	// With 50 frames back-to-back and per-frame jitter up to 50 µs, some
	// frame must overtake another — that is the point of reordering.
	overtaken := false
	for i := 1; i < len(s.pkts); i++ {
		if s.pkts[i].ReqID < s.pkts[i-1].ReqID {
			overtaken = true
			break
		}
	}
	if !overtaken {
		t.Fatal("no frame overtook another despite forced reordering")
	}
	if l.FaultDelays.Value() != n {
		t.Fatalf("FaultDelays = %d, want %d", l.FaultDelays.Value(), n)
	}
}

// TestLinkFaultDeterministicDelivery is the package-level determinism
// invariant: the same seed replays the exact delivery sequence — same
// frames, same order, same times — however often it runs.
func TestLinkFaultDeterministicDelivery(t *testing.T) {
	run := func() ([]uint64, []sim.Time) {
		eng := sim.NewEngine()
		lk, s := faultyLink(eng, fault.Model{
			P: 0.2, DupP: 0.1,
			ReorderP: 0.3, ReorderMax: 30 * sim.Microsecond,
		})
		for i := 0; i < 300; i++ {
			lk.Send(NewRequest(2, 1, uint64(i), []byte("payload")))
		}
		eng.Run(50 * sim.Millisecond)
		ids := make([]uint64, len(s.pkts))
		for i, p := range s.pkts {
			ids[i] = p.ReqID
		}
		return ids, s.times
	}
	ids1, t1 := run()
	ids2, t2 := run()
	if len(ids1) != len(ids2) {
		t.Fatalf("delivery counts differ: %d vs %d", len(ids1), len(ids2))
	}
	for i := range ids1 {
		if ids1[i] != ids2[i] || t1[i] != t2[i] {
			t.Fatalf("delivery %d diverged: (%d,%v) vs (%d,%v)", i, ids1[i], t1[i], ids2[i], t2[i])
		}
	}
}
