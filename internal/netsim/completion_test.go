package netsim

import (
	"testing"

	"ncap/internal/sim"
)

// refLink is the reference model for a link's egress-buffer accounting:
// the event-driven scheme Link used before serialization completions were
// folded into records. Every committed frame schedules a dequeue event at
// the end of its serialization, which frees its bytes. The tie rule: a
// dequeue comes before every send at its instant, so settle fires the
// dequeues due now before the buffer is offered a frame or read.
type refLink struct {
	eng     *sim.Engine
	cfg     LinkConfig
	busyTil sim.Time
	queued  int
	peak    int
	drops   int
	deq     []refDeq // pending dequeues, in serialization order
}

// refDeq is one pending dequeue: its event and the bytes it frees.
type refDeq struct {
	at sim.Time
	ws int
	h  sim.Handle
}

func refDequeue(arg any) { arg.(*refLink).dequeue() }

// dequeue frees the oldest pending frame's bytes.
func (r *refLink) dequeue() {
	r.queued -= r.deq[0].ws
	r.deq = r.deq[1:]
}

// settle fires, ahead of their events, the dequeues due at or before now.
func (r *refLink) settle() {
	for len(r.deq) > 0 && r.deq[0].at <= r.eng.Now() {
		r.deq[0].h.Cancel()
		r.dequeue()
	}
}

func (r *refLink) send(ws int) bool {
	if now := r.eng.Now(); r.busyTil < now {
		r.busyTil = now
	}
	r.settle()
	if r.queued+ws > r.cfg.QueueBytes && r.queued > 0 {
		r.drops++
		return false
	}
	r.queued += ws
	if r.queued > r.peak {
		r.peak = r.queued
	}
	r.busyTil += sim.Duration(int64(ws) * 8 * int64(sim.Second) / r.cfg.BandwidthBps)
	r.deq = append(r.deq, refDeq{r.busyTil, ws, r.eng.AtArg(r.busyTil, refDequeue, r)})
	return true
}

// hop is one link under test with its reference model beside it. Every
// frame offered to the link is offered to the reference first, at the same
// instant.
type hop struct {
	t    *testing.T
	link *Link
	ref  *refLink
}

func (h *hop) send(p *Packet) {
	ws := p.WireSize()
	want := h.ref.send(ws)
	if got := h.link.Send(p); got != want {
		h.t.Fatalf("at %v: Send accepted = %v, reference %v", h.ref.eng.Now(), got, want)
	}
	h.compare("after send")
}

func (h *hop) compare(where string) {
	h.t.Helper()
	l, r := h.link, h.ref
	r.settle()
	if l.QueuedBytes() != r.queued || l.PeakQueuedBytes() != r.peak || int(l.Drops.Value()) != r.drops {
		h.t.Fatalf("%s at %v: queued/peak/drops = %d/%d/%d, reference %d/%d/%d", where, r.eng.Now(),
			l.QueuedBytes(), l.PeakQueuedBytes(), l.Drops.Value(), r.queued, r.peak, r.drops)
	}
}

// forward relays every delivered frame onto the next hop at the instant
// it arrives, like a switch with no forwarding delay.
type forward struct{ next *hop }

func (f forward) Receive(p *Packet) { f.next.send(p) }

// TestLinkCompletionsMatchDequeueEvents sends tie-heavy back-to-back
// traffic over a chain of equal-rate links with small egress buffers: a
// frame's completion on one hop lands on the very nanosecond the next
// frame is offered to it. Drops, peaks and queued bytes must match the
// event-driven reference after every send and after every engine step.
func TestLinkCompletionsMatchDequeueEvents(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		runTieHeavyHops(t, seed)
	}
}

func runTieHeavyHops(t *testing.T, seed uint64) {
	rng := sim.NewRand(seed, "tie-hops")
	eng := sim.NewEngine()
	cfg := DefaultLinkConfig()
	cfg.QueueBytes = 4500 // three full frames
	if seed%2 == 0 {
		cfg.Latency = 0 // arrivals coincide with completions too
	}

	const nHops = 3
	hops := make([]*hop, nHops)
	var dst Receiver = dropAll{}
	for i := nHops - 1; i >= 0; i-- {
		h := &hop{t: t, link: NewLink(eng, cfg, dst), ref: &refLink{eng: eng, cfg: cfg}}
		hops[i] = h
		dst = forward{h}
	}

	// Two sources: one into the head of the chain, one merging into the
	// middle hop, both on a lattice of full-frame serialization times (so
	// sends tie with completions) with random sizes mixed in.
	ser := sim.Duration(1500 * 8 * int64(sim.Second) / cfg.BandwidthBps)
	var id uint64
	for i := 0; i < 400; i++ {
		at := sim.Time(rng.Intn(200)) * ser
		h := hops[rng.Intn(2)]
		size := 1434 // a full 1500-byte frame
		if rng.Bool(0.3) {
			size = rng.Intn(1434)
		}
		id++
		p := NewRequest(1, 2, id, make([]byte, size))
		eng.AtArg(at, func(any) { h.send(p) }, nil)
	}

	for eng.Step() {
		for _, h := range hops {
			h.compare("after step")
		}
	}
	for _, h := range hops {
		h.compare("at quiescence")
		if h.link.QueuedBytes() != 0 {
			t.Fatalf("seed %d: %d bytes still queued at quiescence", seed, h.link.QueuedBytes())
		}
	}
	if hops[1].link.Drops.Value() == 0 {
		t.Fatalf("seed %d: the merging hop never dropped; the buffer is not exercised", seed)
	}
}

type dropAll struct{}

func (dropAll) Receive(p *Packet) { p.Release() }
