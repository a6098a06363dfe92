package app

import (
	"ncap/internal/netsim"
	"ncap/internal/resilience"
	"ncap/internal/sim"
	"ncap/internal/telemetry"
)

// admitEntry is one request waiting in the server's admission queue.
type admitEntry struct {
	p        *netsim.Packet
	pollCore int
	enq      sim.Time
}

// EnableAdmission turns on the bounded admission queue between the socket
// layer and the kernel scheduler: arrivals beyond the queue capacity are
// rejected, at most resilience.DefaultMaxInflight requests are dispatched
// concurrently, and the spec's policy sheds queued work at dispatch time
// (deadline-aware or CoDel). Call before the simulation starts.
func (s *Server) EnableAdmission(spec *resilience.Spec) {
	s.admitOn = true
	s.queueCap = spec.EffQueueCap()
	s.admitPolicy = spec.EffAdmit()
	if s.admitPolicy == resilience.AdmitCoDel {
		s.codel = resilience.NewCoDel(resilience.DefaultCoDelTarget, resilience.DefaultCoDelInterval)
	}
}

// QueueLen returns the current admission-queue depth.
func (s *Server) QueueLen() int { return len(s.queue) - s.queueHead }

// QueuePeak returns the maximum admission-queue depth since the last
// ResetStats.
func (s *Server) QueuePeak() int { return s.queuePeak }

// Busy reports whether the server still holds admitted or queued work.
func (s *Server) Busy() bool { return s.Inflight > 0 || s.QueueLen() > 0 }

// LastIdle returns the last time the server transitioned to fully idle
// (no inflight work, empty queue) — the recovery timestamp after a surge.
func (s *Server) LastIdle() sim.Time { return s.lastIdle }

func (s *Server) now() sim.Time { return s.k.Engine().Now() }

// admitRequest is the socket layer under admission control: enqueue
// within capacity, reject beyond it, then dispatch as inflight slots
// allow.
func (s *Server) admitRequest(p *netsim.Packet, pollCore int) {
	if s.QueueLen() >= s.queueCap {
		s.Rejected.Inc()
		s.dropRequest(p, "reject", "queue full")
		return
	}
	s.queue = append(s.queue, admitEntry{p: p, pollCore: pollCore, enq: s.now()})
	if n := s.QueueLen(); n > s.queuePeak {
		s.queuePeak = n
	}
	s.pump()
}

// pump dispatches queued requests while inflight slots are free, shedding
// per the configured policy at dequeue time.
func (s *Server) pump() {
	for s.Inflight < resilience.DefaultMaxInflight && s.QueueLen() > 0 {
		e := s.queue[s.queueHead]
		s.queue[s.queueHead] = admitEntry{}
		s.queueHead++
		if s.queueHead > 64 && s.queueHead*2 >= len(s.queue) {
			s.queue = append(s.queue[:0], s.queue[s.queueHead:]...)
			s.queueHead = 0
		}
		now := s.now()
		switch s.admitPolicy {
		case resilience.AdmitDeadline:
			// Shed work whose end-to-end deadline is already unmeetable:
			// by the smoothed service estimate the response would arrive
			// past the client's deadline, so running it is pure waste.
			if e.p.Deadline > 0 && now+s.svcEst > e.p.Deadline {
				s.ShedDeadline.Inc()
				s.dropRequest(e.p, "shed", "deadline")
				continue
			}
		case resilience.AdmitCoDel:
			if s.codel.OnDequeue(now, now-e.enq) {
				s.ShedCoDel.Inc()
				s.dropRequest(e.p, "shed", "codel")
				continue
			}
		}
		s.dispatch(e.p, e.pollCore)
	}
	if s.Inflight == 0 && s.QueueLen() == 0 {
		s.lastIdle = s.now()
	}
}

// dispatch runs one admitted request through the service model — the
// admission-controlled twin of the legacy HandleDelivered body, which
// additionally feeds the smoothed service-time estimate and re-pumps the
// queue when the request completes.
func (s *Server) dispatch(p *netsim.Packet, pollCore int) {
	s.Inflight++
	j := s.newJob(s.profile.ParseCycles + s.serviceCycles())
	j.p, j.admitted, j.start = p, true, s.now()
	s.submit(j, pollCore)
}

func (s *Server) finishAdmitted(req *netsim.Packet, coreID int, start sim.Time) {
	s.noteService(s.now() - start)
	s.finish(req, coreID)
	s.pump()
}

// noteService folds one observed dispatch→finish time into the smoothed
// service estimate (EWMA, gain 1/8 — TCP's SRTT gain) that the deadline
// policy sheds against.
func (s *Server) noteService(d sim.Duration) {
	if s.svcEst == 0 {
		s.svcEst = d
		return
	}
	s.svcEst += (d - s.svcEst) / 8
}

// dropRequest is the single exit for rejected and shed requests: emit the
// typed telemetry event, forget the duplicate-suppression claim (a retry
// of this request must be admitted as a fresh attempt, not absorbed), and
// release the packet so the conservation ledger balances.
func (s *Server) dropRequest(p *netsim.Packet, kind, detail string) {
	s.trace.Emit(telemetry.Event{
		T: s.now(), Comp: "server.app", Kind: kind,
		V: float64(s.QueueLen()), Detail: detail,
	})
	if s.Dedup {
		s.dedup().drop(p.Src, p.ReqID)
	}
	p.Release()
}
