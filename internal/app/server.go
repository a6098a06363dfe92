package app

import (
	"math"

	"ncap/internal/cpu"
	"ncap/internal/driver"
	"ncap/internal/netsim"
	"ncap/internal/oskernel"
	"ncap/internal/resilience"
	"ncap/internal/sim"
	"ncap/internal/stats"
	"ncap/internal/telemetry"
)

// DefaultDiskConcurrency is the storage path's internal parallelism.
const DefaultDiskConcurrency = 40

// Server is the OLDI application instance on the server node. It consumes
// packets from the driver's deliver path, runs the profile's service model
// on kernel-scheduled tasks, and transmits responses back through the
// driver.
type Server struct {
	k       *oskernel.Kernel
	drv     *driver.Driver
	profile Profile
	rng     *sim.Rand
	disk    *Disk // nil for memory-resident profiles
	addr    netsim.Addr

	st   *Storage         // the run's storage: request jobs, served pages
	segs []*netsim.Packet // response segmentation scratch

	// Affine pins each request's application task to the core that polled
	// it — the flow-affinity of a multi-queue NIC deployment (Sec. 7).
	// When false (the paper's single-queue baseline) tasks go to the
	// least-loaded core.
	Affine bool

	// Dedup enables transport-level duplicate suppression: a duplicate
	// of a request still being served is absorbed (its response is
	// already on the way), and a duplicate of a recently served request
	// retransmits the stored response without re-running the application
	// work — TCP's retransmission semantics, needed once the fabric can
	// lose, duplicate, or delay frames. Off by default so the fault-free
	// experiments replay bit-identically.
	Dedup bool

	// DedupCap overrides the served-response memory bound (zero keeps
	// dedupWindow). Set before traffic flows.
	DedupCap int

	// PacketList is the run's packet list the response segments come from;
	// nil draws from the process pool. Set before traffic flows.
	PacketList *netsim.PacketList

	dup *servedMemory // duplicate-suppression state, built on first use

	// Admission-control state (EnableAdmission; zero-valued when off, and
	// the legacy socket path never reads it).
	admitOn     bool
	queueCap    int
	admitPolicy resilience.AdmitPolicy
	codel       *resilience.CoDel
	queue       []admitEntry
	queueHead   int
	queuePeak   int
	svcEst      sim.Duration // smoothed dispatch→finish time (EWMA)
	lastIdle    sim.Time
	trace       *telemetry.EventTrace // shed/reject events (nil = off)

	// Served counts completed requests; Ignored counts non-request
	// packets reaching the socket layer; DiskReads counts cache misses.
	Served    stats.Counter
	Ignored   stats.Counter
	DiskReads stats.Counter
	// DupSuppressed counts duplicates absorbed while the original was in
	// flight; DupResent counts stored responses retransmitted.
	DupSuppressed stats.Counter
	DupResent     stats.Counter
	// Rejected counts arrivals refused at a full admission queue;
	// ShedDeadline/ShedCoDel count dispatch-time sheds per policy.
	Rejected     stats.Counter
	ShedDeadline stats.Counter
	ShedCoDel    stats.Counter
	Inflight     int
}

// dedupWindow bounds the served-request memory. At the paper's highest
// load (138 K RPS) it covers ~60 ms of history — several RTOs deep.
const dedupWindow = 8192

// NewServer assembles the application. rng must be a dedicated stream.
// st is the run's storage; nil gives the server a storage of its own.
func NewServer(k *oskernel.Kernel, drv *driver.Driver, profile Profile, rng *sim.Rand, addr netsim.Addr, st *Storage) *Server {
	if err := profile.Validate(); err != nil {
		panic(err)
	}
	if st == nil {
		st = NewStorage(k.Engine())
	}
	s := &Server{k: k, drv: drv, profile: profile, rng: rng, addr: addr, st: st}
	if profile.DiskProb > 0 {
		s.disk = NewDisk(k.Engine(), rng, profile.DiskMean, DefaultDiskConcurrency)
	}
	return s
}

// reqJob carries one request through the server: the application task
// (its embedded Work, placed on a core that is known only once the task is
// submitted), the optional disk read, and the hand-off of the response to
// the driver. A duplicate's stored-response resend is a job with no
// packet. Jobs are built lazily with their callbacks bound once, and go
// back to the storage's free list as soon as their response is handed off.
type reqJob struct {
	work cpu.Work // OnDone is j.taskDone
	s    *Server
	jobState
}

// jobState is the part of a reqJob that is reset for every request.
type jobState struct {
	p        *netsim.Packet // the request; nil for a resend
	coreID   int            // the core the task runs on
	admitted bool           // dispatched through the admission queue
	start    sim.Time       // admission dispatch time

	// A resend's stored response.
	src   netsim.Addr
	reqID uint64
	body  int
}

// newJob returns a reset job whose task costs cycles.
func (s *Server) newJob(cycles int64) *reqJob {
	j := s.st.job(s)
	j.work.Cycles = cycles
	return j
}

// submit runs j's task on pollCore when Affine, otherwise on the
// least-loaded core.
func (s *Server) submit(j *reqJob, pollCore int) {
	if s.Affine {
		j.coreID = pollCore
		s.k.SubmitTaskOn(pollCore, &j.work)
		return
	}
	j.coreID = s.k.SubmitTask(&j.work).ID()
}

// taskDone runs when the job's task completes: a resend transmits its
// stored response; a request either misses the page cache and waits for
// the disk, or responds at once.
func (j *reqJob) taskDone() {
	s := j.s
	if j.p == nil {
		s.segs = s.PacketList.SegmentResponse(s.segs[:0], s.addr, j.src, j.reqID, j.body)
		coreID := j.coreID
		s.st.jobs.put(j)
		s.drv.Send(coreID, s.segs)
		return
	}
	if s.disk != nil && s.rng.Bool(s.profile.DiskProb) {
		s.DiskReads.Inc()
		s.disk.Read(j)
		return
	}
	j.respond()
}

// ReadDone implements DiskReader: the cache miss has been served.
func (j *reqJob) ReadDone() { j.respond() }

// respond retires the job and finishes its request.
func (j *reqJob) respond() {
	s := j.s
	p, coreID, admitted, start := j.p, j.coreID, j.admitted, j.start
	s.st.jobs.put(j)
	if admitted {
		s.finishAdmitted(p, coreID, start)
		return
	}
	s.finish(p, coreID)
}

// HandleDelivered is the driver's deliver callback: the socket layer.
// Each request becomes an application task; cache misses release the core
// while the storage access is in flight, then the response transmits from
// the core that served the request. pollCore is the core that polled the
// packet; with Affine set, the task stays there.
func (s *Server) HandleDelivered(p *netsim.Packet, pollCore int) {
	if p.Kind != netsim.KindRequest {
		s.Ignored.Inc()
		p.Release()
		return
	}
	if s.Dedup && s.absorbDuplicate(p, pollCore) {
		return // absorbDuplicate released the packet
	}
	if s.admitOn {
		s.admitRequest(p, pollCore)
		return
	}
	s.Inflight++
	j := s.newJob(s.profile.ParseCycles + s.serviceCycles())
	j.p = p
	s.submit(j, pollCore)
}

func (s *Server) finish(req *netsim.Packet, coreID int) {
	s.Inflight--
	s.Served.Inc()
	// A replayed request pins its response size (the trace records it);
	// the profile draw is skipped entirely so the random stream advances
	// only for requests that actually consume it.
	body := req.RespHint
	if body <= 0 {
		body = s.responseBytes()
	}
	if s.Dedup {
		s.dedup().serve(req.Src, req.ReqID, body)
	}
	s.segs = s.PacketList.SegmentResponse(s.segs[:0], s.addr, req.Src, req.ReqID, body)
	req.Release()
	s.drv.Send(coreID, s.segs)
}

// absorbDuplicate handles a retransmitted request. A duplicate of an
// in-flight request is dropped (the response is coming); a duplicate of
// a recently served one retransmits the stored response, charging only
// the parse cost — no application re-execution, no fresh randomness, so
// the response body is byte-for-byte the one the client lost.
func (s *Server) absorbDuplicate(p *netsim.Packet, pollCore int) bool {
	switch d, body := s.dedup().claim(p.Src, p.ReqID); d {
	case dupSuppress:
		s.DupSuppressed.Inc()
		p.Release()
		return true
	case dupResend:
		s.DupResent.Inc()
		// Copy the routing fields out: the packet is released now, before
		// the deferred resend task runs.
		j := s.newJob(s.profile.ParseCycles)
		j.src, j.reqID, j.body = p.Src, p.ReqID, body
		p.Release()
		s.submit(j, pollCore)
		return true
	}
	return false
}

// dedup returns the served-response memory, building it on first use
// with the DedupCap bound (dedupWindow when unset).
func (s *Server) dedup() *servedMemory {
	if s.dup == nil {
		window := s.DedupCap
		if window <= 0 {
			window = dedupWindow
		}
		s.dup = newServedMemory(window, s.st)
	}
	return s.dup
}

// DedupRing returns the served-response memory's live size and the
// record slots its pages hold (tests: both must stay bounded under a retry
// storm).
func (s *Server) DedupRing() (live, backing int) {
	return s.dedup().Len(), s.dedup().slots()
}

// ResetStats zeroes request accounting at the warmup boundary.
func (s *Server) ResetStats() {
	s.Served.Reset()
	s.Ignored.Reset()
	s.DiskReads.Reset()
	s.DupSuppressed.Reset()
	s.DupResent.Reset()
	s.Rejected.Reset()
	s.ShedDeadline.Reset()
	s.ShedCoDel.Reset()
	s.queuePeak = s.QueueLen()
	s.lastIdle = 0
}

func (s *Server) serviceCycles() int64 {
	if s.profile.AppSigma <= 0 {
		return s.profile.AppCycles
	}
	// Lognormal with mean preserved: multiplier mean 1.
	sigma := s.profile.AppSigma
	mult := math.Exp(s.rng.Normal(-sigma*sigma/2, sigma))
	c := int64(float64(s.profile.AppCycles) * mult)
	if c < 1000 {
		c = 1000
	}
	return c
}

func (s *Server) responseBytes() int {
	if s.profile.ResponseSigma <= 0 {
		return s.profile.ResponseBytes
	}
	sigma := s.profile.ResponseSigma
	mult := math.Exp(s.rng.Normal(-sigma*sigma/2, sigma))
	b := int(float64(s.profile.ResponseBytes) * mult)
	if b < 64 {
		b = 64
	}
	if b > 256*1024 {
		b = 256 * 1024
	}
	return b
}
