package app

import (
	"ncap/internal/cpu"
	"ncap/internal/sim"
	"ncap/internal/stats"
)

// Storage is the memory a run's clients and servers recycle: the clients'
// pending requests, pending rings and latency recorders, the servers'
// request jobs and the pages of their served-response memories. Every
// client and server of one run draws on one storage, so a free list holds
// the run's peak of each kind of object, not each component's. A storage
// serves one run at a time, on one engine. Reclaim frees every object it
// has handed out, for the next run; nothing a Result references comes
// from it.
type Storage struct {
	eng       *sim.Engine
	pending   stock[*pendingReq]
	rings     stock[[]*pendingReq]
	jobs      stock[*reqJob]
	pages     stock[*servedPage]
	recorders stock[*stats.LatencyRecorder]
}

// NewStorage returns an empty storage for runs on eng.
func NewStorage(eng *sim.Engine) *Storage { return &Storage{eng: eng} }

// Reclaim makes the objects the storage handed out free again, for the
// next run, keeping up to keep of each kind: the ones the run built last.
// The run that held them must be over: its clients and servers must not
// be used afterwards. Each kept object drops its references into the run,
// so an idle storage keeps no finished run alive past its next Reclaim.
func (st *Storage) Reclaim(keep int) {
	for _, pr := range st.pending.trim(keep) {
		pr.c = nil
		pr.reqState = reqState{}
	}
	for _, j := range st.jobs.trim(keep) {
		j.s = nil
		j.jobState = jobState{}
	}
	for _, r := range st.rings.trim(keep) {
		clear(r)
	}
	st.pages.trim(keep)
	st.recorders.trim(keep)
}

// stock is one kind of object a storage recycles: every object it keeps,
// and those free in the current run.
type stock[T any] struct {
	all, free []T
}

// get returns a free object, if there is one.
func (s *stock[T]) get() (x T, ok bool) {
	n := len(s.free)
	if n == 0 {
		return x, false
	}
	x = s.free[n-1]
	s.free = s.free[:n-1]
	return x, true
}

// built records a new object, handed out in the current run.
func (s *stock[T]) built(x T) { s.all = append(s.all, x) }

// put returns an object of the current run to the free list.
func (s *stock[T]) put(x T) { s.free = append(s.free, x) }

// trim keeps the last keep objects built, frees them all for the next run
// and returns them. It clears every slot it leaves behind, in all and in
// free's spare capacity, so the objects it drops can be collected.
func (s *stock[T]) trim(keep int) []T {
	if drop := len(s.all) - keep; drop > 0 {
		clear(s.all[:drop])
		s.all = s.all[drop:]
	}
	s.free = append(s.free[:0], s.all...)
	clear(s.free[len(s.free):cap(s.free)])
	return s.all
}

// request returns a pending request of client c, its timer stopped.
func (st *Storage) request(c *Client) *pendingReq {
	pr, ok := st.pending.get()
	if !ok {
		pr = &pendingReq{}
		pr.timer.Init(st.eng, pr.expire)
		st.pending.built(pr)
	}
	pr.c = c
	return pr
}

// ring returns an empty pending ring of at least n slots, n a power of
// two: any free ring that long will do, as slot indexing adapts to its
// size. Shorter free rings it passes over stay out of use for the rest of
// the run. Free rings are empty: Reclaim and growPending clear them.
func (st *Storage) ring(n int) []*pendingReq {
	for {
		r, ok := st.rings.get()
		if !ok {
			break
		}
		if len(r) >= n {
			return r
		}
	}
	r := make([]*pendingReq, n)
	st.rings.built(r)
	return r
}

// job returns a reset request job of server s.
func (st *Storage) job(s *Server) *reqJob {
	j, ok := st.jobs.get()
	if !ok {
		j = &reqJob{}
		j.work.OnDone = j.taskDone
		st.jobs.built(j)
	}
	// The Work is rebuilt whole: one from an earlier run may still be
	// marked queued on a core of that run.
	j.work = cpu.Work{Name: s.profile.Name, OnDone: j.work.OnDone}
	j.s = s
	j.jobState = jobState{}
	return j
}

// page returns a page with no records.
func (st *Storage) page() *servedPage {
	p, ok := st.pages.get()
	if !ok {
		p = new(servedPage)
		st.pages.built(p)
		return p
	}
	*p = servedPage{}
	return p
}

// recorder returns an empty latency recorder.
func (st *Storage) recorder() *stats.LatencyRecorder {
	l, ok := st.recorders.get()
	if !ok {
		l = stats.NewLatencyRecorder()
		st.recorders.built(l)
	}
	l.Reset()
	return l
}
