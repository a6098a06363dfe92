package cluster

import (
	"ncap/internal/app"
	"ncap/internal/sim"
	"ncap/internal/stats"
)

// Storage is the memory a run recycles for the next one: the engine and
// its events, the clients' pending requests, pending rings and latency
// samples, the servers' request jobs and served-response pages, and the
// buffer the clients' latencies merge into. Every component of a run
// draws on its storage's free lists, as on the run's packet list.
//
// A storage serves one run at a time. It collects the previous run's
// objects only when the next run takes it (NewWith), so a finished
// Cluster can still be inspected until then; from then on that Cluster
// must not be used. It keeps up to storageKeep objects of each kind for
// the next run and lets the rest be collected. The runner drops, rather
// than reuses, the storage of a run that did not return normally: a
// halted run's goroutine may still be firing its last event, and a
// panicked one may have stopped halfway through an update. Nothing a
// Result references comes from a storage.
type Storage struct {
	eng   *sim.Engine
	app   *app.Storage
	merge stats.LatencyRecorder
}

// NewStorage returns an empty storage. It allocates only the engine; the
// free lists fill as runs need objects.
func NewStorage() *Storage {
	eng := sim.NewEngine()
	return &Storage{eng: eng, app: app.NewStorage(eng)}
}

// storageKeep bounds how many objects of each kind (engine events,
// pending requests, jobs, served pages, ...) a storage keeps from one run
// for the next. An E11 run has at most about 530 events pending, 510
// requests outstanding and 400 jobs, and an E14 cell 2,100, 1,600 and 810,
// so both reuse everything. An overloaded E13 cell peaks at 38k events
// and 73k jobs; kept without a bound, those stayed live through every
// later run, which reused them cold and in no useful address order, and
// `ncapsweep -exp e13 -jobs 1` ran about 22% slower than on fresh memory
// (2-vCPU Xeon). Past the bound a run allocates as on a fresh storage.
const storageKeep = 4096

// take readies the storage for a new run, freeing the previous run's
// objects and keeping up to storageKeep of each kind.
func (st *Storage) take() {
	st.eng.Reset(storageKeep)
	st.app.Reclaim(storageKeep)
}

// mergedLatency merges recs into the storage's merge buffer and returns
// the summary. The buffer is scratch: the summary holds values only.
func (st *Storage) mergedLatency(recs []*stats.LatencyRecorder) stats.Summary {
	st.merge.MergeFrom(recs...)
	return st.merge.Summarize()
}
