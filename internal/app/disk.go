package app

import (
	"ncap/internal/sim"
	"ncap/internal/stats"
)

// Disk models the server's storage path as an FCFS service center with a
// fixed internal concurrency (command queueing across platters/array
// members). Requests beyond the concurrency limit queue; service times are
// exponential. Waiting requests consume no CPU — the property that makes
// the Apache profile's latency partially frequency-independent.
type Disk struct {
	eng         *sim.Engine
	rng         *sim.Rand
	mean        sim.Duration
	concurrency int
	inflight    int
	queue       []DiskReader

	// Reads counts completed accesses; MaxQueue tracks the deepest
	// backlog observed.
	Reads    stats.Counter
	MaxQueue int
}

// DiskReader is the owner of one access, told when it completes. The disk
// holds it only while the access is queued or in service.
type DiskReader interface {
	ReadDone()
}

// NewDisk builds a disk with the given mean access time and concurrency.
func NewDisk(eng *sim.Engine, rng *sim.Rand, mean sim.Duration, concurrency int) *Disk {
	if concurrency <= 0 {
		panic("app: disk concurrency must be positive")
	}
	if mean <= 0 {
		panic("app: disk mean must be positive")
	}
	return &Disk{eng: eng, rng: rng, mean: mean, concurrency: concurrency}
}

// Read performs an access and calls r.ReadDone on completion.
func (d *Disk) Read(r DiskReader) {
	if d.inflight < d.concurrency {
		d.begin(r)
		return
	}
	d.queue = append(d.queue, r)
	if len(d.queue) > d.MaxQueue {
		d.MaxQueue = len(d.queue)
	}
}

// Inflight returns the number of accesses in service.
func (d *Disk) Inflight() int { return d.inflight }

// Queued returns the number of accesses waiting for a service slot.
func (d *Disk) Queued() int { return len(d.queue) }

func (d *Disk) begin(r DiskReader) {
	d.inflight++
	d.eng.ScheduleArg2(d.rng.Exp(d.mean), diskComplete, d, r)
}

// diskComplete ends one access (a0 is the *Disk, a1 its DiskReader) and
// starts the oldest queued one.
func diskComplete(a0, a1 any) {
	d := a0.(*Disk)
	d.inflight--
	d.Reads.Inc()
	a1.(DiskReader).ReadDone()
	if len(d.queue) > 0 {
		next := d.queue[0]
		copy(d.queue, d.queue[1:])
		d.queue = d.queue[:len(d.queue)-1]
		d.begin(next)
	}
}
