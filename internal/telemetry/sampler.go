package telemetry

import (
	"fmt"

	"ncap/internal/sim"
)

// Sampler is the periodic counterpart of Export: it reads a fixed list of
// registry metrics through the same closures, once per interval. Each
// tick records, per metric, the change since the previous reading for
// counters and meters and the current value for gauges. Start takes the
// baseline; the first tick lands one interval later.
//
// Unlike the rest of the package, a running Sampler schedules engine
// events (one per tick). They read state and change none, but a caller
// that reports the engine's event count subtracts them (len(Times)) to
// keep sampling pure observation.
type Sampler struct {
	Interval sim.Duration
	// Times holds each tick's instant; Rows the matching readings, one
	// value per metric in the order the names were given.
	Times []sim.Time
	Rows  [][]float64

	eng     *sim.Engine
	ticker  *sim.Ticker
	metrics []*metric
	last    []float64 // counters and meters: the previous reading
}

// Sampler builds a stopped sampler over the named metrics on eng. It
// panics on an unknown name or a histogram, which has no scalar reading.
// Unlike the registration methods it needs a live registry.
func (r *Registry) Sampler(eng *sim.Engine, interval sim.Duration, names ...string) *Sampler {
	s := &Sampler{
		Interval: interval,
		eng:      eng,
		metrics:  make([]*metric, len(names)),
		last:     make([]float64, len(names)),
	}
	for i, name := range names {
		m := r.metrics[name]
		if m == nil || m.kind == KindHistogram {
			panic(fmt.Sprintf("telemetry: cannot sample %q: not a registered counter, gauge or meter", name))
		}
		s.metrics[i] = m
	}
	s.ticker = sim.NewTicker(eng, interval, s.tick)
	return s
}

// Start takes the baseline reading and begins ticking.
func (s *Sampler) Start() {
	for i, m := range s.metrics {
		if m.kind != KindGauge {
			s.last[i] = m.observe()
		}
	}
	s.ticker.Start()
}

// Stop halts sampling.
func (s *Sampler) Stop() { s.ticker.Stop() }

func (s *Sampler) tick() {
	row := make([]float64, len(s.metrics))
	for i, m := range s.metrics {
		v := m.observe()
		if m.kind != KindGauge {
			v, s.last[i] = v-s.last[i], v
		}
		row[i] = v
	}
	s.Times = append(s.Times, s.eng.Now())
	s.Rows = append(s.Rows, row)
}
