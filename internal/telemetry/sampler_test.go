package telemetry

import (
	"reflect"
	"testing"

	"ncap/internal/sim"
)

// Counters and meters are sampled as their change over each interval,
// gauges as their value at the tick; the baseline is the reading at
// Start, so activity before it never shows.
func TestSamplerDeltasAndGauges(t *testing.T) {
	eng := sim.NewEngine()
	var count int64
	var busy sim.Duration
	level := 1.5
	reg := NewRegistry()
	reg.Counter("c", func() int64 { return count })
	reg.Meter("m", func() sim.Duration { return busy })
	reg.Gauge("g", func() float64 { return level })

	count, busy = 10, 100 // before Start: part of the baseline
	s := reg.Sampler(eng, sim.Millisecond, "g", "c", "m")
	eng.ScheduleArg(500*sim.Microsecond, func(any) { s.Start() }, nil)
	eng.ScheduleArg(1200*sim.Microsecond, func(any) { count, busy, level = 13, 400, 2 }, nil)
	eng.ScheduleArg(2200*sim.Microsecond, func(any) { level = 0 }, nil)
	eng.Run(3600 * sim.Microsecond)

	wantT := []sim.Time{1500 * sim.Microsecond, 2500 * sim.Microsecond, 3500 * sim.Microsecond}
	if !reflect.DeepEqual(s.Times, wantT) {
		t.Fatalf("times = %v, want %v (one per tick, first one interval after Start)", s.Times, wantT)
	}
	want := [][]float64{{2, 3, 300}, {0, 0, 0}, {0, 0, 0}}
	if !reflect.DeepEqual(s.Rows, want) {
		t.Fatalf("rows = %v, want %v", s.Rows, want)
	}
}

// A cumulative count that rises once shows as one marker in the interval
// it rose in (the INT(wake) column).
func TestSamplerWakeMarkers(t *testing.T) {
	eng := sim.NewEngine()
	var wakes int64
	reg := NewRegistry()
	reg.Counter("wakes", func() int64 { return wakes })
	s := reg.Sampler(eng, sim.Millisecond, "wakes")
	s.Start()
	eng.ScheduleArg(1500*sim.Microsecond, func(any) { wakes = 3 }, nil)
	eng.Run(3 * sim.Millisecond)
	if want := [][]float64{{0}, {3}, {0}}; !reflect.DeepEqual(s.Rows, want) {
		t.Fatalf("rows = %v, want %v", s.Rows, want)
	}
}

func TestSamplerStop(t *testing.T) {
	eng := sim.NewEngine()
	reg := NewRegistry()
	reg.Gauge("g", func() float64 { return 1 })
	s := reg.Sampler(eng, sim.Millisecond, "g")
	s.Start()
	eng.Run(2 * sim.Millisecond)
	s.Stop()
	eng.Run(10 * sim.Millisecond)
	if len(s.Times) != 2 || len(s.Rows) != 2 {
		t.Fatalf("points after stop = %d/%d, want 2", len(s.Times), len(s.Rows))
	}
}

func TestSamplerRejectsUnsampleableNames(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("c", func() int64 { return 0 })
	reg.Histogram("h")
	for _, name := range []string{"missing", "h"} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("sampling %q did not panic", name)
				}
			}()
			reg.Sampler(sim.NewEngine(), sim.Millisecond, "c", name)
		}()
	}
}
