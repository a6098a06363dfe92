package sim_test

import (
	"math/bits"
	"testing"

	"ncap/internal/app"
	"ncap/internal/cluster"
	"ncap/internal/sim"
)

// longDelay splits the star's schedules into the client RTO timers, armed
// 25 ms ahead and nearly always canceled, and everything else.
const longDelay = 16 * sim.Millisecond

// TestStarDelayMix measures the event stream BenchmarkEngineStarMix
// imitates: the paper's star (Apache, ncap.cons, 24k RPS, seed 3) driven
// one Step at a time through its warmup and measured window. Over the
// measured window it logs, with -v, the histogram of schedule delays in
// power-of-two buckets, the same histogram for the events that fire, the
// mean pending count split at longDelay, and the near window's size
// distribution. It reads the queue after every step, so the engine needs
// no recording hook.
func TestStarDelayMix(t *testing.T) {
	cfg := cluster.DefaultConfig(cluster.NcapCons, app.ApacheProfile(), 24_000)
	cfg.Warmup, cfg.Measure = 100*sim.Millisecond, 500*sim.Millisecond
	cfg.Seed = 3
	c := cluster.New(cfg)
	// The start-up half of Cluster.Run: the star has one server node.
	if ond := c.Nodes()[0].Ond; ond != nil {
		ond.Start()
	}
	for _, cl := range c.Clients {
		cl.Start()
	}
	eng := c.Engine()

	var sched, fired, near [64]int
	var steps, pending, long int
	var firedFor sim.Duration          // summed schedule delays of the fired events
	delay := map[uint64]sim.Duration{} // schedule delay by sequence number
	for eng.Now() < cfg.Warmup+cfg.Measure {
		next := eng.NextSeq()
		if !eng.Step() {
			t.Fatal("star ran out of events")
		}
		now := eng.Now()
		measuring := now >= cfg.Warmup
		if f := eng.Front(); measuring {
			if d, ok := delay[f.Seq()]; ok {
				fired[bits.Len64(uint64(d))]++
				firedFor += d
			}
		}
		delete(delay, eng.Front().Seq())
		sample := measuring && steps%16 == 0
		eng.ForEachQueued(func(k sim.Key) {
			if k.Seq() >= next {
				d := k.When() - now
				delay[k.Seq()] = d
				if measuring {
					sched[bits.Len64(uint64(d))]++
				}
			}
			if sample && delay[k.Seq()] >= longDelay {
				long++
			}
		})
		if !measuring {
			continue
		}
		if sample {
			pending += eng.Pending()
		}
		near[bits.Len64(uint64(eng.NearLen()))]++
		steps++
	}

	sum := func(h *[64]int) (n int) {
		for _, v := range h {
			n += v
		}
		return n
	}
	ns, nf := sum(&sched), sum(&fired)
	if ns == 0 || nf == 0 {
		t.Fatalf("measured window scheduled %d and fired %d events", ns, nf)
	}
	samples := float64((steps + 15) / 16)
	// By Little's law the events that fire account for firedFor/Measure
	// of the mean pending count; canceled timers make up the rest.
	t.Logf("%d steps; mean pending %.1f: %.1f that fire, %.1f scheduled >= %v ahead",
		steps, float64(pending)/samples, float64(firedFor)/float64(cfg.Measure),
		float64(long)/samples, longDelay)
	for b := range sched {
		if sched[b] == 0 && fired[b] == 0 {
			continue
		}
		lo := 0
		if b > 0 {
			lo = 1 << (b - 1)
		}
		t.Logf("delay [%v, %v): scheduled %5.2f%%, fired %5.2f%%", sim.Duration(lo), sim.Duration(1)<<b,
			100*float64(sched[b])/float64(ns), 100*float64(fired[b])/float64(nf))
	}
	for b, v := range near {
		if v > 0 {
			t.Logf("near window of [%d, %d) events: %5.2f%% of steps", (1<<b)>>1, 1<<b, 100*float64(v)/float64(steps))
		}
	}
}
