package sim_test

import (
	"math/bits"
	"sort"
	"testing"

	"ncap/internal/app"
	"ncap/internal/cluster"
	"ncap/internal/sim"
	"ncap/internal/topology"
)

// TestFleetDelayMix is TestStarDelayMix's fleet twin: BenchmarkFleetE14's
// 96-node fleet (4 racks, 2 spines, Apache, ncap.cons) driven one Step at
// a time through its warmup and measured window. Over the measured window
// it logs, with -v, the mean pending count, the near window's mean size and
// size distribution, and the mean queued count of each event class (its
// callback), sampled every 64 steps.
func TestFleetDelayMix(t *testing.T) {
	cfg := cluster.DefaultConfig(cluster.NcapCons, app.ApacheProfile(), 1500*64)
	cfg.Warmup, cfg.Measure = 20*sim.Millisecond, 60*sim.Millisecond
	cfg.Topology = topology.Fleet(4, 2, 16, 8)
	c := cluster.New(cfg)
	// The start-up half of Cluster.Run.
	for _, n := range c.Nodes() {
		if n.Ond != nil {
			n.Ond.Start()
		}
	}
	for _, cl := range c.Clients {
		cl.Start()
	}
	eng := c.Engine()

	const every = 64
	var near [64]int
	var steps, samples, pending, nearSum int
	classes := map[string]int{}
	names := map[uintptr]string{}
	for eng.Now() < cfg.Warmup+cfg.Measure {
		if !eng.Step() {
			t.Fatal("fleet ran out of events")
		}
		if eng.Now() < cfg.Warmup {
			continue
		}
		n := eng.NearLen()
		near[bits.Len64(uint64(n))]++
		nearSum += n
		if steps%every == 0 {
			pending += eng.Pending()
			eng.CountQueuedByClass(classes, names)
			samples++
		}
		steps++
	}
	if samples == 0 {
		t.Fatal("the measured window fired no events")
	}
	t.Logf("%d steps; mean pending %.1f; mean near window %.1f",
		steps, float64(pending)/float64(samples), float64(nearSum)/float64(steps))
	for b, v := range near {
		if v > 0 {
			t.Logf("near window of [%d, %d) events: %5.2f%% of steps", (1<<b)>>1, 1<<b, 100*float64(v)/float64(steps))
		}
	}
	byCount := make([]string, 0, len(classes))
	for name := range classes {
		byCount = append(byCount, name)
	}
	sort.Slice(byCount, func(i, j int) bool {
		if classes[byCount[i]] != classes[byCount[j]] {
			return classes[byCount[i]] > classes[byCount[j]]
		}
		return byCount[i] < byCount[j]
	})
	for _, name := range byCount {
		t.Logf("queued %7.1f  %s", float64(classes[name])/float64(samples), name)
	}
}
