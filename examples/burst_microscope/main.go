// Burst microscope: watch NCAP react to a single request burst.
//
// Traces a Memcached server under ond.idle and under ncap.cons at 500 µs
// resolution and prints an ASCII strip chart of BW(Rx) and the core
// frequency around one burst — the mechanism in Figure 6 and the
// Figure 8/9 right-hand panels: the enhanced NIC detects the
// latency-critical burst at wire arrival and boosts the chip while the
// packets are still being delivered, where ond.idle reacts only at its
// next 10 ms sampling tick.
//
//	go run ./examples/burst_microscope
package main

import (
	"fmt"
	"strings"

	"ncap"
)

func main() {
	for _, policy := range []ncap.Policy{ncap.OndIdle, ncap.NcapCons} {
		cfg := ncap.DefaultConfig(policy, ncap.Memcached(), ncap.LoadRPS("memcached", ncap.LowLoad))
		cfg.TraceInterval = 500 * ncap.Microsecond
		cfg.Measure = 200 * ncap.Millisecond
		res := ncap.Run(cfg)

		s := res.Trace
		fmt.Printf("=== %s  (p95=%v, energy=%.2f J)\n", policy, res.Latency.P95, res.EnergyJ)
		fmt.Println("time    BW(Rx)                F(GHz)                INT")

		// Find the first pronounced burst and show ±10 ms around it.
		bwMax := s.BWRx.Max()
		start := 0
		for i, p := range s.BWRx.Points {
			if p.V > bwMax/2 && i > 4 {
				start = i - 4
				break
			}
		}
		end := start + 40
		if end > len(s.BWRx.Points) {
			end = len(s.BWRx.Points)
		}
		fMax := 3.1
		for i := start; i < end; i++ {
			bw := s.BWRx.Points[i].V / bwMax
			f := s.Freq.Points[i].V / fMax
			mark := ""
			if s.Wakes.Points[i].V > 0 {
				mark = fmt.Sprintf("INT(wake) x%d", int(s.Wakes.Points[i].V))
			}
			fmt.Printf("%7.1fms %-20s  %-20s  %s\n",
				s.BWRx.Points[i].T.Millis(), bar(bw, 20), bar(f, 20), mark)
		}
		fmt.Println()
	}
	fmt.Println("note how ncap.cons raises F inside the burst's first millisecond;")
	fmt.Println("ond.idle holds the previous frequency until its next sampling period.")
}

func bar(frac float64, width int) string {
	if frac < 0 {
		frac = 0
	}
	if frac > 1 {
		frac = 1
	}
	n := int(frac*float64(width) + 0.5)
	return strings.Repeat("#", n) + strings.Repeat(".", width-n)
}
