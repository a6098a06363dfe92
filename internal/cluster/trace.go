package cluster

import (
	"fmt"
	"io"

	"ncap/internal/stats"
	"ncap/internal/telemetry"
)

// Trace is the paper's time-series view of the first server node: the
// Fig. 4 correlation signals and the Fig. 8/9 BW(Rx)-versus-F snapshot
// with INT(wake) markers, one point per sampling interval over the
// measurement window. It is plain data, built when the window closes from
// a telemetry.Sampler over the node's registry metrics.
type Trace struct {
	BWRx  *stats.TimeSeries // bytes/s received
	BWTx  *stats.TimeSeries // bytes/s transmitted
	Util  *stats.TimeSeries // mean core utilization [0,1]
	Freq  *stats.TimeSeries // mean core frequency, GHz
	TC1   *stats.TimeSeries // fraction of core time spent in C1
	TC3   *stats.TimeSeries // ... in C3
	TC6   *stats.TimeSeries // ... in C6
	Wakes *stats.TimeSeries // NCAP wake interrupts (IT_HIGH boosts + CIT wakes)
}

// Series returns the eight series in CSV column order.
func (t *Trace) Series() []*stats.TimeSeries {
	return []*stats.TimeSeries{t.BWRx, t.BWTx, t.Util, t.Freq, t.TC1, t.TC3, t.TC6, t.Wakes}
}

// WriteCSV writes the aligned series as one CSV table.
func (t *Trace) WriteCSV(w io.Writer) error {
	return stats.MultiCSV(w, t.Series()...)
}

// traceCoreMetrics are the per-core metrics a trace samples, in the order
// buildTrace reads them.
var traceCoreMetrics = []string{
	"busy_ns", "cstate.c1.residency_ns", "cstate.c3.residency_ns", "cstate.c6.residency_ns", "freq_mhz",
}

// traceNames lists the registry metrics a trace samples on the server
// labelled prefix: rx and tx bytes, traceCoreMetrics for each core, then
// the NCAP wake counters (none when NCAP is off).
func traceNames(prefix string, cores int, wakes []string) []string {
	names := []string{prefix + ".nic.rx.bytes", prefix + ".nic.tx.bytes"}
	for i := 0; i < cores; i++ {
		for _, m := range traceCoreMetrics {
			names = append(names, fmt.Sprintf("%s.cpu.core%d.%s", prefix, i, m))
		}
	}
	return append(names, wakes...)
}

// traceSampler builds the sampler behind Result.Trace over node 0's
// metrics. With telemetry off, node 0's chip, NIC and driver register
// into a private registry that only the sampler reads.
func (c *Cluster) traceSampler() *telemetry.Sampler {
	n := c.nodes[0]
	reg := c.cfg.Telemetry.Registry()
	if reg == nil {
		reg = telemetry.NewRegistry()
		n.Chip.RegisterTelemetry(reg, nil, n.label+".cpu")
		n.NIC.RegisterTelemetry(reg, nil, n.label+".nic")
		n.Driver.RegisterTelemetry(reg, nil, n.label+".driver")
	}
	var wakes []string
	switch {
	case c.cfg.Policy.UsesNCAPHardware():
		for _, q := range n.NIC.Queues() {
			p := fmt.Sprintf("%s.nic.q%d.ncap.", n.label, q.ID())
			wakes = append(wakes, p+"highs", p+"wakes")
		}
	case c.cfg.Policy.UsesNCAPSoftware():
		wakes = []string{n.label + ".driver.sw.highs", n.label + ".driver.sw.wakes"}
	}
	names := traceNames(n.label, len(n.Chip.Cores()), wakes)
	return reg.Sampler(c.eng, c.cfg.TraceInterval, names...)
}

// buildTrace turns a sampler over traceNames into the trace's columns.
// Utilization and C-state shares are core-time sums over dt·cores, and
// frequency the per-core mean in GHz.
func buildTrace(s *telemetry.Sampler, cores int) *Trace {
	t := &Trace{
		BWRx:  &stats.TimeSeries{Name: "bw_rx_bytes_per_s"},
		BWTx:  &stats.TimeSeries{Name: "bw_tx_bytes_per_s"},
		Util:  &stats.TimeSeries{Name: "util"},
		Freq:  &stats.TimeSeries{Name: "freq_ghz"},
		TC1:   &stats.TimeSeries{Name: "t_c1"},
		TC3:   &stats.TimeSeries{Name: "t_c3"},
		TC6:   &stats.TimeSeries{Name: "t_c6"},
		Wakes: &stats.TimeSeries{Name: "int_wake"},
	}
	secs := s.Interval.Seconds()
	denom := float64(s.Interval) * float64(cores)
	per := len(traceCoreMetrics)
	for k, now := range s.Times {
		row := s.Rows[k]
		t.BWRx.Add(now, row[0]/secs)
		t.BWTx.Add(now, row[1]/secs)
		var busy, c1, c3, c6, mhz float64
		for i := 0; i < cores; i++ {
			v := row[2+i*per : 2+(i+1)*per]
			busy += v[0]
			c1 += v[1]
			c3 += v[2]
			c6 += v[3]
			mhz += v[4]
		}
		t.Util.Add(now, busy/denom)
		t.Freq.Add(now, mhz/float64(cores)/1000)
		t.TC1.Add(now, c1/denom)
		t.TC3.Add(now, c3/denom)
		t.TC6.Add(now, c6/denom)
		var wakes float64
		for _, v := range row[2+cores*per:] {
			wakes += v
		}
		t.Wakes.Add(now, wakes)
	}
	return t
}
