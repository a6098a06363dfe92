package experiments

import (
	"ncap/internal/app"
	"ncap/internal/cluster"
	"ncap/internal/sim"
)

// Ablations isolate the design choices DESIGN.md §4 calls out. Each
// returns paired results whose delta quantifies the mechanism.

// AblationPair is a with/without measurement of one mechanism.
type AblationPair struct {
	Name            string
	With, Without   cluster.Result
	LatencyDeltaPct float64 // (without - with) / with × 100, p95
	EnergyDeltaPct  float64
}

func pair(name string, with, without cluster.Result) AblationPair {
	p := AblationPair{Name: name, With: with, Without: without}
	if with.Latency.P95 > 0 {
		p.LatencyDeltaPct = 100 * float64(without.Latency.P95-with.Latency.P95) / float64(with.Latency.P95)
	}
	if with.EnergyJ > 0 {
		p.EnergyDeltaPct = 100 * (without.EnergyJ - with.EnergyJ) / with.EnergyJ
	}
	return p
}

// AblationCIT disables the CIT speculation path (Sec. 4.3's immediate
// IT_RX wake) by raising the idle-time threshold beyond any real gap, so
// sleeping cores are woken only by the moderated rx interrupt.
func AblationCIT(o Options, prof app.Profile, lvl cluster.LoadLevel) AblationPair {
	load := cluster.LoadRPS(prof.Name, lvl)
	results := runBatch(o, "abl-cit", []cluster.Config{
		configFor(o, cluster.NcapCons, prof, load, nil),
		configFor(o, cluster.NcapCons, prof, load, func(c *cluster.Config) {
			c.NCAP.CIT = sim.Second // effectively never speculate
		}),
	})
	return pair("cit-wake", results[0], results[1])
}

// AblationContext compares context-aware template matching against the
// naive any-packet rate trigger of Sec. 4.1, under heavy non-latency-
// critical background traffic. The latency-critical load is kept light so
// a correct NCAP should mostly rest.
func AblationContext(o Options) AblationPair {
	prof := app.MemcachedProfile()
	mutate := func(naive bool) func(*cluster.Config) {
		return func(c *cluster.Config) {
			c.BulkBps = 2_000_000_000 // 2 Gb/s of PUT bulk traffic
			c.NaiveNCAP = naive
		}
	}
	results := runBatch(o, "abl-ctx", []cluster.Config{
		configFor(o, cluster.NcapAggr, prof, 5_000, mutate(false)),
		configFor(o, cluster.NcapAggr, prof, 5_000, mutate(true)),
	})
	return pair("context-aware", results[0], results[1])
}

// AblationOverlap moves NCAP's packet inspection from wire arrival to DMA
// completion, forfeiting the overlap of the core wake with the ~86 µs
// NIC→memory delivery path (Sec. 2.2).
func AblationOverlap(o Options, prof app.Profile, lvl cluster.LoadLevel) AblationPair {
	load := cluster.LoadRPS(prof.Name, lvl)
	results := runBatch(o, "abl-overlap", []cluster.Config{
		configFor(o, cluster.NcapCons, prof, load, nil),
		configFor(o, cluster.NcapCons, prof, load, func(c *cluster.Config) {
			c.NIC.InspectAtDMAComplete = true
		}),
	})
	return pair("wake-delivery-overlap", results[0], results[1])
}

// FConsRow is one FCONS setting's outcome.
type FConsRow struct {
	FCONS  int
	Result cluster.Result
}

// AblationFCONS sweeps the frequency-reduction step count between the
// paper's aggressive (1) and conservative (5) settings and beyond.
func AblationFCONS(o Options, prof app.Profile, lvl cluster.LoadLevel) []FConsRow {
	load := cluster.LoadRPS(prof.Name, lvl)
	steps := []int{1, 2, 5, 10}
	cfgs := make([]cluster.Config, len(steps))
	for i, f := range steps {
		cfgs[i] = configFor(o, cluster.NcapCons, prof, load, func(c *cluster.Config) { c.FCONS = f })
	}
	rows := make([]FConsRow, len(steps))
	for i, res := range runBatch(o, "abl-fcons", cfgs) {
		rows[i] = FConsRow{FCONS: steps[i], Result: res}
	}
	return rows
}

// HeadlineClaims quantifies the abstract's numbers for one workload:
// NCAP's energy saving vs the perf baseline, and vs the most
// energy-efficient SLA-satisfying conventional policy, at each load.
type HeadlineClaims struct {
	SLA  sim.Duration
	Rows []HeadlineRow
}

// HeadlineRow is one load level's summary.
type HeadlineRow struct {
	Level cluster.LoadLevel
	// BestConventional is the cheapest conventional policy meeting the SLA.
	BestConventional cluster.Policy
	// SavingVsPerfPct is ncap.aggr's energy saving against perf.
	SavingVsPerfPct float64
	// SavingVsBestPct is ncap.aggr's saving against BestConventional.
	SavingVsBestPct float64
	// NcapMeetsSLA reports whether ncap.aggr met the SLA.
	NcapMeetsSLA bool
}

// Headline computes the claims from a comparison table.
func Headline(sla sim.Duration, rows []PolicyRow) HeadlineClaims {
	h := HeadlineClaims{SLA: sla}
	byLevel := map[cluster.LoadLevel][]PolicyRow{}
	for _, r := range rows {
		byLevel[r.Level] = append(byLevel[r.Level], r)
	}
	for _, lvl := range []cluster.LoadLevel{cluster.LowLoad, cluster.MediumLoad, cluster.HighLoad} {
		group, ok := byLevel[lvl]
		if !ok {
			continue
		}
		var perfE, ncapE float64
		var ncapOK bool
		bestE := -1.0
		var best cluster.Policy
		conventional := map[cluster.Policy]bool{
			cluster.Perf: true, cluster.Ond: true, cluster.PerfIdle: true, cluster.OndIdle: true,
		}
		for _, r := range group {
			switch r.Policy {
			case cluster.Perf:
				perfE = r.EnergyJ
			case cluster.NcapAggr:
				ncapE = r.EnergyJ
				ncapOK = r.MeetsSLA
			}
			if conventional[r.Policy] && r.MeetsSLA && (bestE < 0 || r.EnergyJ < bestE) {
				bestE = r.EnergyJ
				best = r.Policy
			}
		}
		row := HeadlineRow{Level: lvl, BestConventional: best, NcapMeetsSLA: ncapOK}
		if perfE > 0 {
			row.SavingVsPerfPct = 100 * (perfE - ncapE) / perfE
		}
		if bestE > 0 {
			row.SavingVsBestPct = 100 * (bestE - ncapE) / bestE
		}
		h.Rows = append(h.Rows, row)
	}
	return h
}
