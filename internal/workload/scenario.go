package workload

import (
	"fmt"
	"math"
	"strings"

	"ncap/internal/sim"
)

// Built-in scenario names.
const (
	// ScenarioStationary is the legacy built-in burst-client traffic: a
	// run configured with it is byte-identical to one with no Spec at
	// all. It exists so scenario sweeps carry their own baseline row.
	ScenarioStationary = "stationary"
	// ScenarioDiurnal modulates the arrival rate sinusoidally — the
	// day/night load curve, compressed to simulation scale.
	ScenarioDiurnal = "diurnal"
	// ScenarioFlashCrowd holds a steady base rate, then steps to a peak
	// and decays back exponentially (a link on the front page).
	ScenarioFlashCrowd = "flashcrowd"
	// ScenarioHeavyTail keeps Poisson arrivals but draws response sizes
	// from a bounded Pareto — a few responses dominate the bytes.
	ScenarioHeavyTail = "heavytail"
	// ScenarioIncast fires fan-in beats: every client emits incastFanin
	// same-instant requests on distinct flows at a steady beat, the
	// synchronized-reader pattern that stresses pacing and queues.
	ScenarioIncast = "incast"
	// ScenarioScaleOut spreads Poisson arrivals across many flows per
	// client — the many-connection service mesh shape.
	ScenarioScaleOut = "scaleout"
)

// ScenarioNames lists the built-in scenarios in presentation order.
func ScenarioNames() []string {
	return []string{
		ScenarioStationary, ScenarioDiurnal, ScenarioFlashCrowd,
		ScenarioHeavyTail, ScenarioIncast, ScenarioScaleOut,
	}
}

// ScenarioUsage returns the comma-separated name list for CLI help.
func ScenarioUsage() string { return strings.Join(ScenarioNames(), ", ") }

// ParseScenario resolves a scenario name or returns an error listing the
// valid names.
func ParseScenario(name string) (Scenario, error) {
	for _, n := range ScenarioNames() {
		if name == n {
			return Scenario{Name: name}, nil
		}
	}
	return Scenario{}, fmt.Errorf("workload: unknown scenario %q (want %s)", name, ScenarioUsage())
}

// Each scenario's shape is fixed; these are its parameters.
const (
	// diurnalPeriod is the diurnal modulation period; diurnalAmp its
	// depth in [0,1].
	diurnalPeriod = 100 * sim.Millisecond
	diurnalAmp    = 0.75
	// flashPeak is the flash-crowd rate multiplier at onset, which sits
	// at flashStartFrac of the generation horizon; the surge decays
	// exponentially with time constant flashDecay.
	flashPeak      = 3
	flashStartFrac = 0.4
	flashDecay     = 50 * sim.Millisecond
	// heavyAlpha is the bounded-Pareto shape; heavyMinResp and
	// heavyMaxResp bound the response sizes.
	heavyAlpha   = 1.3
	heavyMinResp = 128
	heavyMaxResp = 256 * 1024
	// incastFanin is the per-beat same-instant request count.
	incastFanin = 32
	// scaleOutFlows is the per-client flow fan-out.
	scaleOutFlows = 256
)

// Scenario selects one generated arrival schedule. Its JSON form is part
// of the cluster config, so the scenario is cache-keyed; the generated
// trace's pacing floor (MinGap) is the profile's request spacing.
type Scenario struct {
	// Name selects the generator; empty means no scenario (legacy
	// traffic, like ScenarioStationary).
	Name string `json:"name,omitempty"`
}

// Replay reports whether the scenario replays a generated schedule
// (anything but empty/stationary).
func (s Scenario) Replay() bool { return s.Name != "" && s.Name != ScenarioStationary }

// Validate reports an unknown scenario name.
func (s Scenario) Validate() error {
	if s.Name != "" {
		if _, err := ParseScenario(s.Name); err != nil {
			return err
		}
	}
	return nil
}

// peakFactor bounds the scenario's instantaneous rate relative to the
// mean offered load (for record-count estimation).
func (s Scenario) peakFactor() float64 {
	switch s.Name {
	case ScenarioDiurnal:
		return 1 + diurnalAmp
	case ScenarioFlashCrowd:
		return flashPeak
	}
	return 1
}

// EstimateRecords upper-bounds the generated record count so configs can
// be rejected before an oversized generation is attempted.
func (s Scenario) EstimateRecords(loadRPS float64, horizon sim.Duration) int64 {
	return int64(loadRPS*horizon.Seconds()*s.peakFactor()*1.25) + 64
}

// GenParams carries the cluster-side inputs to trace generation. The
// package deliberately does not import the application profile; the
// cluster passes the few fields the generators need.
type GenParams struct {
	// LoadRPS is the mean aggregate offered load across all clients.
	LoadRPS float64
	// Clients is the client fan-out; each gets a private RNG stream.
	Clients int
	// Horizon is the schedule length (warmup + measurement window).
	Horizon sim.Duration
	// Seed is the run seed the per-client streams derive from.
	Seed uint64
	// ReqBytes is the request payload size (the profile's).
	ReqBytes int
	// Pace is the generated trace's pacing floor (the profile's request
	// spacing).
	Pace sim.Duration
}

// Generate builds the scenario's trace. Determinism: client i's records
// come from the stream seeded (Seed, "workload/<name>/client<i>") drawn
// in event order, then a stable k-way merge — the same trace at any
// worker count, and a different stream per scenario so editing one never
// perturbs another.
func (s Scenario) Generate(p GenParams) (*Trace, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if !s.Replay() {
		return nil, fmt.Errorf("workload: scenario %q drives the built-in burst clients and has no trace", s.Name)
	}
	switch {
	case p.LoadRPS <= 0:
		return nil, fmt.Errorf("workload: generation needs a positive load")
	case p.Clients < 1 || p.Clients > maxTraceClients:
		return nil, fmt.Errorf("workload: generation clients %d out of range [1, %d]", p.Clients, maxTraceClients)
	case p.Horizon <= 0 || p.Horizon > maxTraceTime:
		return nil, fmt.Errorf("workload: generation horizon %v out of range", p.Horizon)
	}
	if p.ReqBytes < minReqBytes {
		p.ReqBytes = minReqBytes
	}
	if p.ReqBytes > maxReqBytes {
		p.ReqBytes = maxReqBytes
	}
	if est := s.EstimateRecords(p.LoadRPS, p.Horizon); est > MaxTraceRecords {
		return nil, fmt.Errorf("workload: scenario %s at %.0f rps over %v needs ~%d records (limit %d); shorten the windows or lower the load",
			s.Name, p.LoadRPS, p.Horizon, est, MaxTraceRecords)
	}

	r0 := p.LoadRPS / float64(p.Clients)
	perClient := make([][]Record, p.Clients)
	for i := 0; i < p.Clients; i++ {
		rng := sim.NewRand(p.Seed, fmt.Sprintf("workload/%s/client%d", s.Name, i))
		perClient[i] = s.genClient(p, i, r0, rng)
	}

	t := &Trace{Clients: p.Clients, MinGap: p.Pace}
	t.Records = mergeByTime(perClient)
	if len(t.Records) > MaxTraceRecords {
		return nil, fmt.Errorf("workload: scenario %s generated %d records (limit %d)", s.Name, len(t.Records), MaxTraceRecords)
	}
	return t, nil
}

// genClient generates one client's records in time order. The receiver
// is already validated.
func (s Scenario) genClient(p GenParams, client int, r0 float64, rng *sim.Rand) []Record {
	rec := func(t sim.Time) Record {
		return Record{T: t, Client: client, Req: p.ReqBytes}
	}
	switch s.Name {
	case ScenarioDiurnal:
		times := poissonTimes(rng, r0*(1+diurnalAmp), p.Horizon, func(t sim.Time) float64 {
			return r0 * (1 + diurnalAmp*math.Sin(2*math.Pi*float64(t)/float64(diurnalPeriod)))
		})
		out := make([]Record, len(times))
		for i, t := range times {
			out[i] = rec(t)
		}
		return out

	case ScenarioFlashCrowd:
		t0 := sim.Time(flashStartFrac * float64(p.Horizon))
		times := poissonTimes(rng, r0*flashPeak, p.Horizon, func(t sim.Time) float64 {
			if t < t0 {
				return r0
			}
			return r0 * (1 + (flashPeak-1)*math.Exp(-float64(t-t0)/float64(flashDecay)))
		})
		out := make([]Record, len(times))
		for i, t := range times {
			out[i] = rec(t)
		}
		return out

	case ScenarioHeavyTail:
		times := poissonTimes(rng, r0, p.Horizon, nil)
		out := make([]Record, len(times))
		for i, t := range times {
			out[i] = rec(t)
			out[i].Resp = boundedPareto(rng, heavyAlpha, heavyMinResp, heavyMaxResp)
		}
		return out

	case ScenarioIncast:
		// Beat cadence follows the offered load: each beat carries
		// incastFanin requests, so beats arrive every incastFanin/r0
		// seconds.
		beat := sim.Duration(float64(incastFanin) / r0 * float64(sim.Second))
		if beat < 1 {
			beat = 1
		}
		var out []Record
		offset := beat * sim.Duration(client) / sim.Duration(p.Clients)
		for t := offset; t < p.Horizon; t += beat {
			// Per-beat jitter desynchronizes clients without reordering
			// (jitter stays well under the beat gap).
			at := t + rng.Duration(0, beat/8)
			if at >= p.Horizon {
				break
			}
			for f := 0; f < incastFanin; f++ {
				r := rec(at)
				r.Flow = f
				out = append(out, r)
			}
		}
		return out

	case ScenarioScaleOut:
		times := poissonTimes(rng, r0, p.Horizon, nil)
		out := make([]Record, len(times))
		for i, t := range times {
			out[i] = rec(t)
			out[i].Flow = rng.Intn(scaleOutFlows)
		}
		return out
	}
	return nil
}

// poissonTimes draws a (possibly nonhomogeneous) Poisson arrival process
// on [0, horizon) by thinning against lambdaMax: candidates arrive at
// rate lambdaMax and survive with probability intensity(t)/lambdaMax. A
// nil intensity is the homogeneous process at lambdaMax.
func poissonTimes(rng *sim.Rand, lambdaMax float64, horizon sim.Duration, intensity func(sim.Time) float64) []sim.Time {
	if lambdaMax <= 0 {
		return nil
	}
	meanGap := sim.Duration(float64(sim.Second) / lambdaMax)
	if meanGap < 1 {
		meanGap = 1
	}
	var out []sim.Time
	t := sim.Time(0)
	for {
		gap := rng.Exp(meanGap)
		if gap < 1 {
			gap = 1 // integer-ns clock: always advance
		}
		t += gap
		if t >= horizon {
			return out
		}
		if intensity == nil || rng.Float64()*lambdaMax <= intensity(t) {
			out = append(out, t)
		}
	}
}

// boundedPareto draws from a Pareto(alpha) truncated to [lo, hi] via the
// inverse CDF.
func boundedPareto(rng *sim.Rand, alpha float64, lo, hi int) int {
	if lo >= hi {
		return lo
	}
	u := rng.Float64()
	l, h := float64(lo), float64(hi)
	ratio := math.Pow(l/h, alpha)
	x := l / math.Pow(1-u*(1-ratio), 1/alpha)
	if x < l {
		x = l
	}
	if x > h {
		x = h
	}
	return int(x)
}

// mergeByTime merges per-client time-sorted record slices into one
// globally non-decreasing stream; ties break by client index, giving the
// same-instant FIFO order replay preserves.
func mergeByTime(perClient [][]Record) []Record {
	total := 0
	for _, recs := range perClient {
		total += len(recs)
	}
	out := make([]Record, 0, total)
	idx := make([]int, len(perClient))
	for len(out) < total {
		best := -1
		var bestT sim.Time
		for c, recs := range perClient {
			if idx[c] >= len(recs) {
				continue
			}
			if best == -1 || recs[idx[c]].T < bestT {
				best, bestT = c, recs[idx[c]].T
			}
		}
		out = append(out, perClient[best][idx[best]])
		idx[best]++
	}
	return out
}
