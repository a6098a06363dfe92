package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"

	"ncap/internal/app"
	"ncap/internal/experiments"
	"ncap/internal/resilience"
	"ncap/internal/sim"
	"ncap/internal/topology"
)

// maxRequestBytes bounds every request body the service decodes — a
// malformed or hostile client must not be able to balloon memory.
const maxRequestBytes = 1 << 20

// Windows overrides the experiment measurement windows, primarily so
// tests and CI smokes can run sweeps in milliseconds of simulated time.
// All three must be positive when the override is present.
type Windows struct {
	WarmupNs  int64 `json:"warmup_ns"`
	MeasureNs int64 `json:"measure_ns"`
	DrainNs   int64 `json:"drain_ns"`
}

// SubmitRequest is the JSON body of POST /v1/sweeps: an experiment family
// plus the same surface the ncapsweep flags expose. Two byte-identical
// requests against the same code produce byte-identical reports — that
// equivalence is what the crash-recovery tests assert.
type SubmitRequest struct {
	// Family is an experiments registry name ("e11", "policies", ...).
	Family string `json:"family"`
	// Workload restricts to one profile ("apache", "memcached"); empty
	// runs every built-in profile, like ncapsweep.
	Workload string `json:"workload,omitempty"`
	// Full selects the full measurement windows (ncapsweep -full).
	Full bool `json:"full,omitempty"`
	// Seed is the simulation seed; zero means 1, matching the CLI default.
	Seed uint64 `json:"seed,omitempty"`
	// Overload applies a resilience spec to every configuration.
	Overload *resilience.Spec `json:"overload,omitempty"`
	// Topology applies a cluster shape to every configuration.
	Topology *topology.Spec `json:"topology,omitempty"`
	// Windows overrides the warmup/measure/drain windows.
	Windows *Windows `json:"windows,omitempty"`
}

// ParseSubmit strictly decodes and validates a submission. Unknown
// fields, trailing garbage, out-of-range values, and names outside the
// registries are all errors — never panics, never a half-validated
// request reaching the journal.
func ParseSubmit(r io.Reader) (SubmitRequest, error) {
	var req SubmitRequest
	dec := json.NewDecoder(io.LimitReader(r, maxRequestBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return SubmitRequest{}, fmt.Errorf("request: %w", err)
	}
	if dec.More() {
		return SubmitRequest{}, fmt.Errorf("request: trailing data after JSON document")
	}
	if err := req.validate(); err != nil {
		return SubmitRequest{}, err
	}
	if req.Seed == 0 {
		req.Seed = 1
	}
	return req, nil
}

func (req SubmitRequest) validate() error {
	if req.Family == "" {
		return fmt.Errorf("request: missing family (want one of: %s)", experiments.FamilyNames())
	}
	if !experiments.IsFamily(req.Family) {
		return fmt.Errorf("request: unknown family %q (want one of: %s)", req.Family, experiments.FamilyNames())
	}
	if req.Workload != "" {
		if _, err := app.ProfileByName(req.Workload); err != nil {
			return fmt.Errorf("request: %w", err)
		}
	}
	if w := req.Windows; w != nil {
		if w.WarmupNs <= 0 || w.MeasureNs <= 0 || w.DrainNs <= 0 {
			return fmt.Errorf("request: windows must all be positive (got warmup=%d measure=%d drain=%d)",
				w.WarmupNs, w.MeasureNs, w.DrainNs)
		}
	}
	if err := req.Overload.Validate(); err != nil {
		return fmt.Errorf("request: overload: %w", err)
	}
	if t := req.Topology; t != nil {
		if err := t.Validate(); err != nil {
			return fmt.Errorf("request: topology: %w", err)
		}
	}
	return nil
}

// options resolves the request into experiment options (minus the runner
// pool, which each driver attaches itself) and the profile set.
func (req SubmitRequest) options() (experiments.Options, []app.Profile, error) {
	o := experiments.Quick()
	if req.Full {
		o = experiments.Full()
	}
	if w := req.Windows; w != nil {
		o.Warmup = sim.Duration(w.WarmupNs)
		o.Measure = sim.Duration(w.MeasureNs)
		o.Drain = sim.Duration(w.DrainNs)
	}
	o.Seed = req.Seed
	o.Overload = req.Overload
	o.Topology = req.Topology

	profiles := []app.Profile{app.ApacheProfile(), app.MemcachedProfile()}
	if req.Workload != "" {
		prof, err := app.ProfileByName(req.Workload)
		if err != nil {
			return o, nil, err
		}
		profiles = []app.Profile{prof}
	}
	return o, profiles, nil
}

// canonical returns the request's journal serialization. Replay re-parses
// it with the same strict decoder, so a journal can never resurrect a
// request the submit endpoint would have rejected.
func (req SubmitRequest) canonical() (json.RawMessage, error) {
	blob, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	return blob, nil
}

// reparse round-trips a journaled request through the strict parser.
func reparse(raw json.RawMessage) (SubmitRequest, error) {
	return ParseSubmit(bytes.NewReader(raw))
}
