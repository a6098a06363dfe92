package cluster

import (
	"encoding/json"
	"testing"

	"ncap/internal/app"
	"ncap/internal/sim"
	"ncap/internal/workload"
)

// resultJSON canonicalizes a Result for byte-identity comparison (the
// live Recorded trace is excluded from serialization and Trace is nil in
// these runs, exactly as in the report path).
func resultJSON(t *testing.T, r Result) string {
	t.Helper()
	blob, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return string(blob)
}

// TestStationaryScenarioIsLegacyTraffic: a config carrying the
// stationary scenario (E12's baseline row) runs the built-in burst
// clients and produces a Result byte-identical to the bare config's.
func TestStationaryScenarioIsLegacyTraffic(t *testing.T) {
	bare := shortConfig(NcapCons, app.MemcachedProfile(), 35_000)
	tagged := bare
	tagged.Traffic = &workload.Spec{Scenario: workload.Scenario{Name: workload.ScenarioStationary}}
	a := resultJSON(t, New(bare).Run())
	b := resultJSON(t, New(tagged).Run())
	if a != b {
		t.Fatalf("stationary scenario diverged from legacy traffic:\n%s\nvs\n%s", a, b)
	}
}

// TestRecordReplayIdentity is the subsystem's core guarantee: capture a
// legacy run's arrival schedule, replay it, and every measured quantity —
// latency distribution, energy, event count, lag accounting — matches
// byte for byte.
func TestRecordReplayIdentity(t *testing.T) {
	for _, p := range []Policy{PerfIdle, NcapCons, OndIdle} {
		rec := shortConfig(p, app.MemcachedProfile(), 35_000)
		rec.Traffic = &workload.Spec{Record: true}
		recRes := New(rec).Run()
		if recRes.Recorded == nil {
			t.Fatalf("%s: recording run captured nothing", p)
		}
		if err := recRes.Recorded.Validate(); err != nil {
			t.Fatalf("%s: captured trace invalid: %v", p, err)
		}
		if recRes.TraceHash != recRes.Recorded.Hash() {
			t.Fatalf("%s: result hash %.12s does not match capture", p, recRes.TraceHash)
		}

		rep := shortConfig(p, app.MemcachedProfile(), 35_000)
		rep.Traffic = workload.SpecForTrace(recRes.Recorded)
		repRes := New(rep).Run()
		if a, b := resultJSON(t, recRes), resultJSON(t, repRes); a != b {
			t.Fatalf("%s: replay diverged from recording:\n%s\nvs\n%s", p, a, b)
		}
	}
}

// TestScenarioReplayDeterministic: a scenario-driven run is a pure
// function of its config, and its TraceHash matches the trace the seed
// generator produces on its own (the config is the schedule's identity).
func TestScenarioReplayDeterministic(t *testing.T) {
	cfg := shortConfig(NcapAggr, app.MemcachedProfile(), 35_000)
	cfg.Traffic = &workload.Spec{Scenario: workload.Scenario{Name: workload.ScenarioDiurnal}}
	a, b := New(cfg).Run(), New(cfg).Run()
	if x, y := resultJSON(t, a), resultJSON(t, b); x != y {
		t.Fatal("same scenario config diverged")
	}
	want, err := workload.Scenario{Name: workload.ScenarioDiurnal}.Generate(workload.GenParams{
		LoadRPS: cfg.LoadRPS, Clients: cfg.Clients,
		Horizon: cfg.Warmup + cfg.Measure, Seed: cfg.Seed,
		ReqBytes: cfg.Workload.RequestBytes, Pace: cfg.Workload.RequestSpacing,
	})
	if err != nil {
		t.Fatal(err)
	}
	if a.TraceHash != want.Hash() {
		t.Fatalf("run hash %.12s, seed generator gives %.12s", a.TraceHash, want.Hash())
	}
	if a.IntendedSends == 0 {
		t.Fatal("replay run reported no intended sends")
	}
}

// TestReplayPacingLag: a schedule denser than its pacing floor forces
// lagged sends, and the lag accounting surfaces them. Incast beats put 32
// requests at one instant, and the generated trace's floor is the
// profile's request spacing.
func TestReplayPacingLag(t *testing.T) {
	cfg := shortConfig(Perf, app.MemcachedProfile(), 35_000)
	cfg.Traffic = &workload.Spec{Scenario: workload.Scenario{Name: workload.ScenarioIncast}}
	res := New(cfg).Run()
	if res.LaggedSends == 0 || res.SendLagMax == 0 {
		t.Fatalf("incast under a %v pacing floor reported no lag: %+v",
			cfg.Workload.RequestSpacing, res.LaggedSends)
	}
	if res.LaggedSends > res.IntendedSends {
		t.Fatalf("lagged %d > intended %d", res.LaggedSends, res.IntendedSends)
	}
	// Coordinated omission: charging from the schedule means observed
	// latency includes the pacing backlog.
	if res.Latency.Max < res.SendLagMax {
		t.Fatalf("max latency %v below max send lag %v — latency not charged from schedule",
			res.Latency.Max, res.SendLagMax)
	}
}

// TestReplayBulkClass: bulk-class records replay as one-way background
// traffic — counted, but never in the request latency distribution.
func TestReplayBulkClass(t *testing.T) {
	tr := &workload.Trace{Clients: 3}
	for i := 0; i < 300; i++ {
		at := sim.Time(i) * sim.Time(sim.Millisecond) / 2
		tr.Records = append(tr.Records,
			workload.Record{T: at, Client: i % 3, Req: 64},
			workload.Record{T: at, Client: i % 3, Flow: 1, Req: 1400, Class: workload.ClassBulk})
	}
	cfg := shortConfig(NcapCons, app.MemcachedProfile(), 35_000)
	cfg.Traffic = workload.SpecForTrace(tr)
	c := New(cfg)
	res := c.Run()
	var bulk int64
	for _, cl := range c.Clients {
		bulk += cl.BulkSent.Value()
	}
	if bulk == 0 {
		t.Fatal("bulk records never sent")
	}
	if res.Completed == 0 {
		t.Fatal("request records never completed")
	}
	// Each client sends 100 request + 100 bulk records; only requests
	// enter Sent/Completed accounting.
	if res.Sent+res.Abandoned > 300 {
		t.Fatalf("bulk traffic leaked into request accounting: sent=%d", res.Sent)
	}
}

// TestConfigValidateTraffic: traffic specs are vetted with the rest of
// the config — fan-out mismatches and oversized generations are errors,
// not panics inside New.
func TestConfigValidateTraffic(t *testing.T) {
	cfg := shortConfig(Perf, app.MemcachedProfile(), 35_000)
	cfg.Traffic = workload.SpecForTrace(&workload.Trace{
		Clients: cfg.Clients + 1,
		Records: []workload.Record{{T: 0, Client: 0, Req: 64}},
	})
	if err := cfg.Validate(); err == nil {
		t.Fatal("client-count mismatch validated")
	}
	over := shortConfig(Perf, app.MemcachedProfile(), 35_000)
	over.LoadRPS = 1e9
	over.Traffic = &workload.Spec{Scenario: workload.Scenario{Name: workload.ScenarioDiurnal}}
	if err := over.Validate(); err == nil {
		t.Fatal("oversized generation validated")
	}
	ok := shortConfig(Perf, app.MemcachedProfile(), 35_000)
	ok.Traffic = &workload.Spec{Scenario: workload.Scenario{Name: workload.ScenarioFlashCrowd}}
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid scenario config rejected: %v", err)
	}
}

// TestLegacyConfigSerializationUnchanged: a nil Traffic spec serializes
// to exactly the pre-subsystem JSON, preserving every legacy cache key.
func TestLegacyConfigSerializationUnchanged(t *testing.T) {
	blob, err := json.Marshal(shortConfig(Perf, app.MemcachedProfile(), 35_000))
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(blob, &m); err != nil {
		t.Fatal(err)
	}
	if _, ok := m["Traffic"]; ok {
		t.Fatalf("legacy config serialization gained a Traffic field: %s", blob)
	}
}
