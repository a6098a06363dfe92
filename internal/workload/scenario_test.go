package workload

import (
	"strings"
	"testing"

	"ncap/internal/sim"
)

func genParams() GenParams {
	return GenParams{
		LoadRPS:  40_000,
		Clients:  3,
		Horizon:  50 * sim.Millisecond,
		Seed:     1,
		ReqBytes: 120,
		Pace:     500 * sim.Nanosecond,
	}
}

func TestParseScenario(t *testing.T) {
	for _, name := range ScenarioNames() {
		sc, err := ParseScenario(name)
		if err != nil || sc.Name != name {
			t.Fatalf("ParseScenario(%q) = %+v, %v", name, sc, err)
		}
	}
	if _, err := ParseScenario("nope"); err == nil || !strings.Contains(err.Error(), ScenarioUsage()) {
		t.Fatalf("unknown scenario error %v does not list valid names", err)
	}
	if !strings.Contains(ScenarioUsage(), ScenarioIncast) {
		t.Fatal("usage string missing a scenario")
	}
}

func TestScenarioReplay(t *testing.T) {
	if (Scenario{}).Replay() || (Scenario{Name: ScenarioStationary}).Replay() {
		t.Fatal("empty/stationary scenarios must not replay")
	}
	for _, name := range ScenarioNames()[1:] {
		if !(Scenario{Name: name}).Replay() {
			t.Fatalf("%s must replay", name)
		}
	}
}

// TestGenerateDeterministic: same seed → byte-identical trace (same
// canonical hash); different seed → different schedule.
func TestGenerateDeterministic(t *testing.T) {
	for _, name := range ScenarioNames()[1:] {
		sc := Scenario{Name: name}
		a, err := sc.Generate(genParams())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		b, _ := sc.Generate(genParams())
		if a.Hash() != b.Hash() {
			t.Errorf("%s: same seed produced different traces", name)
		}
		p := genParams()
		p.Seed = 2
		c, _ := sc.Generate(p)
		if c.Hash() == a.Hash() {
			t.Errorf("%s: different seeds produced identical traces", name)
		}
	}
}

// TestGenerateValidSorted: every generated trace passes strict validation
// (so it round-trips through the parser) and carries roughly the offered
// load.
func TestGenerateValidSorted(t *testing.T) {
	for _, name := range ScenarioNames()[1:] {
		tr, err := Scenario{Name: name}.Generate(genParams())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("%s: generated trace invalid: %v", name, err)
		}
		var sb strings.Builder
		if err := tr.Write(&sb); err != nil {
			t.Fatalf("%s: write: %v", name, err)
		}
		back, err := ParseTrace([]byte(sb.String()))
		if err != nil {
			t.Fatalf("%s: generated trace does not re-parse: %v", name, err)
		}
		if back.Hash() != tr.Hash() {
			t.Fatalf("%s: parse round trip changed the hash", name)
		}
		// ~2000 expected records (40k rps × 50 ms); generators modulate the
		// rate but must stay in the right decade.
		if n := len(tr.Records); n < 500 || n > 5000 {
			t.Errorf("%s: %d records for ~2000 expected", name, n)
		}
	}
}

func TestDiurnalModulates(t *testing.T) {
	p := genParams()
	p.Horizon = diurnalPeriod
	tr, err := Scenario{Name: ScenarioDiurnal}.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	// Over one full period, the first half-period
	// (rising sine) must out-arrive the second (falling below base rate).
	half := p.Horizon / 2
	var first, second int
	for _, r := range tr.Records {
		if r.T < half {
			first++
		} else {
			second++
		}
	}
	if first <= second {
		t.Fatalf("diurnal modulation invisible: %d arrivals then %d", first, second)
	}
}

func TestFlashCrowdSteps(t *testing.T) {
	p := genParams()
	tr, err := Scenario{Name: ScenarioFlashCrowd}.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	onset := sim.Time(flashStartFrac * float64(p.Horizon))
	window := p.Horizon / 5 // compare equal windows straddling the onset
	var before, after int
	for _, r := range tr.Records {
		switch {
		case r.T >= onset-window && r.T < onset:
			before++
		case r.T >= onset && r.T < onset+window:
			after++
		}
	}
	// The 50 ms decay holds the rate above 2.5× through the 10 ms
	// after-window.
	if after < 2*before {
		t.Fatalf("flash crowd did not step: %d arrivals before onset, %d after", before, after)
	}
}

func TestHeavyTailBounds(t *testing.T) {
	tr, err := Scenario{Name: ScenarioHeavyTail}.Generate(genParams())
	if err != nil {
		t.Fatal(err)
	}
	var maxSeen int
	for _, r := range tr.Records {
		if r.Resp < heavyMinResp || r.Resp > heavyMaxResp {
			t.Fatalf("response %d outside [%d, %d]", r.Resp, heavyMinResp, heavyMaxResp)
		}
		if r.Resp > maxSeen {
			maxSeen = r.Resp
		}
	}
	// The tail must actually reach past the body (alpha 1.3 over a 2048×
	// range produces >10× the minimum routinely).
	if maxSeen < 10*heavyMinResp {
		t.Fatalf("heavy tail never left the body: max response %d", maxSeen)
	}
}

func TestIncastBeats(t *testing.T) {
	tr, err := Scenario{Name: ScenarioIncast}.Generate(genParams())
	if err != nil {
		t.Fatal(err)
	}
	// Same-instant groups of exactly 32 requests on distinct flows.
	groups := map[sim.Time]map[int]bool{}
	for _, r := range tr.Records {
		key := r.T
		if groups[key] == nil {
			groups[key] = map[int]bool{}
		}
		if groups[key][r.Flow] {
			t.Fatalf("beat at %v repeats flow %d", r.T, r.Flow)
		}
		groups[key][r.Flow] = true
	}
	full := 0
	for _, flows := range groups {
		if len(flows) == 32 {
			full++
		}
	}
	if full < len(groups)/2 {
		t.Fatalf("only %d/%d beats carry the full fan-in", full, len(groups))
	}
}

func TestScaleOutSpreadsFlows(t *testing.T) {
	tr, err := Scenario{Name: ScenarioScaleOut}.Generate(genParams())
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for _, r := range tr.Records {
		if r.Flow < 0 || r.Flow >= 256 {
			t.Fatalf("flow %d outside [0,256)", r.Flow)
		}
		seen[r.Flow] = true
	}
	if len(seen) < 128 {
		t.Fatalf("~2000 arrivals touched only %d/256 flows", len(seen))
	}
}

func TestGenerateRejects(t *testing.T) {
	p := genParams()
	if _, err := (Scenario{Name: ScenarioStationary}).Generate(p); err == nil {
		t.Fatal("stationary generated a trace")
	}
	if _, err := (Scenario{}).Generate(p); err == nil {
		t.Fatal("empty scenario generated a trace")
	}
	bad := p
	bad.LoadRPS = 0
	if _, err := (Scenario{Name: ScenarioDiurnal}).Generate(bad); err == nil {
		t.Fatal("zero load accepted")
	}
	huge := p
	huge.Horizon = 10_000 * sim.Second
	_, err := (Scenario{Name: ScenarioDiurnal}).Generate(huge)
	if err == nil || !strings.Contains(err.Error(), "records") {
		t.Fatalf("oversized generation error = %v, want record-limit refusal", err)
	}
}

func TestEstimateRecordsCoversActual(t *testing.T) {
	p := genParams()
	for _, name := range ScenarioNames()[1:] {
		sc := Scenario{Name: name}
		tr, err := sc.Generate(p)
		if err != nil {
			t.Fatal(err)
		}
		if est := sc.EstimateRecords(p.LoadRPS, p.Horizon); int64(len(tr.Records)) > est {
			t.Errorf("%s: generated %d records, estimate said <= %d", name, len(tr.Records), est)
		}
	}
}
