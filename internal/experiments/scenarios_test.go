package experiments

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"reflect"
	"testing"

	"ncap/internal/app"
	"ncap/internal/cluster"
	"ncap/internal/report"
	"ncap/internal/runner"
	"ncap/internal/workload"
)

func TestFamiliesRegistry(t *testing.T) {
	seen := map[string]bool{}
	for i, f := range families {
		if f.name == "" {
			t.Fatalf("family %d has no name", i)
		}
		if seen[f.name] {
			t.Fatalf("family %q registered twice", f.name)
		}
		seen[f.name] = true
		if (f.render == nil) != (f.name == "all") {
			t.Fatalf("family %q: only \"all\" may have no renderer", f.name)
		}
		if !IsFamily(f.name) {
			t.Fatalf("IsFamily(%q) = false", f.name)
		}
	}
	for _, want := range []string{"e11", "e12", "all", "policies"} {
		if !seen[want] {
			t.Fatalf("registry missing %q", want)
		}
	}
	if families[len(families)-1].name != "all" {
		t.Fatal("'all' must close the registry (it runs everything before it)")
	}
	if IsFamily("nonsense") {
		t.Fatal("IsFamily accepted an unregistered name")
	}
	names := FamilyNames()
	for name := range seen {
		if !bytes.Contains([]byte(names), []byte(name)) {
			t.Fatalf("FamilyNames() %q missing %q", names, name)
		}
	}
}

func TestE12ScenariosValid(t *testing.T) {
	scs := E12Scenarios()
	if scs[0].Name != workload.ScenarioStationary {
		t.Fatal("E12 must lead with its stationary baseline")
	}
	for _, sc := range scs {
		if err := sc.Validate(); err != nil {
			t.Fatalf("%s: %v", sc.Name, err)
		}
	}
}

// TestScenarioSweepStationaryMatchesComparison: E12's baseline rows are
// bit-identical to the plain seven-policy comparison — the scenario
// plumbing does not perturb the physics it wraps.
func TestScenarioSweepStationaryMatchesComparison(t *testing.T) {
	o := e11tiny()
	prof := app.MemcachedProfile()
	load := cluster.LoadRPS(prof.Name, cluster.MediumLoad)
	rows := ScenarioSweep(o, prof, cluster.MediumLoad)
	pols := cluster.AllPolicies()
	for i, pol := range pols {
		if rows[i].Scenario != workload.ScenarioStationary || rows[i].Policy != pol {
			t.Fatalf("row %d is %s/%s, want stationary/%s", i, rows[i].Scenario, rows[i].Policy, pol)
		}
		if rows[i].Err != "" {
			t.Fatalf("stationary %s failed: %s", pol, rows[i].Err)
		}
		plain := run(e11tiny(), pol, prof, load, nil)
		if !reflect.DeepEqual(rows[i].Result, plain) {
			t.Fatalf("stationary %s diverged from the plain config:\n%+v\nvs\n%+v",
				pol, rows[i].Result, plain)
		}
	}
	// The non-stationary cells carry the replay accounting.
	for _, r := range rows[len(pols):] {
		if r.Err != "" {
			t.Fatalf("%s/%s failed: %s", r.Scenario, r.Policy, r.Err)
		}
		if r.Result.TraceHash == "" || r.Result.IntendedSends == 0 {
			t.Fatalf("%s/%s missing replay accounting", r.Scenario, r.Policy)
		}
	}
}

// TestSampleTraceReplayJobsParity: the committed ncap-trace-v1 sample
// replays to an ncap-report-v1 document that is byte-identical at -jobs 1
// and -jobs 8.
func TestSampleTraceReplayJobsParity(t *testing.T) {
	tr, err := workload.ReadTraceFile(filepath.Join("testdata", "sample.trace"))
	if err != nil {
		t.Fatal(err)
	}
	spec := workload.SpecForTrace(tr)
	prof := app.ApacheProfile()

	reportJSON := func(jobs int) string {
		o := e11tiny()
		pool := runner.New(runner.Options{Jobs: jobs, Record: true})
		o.Runner = pool
		var cfgs []cluster.Config
		for _, pol := range cluster.AllPolicies() {
			cfgs = append(cfgs, configFor(o, pol, prof, cluster.LoadRPS(prof.Name, cluster.LowLoad),
				func(c *cluster.Config) { c.Traffic = spec }))
		}
		runBatchOutcomes(o, "sample", cfgs)
		r := report.New("test", "sample-replay")
		r.AddOutcomes(pool.Outcomes())
		blob, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		return string(blob)
	}
	j1, j8 := reportJSON(1), reportJSON(8)
	if j1 != j8 {
		t.Fatalf("sample replay report differs between -jobs 1 and 8:\n%s\nvs\n%s", j1, j8)
	}
	var doc report.Report
	if err := json.Unmarshal([]byte(j1), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Schema != report.Schema {
		t.Fatalf("report schema %q", doc.Schema)
	}
	for _, run := range doc.Runs {
		if run.Error != "" {
			t.Fatalf("replay run failed: %s", run.Error)
		}
		if run.Traffic == nil || run.Traffic.TraceHash != spec.TraceHash {
			t.Fatalf("run %s missing the sample's trace hash", run.Policy)
		}
	}
}

func TestRenderScenariosGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full 28-cell E12 grid")
	}
	o := Quick()
	// Worker count must not matter: the golden was captured at -jobs 1.
	o.Runner = runner.New(runner.Options{Jobs: 4})
	var buf bytes.Buffer
	RenderScenarios(&buf, o, app.ApacheProfile())
	if want := golden(t, "e12_apache_quick.golden"); buf.String() != want {
		t.Fatalf("E12 table drifted from golden:\ngot:\n%s\nwant:\n%s", buf.String(), want)
	}
}
