package report

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"ncap/internal/app"
	"ncap/internal/cluster"
	"ncap/internal/runner"
	"ncap/internal/sim"
)

func quickConfig() cluster.Config {
	cfg := cluster.DefaultConfig(cluster.NcapAggr, app.ApacheProfile(), 3000)
	cfg.Warmup = 20 * sim.Millisecond
	cfg.Measure = 60 * sim.Millisecond
	cfg.Drain = 20 * sim.Millisecond
	return cfg
}

func TestSchemaRoundTrip(t *testing.T) {
	pool := runner.New(runner.Options{Jobs: 2, Record: true})
	outs := pool.Run([]runner.Job{
		{Tag: "a", Config: quickConfig()},
	})
	r := New("test", "round-trip")
	r.AddOutcomes(outs)
	path := filepath.Join(t.TempDir(), "sub", "report.json")
	if err := r.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	back := new(Report)
	if err := json.Unmarshal(blob, back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r, back) {
		t.Fatalf("round trip changed the document:\nwrote %+v\nread  %+v", r, back)
	}
}

// The report must not depend on worker count: same jobs, different
// -jobs, byte-identical JSON.
func TestReportStableAcrossWorkerCounts(t *testing.T) {
	jobs := []runner.Job{
		{Tag: "a", Config: quickConfig()},
		{Tag: "b", Config: func() cluster.Config {
			c := quickConfig()
			c.Policy = cluster.Perf
			return c
		}()},
		{Tag: "c", Config: func() cluster.Config {
			c := quickConfig()
			c.LoadRPS = 6000
			return c
		}()},
	}
	build := func(workers int) string {
		pool := runner.New(runner.Options{Jobs: workers, Record: true})
		pool.Run(jobs)
		r := New("test", "parity")
		r.AddOutcomes(pool.Outcomes())
		var buf bytes.Buffer
		if err := r.Write(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	serial, parallel := build(1), build(4)
	if serial != parallel {
		t.Fatalf("report differs between -jobs 1 and -jobs 4:\n%s\nvs\n%s", serial, parallel)
	}
}
