package report

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
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
	back, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r, back) {
		t.Fatalf("round trip changed the document:\nwrote %+v\nread  %+v", r, back)
	}

	// A future schema must be rejected, not misread.
	blob, _ := os.ReadFile(path)
	mutated := bytes.Replace(blob, []byte(Schema), []byte("ncap-report-v999"), 1)
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, mutated, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFile(bad); err == nil {
		t.Fatal("unknown schema accepted")
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

func TestWriteCSV(t *testing.T) {
	res := cluster.New(quickConfig()).Run()
	r := New("test", "csv")
	r.Runs = append(r.Runs, FromResult("a", res))
	var buf bytes.Buffer
	if err := r.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("want header + 1 row, got %d lines", len(lines))
	}
	if !strings.HasPrefix(lines[0], "tag,policy,workload,load_rps") {
		t.Fatalf("header %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "a,ncap.aggr,apache,3000") {
		t.Fatalf("row %q", lines[1])
	}
}
