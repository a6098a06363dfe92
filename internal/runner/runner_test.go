package runner

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"ncap/internal/app"
	"ncap/internal/cluster"
	"ncap/internal/sim"
)

// tinyCfg returns a fast-but-real experiment configuration.
func tinyCfg(policy cluster.Policy, prof app.Profile, load float64) cluster.Config {
	cfg := cluster.DefaultConfig(policy, prof, load)
	cfg.Warmup = 10 * sim.Millisecond
	cfg.Measure = 30 * sim.Millisecond
	cfg.Drain = 10 * sim.Millisecond
	return cfg
}

// tinyJobs builds a mixed batch: several policies over both workloads.
func tinyJobs() []Job {
	var jobs []Job
	for _, prof := range []app.Profile{app.ApacheProfile(), app.MemcachedProfile()} {
		for _, pol := range []cluster.Policy{cluster.Perf, cluster.OndIdle, cluster.NcapAggr} {
			jobs = append(jobs, Job{
				Tag:    string(pol) + "/" + prof.Name,
				Config: tinyCfg(pol, prof, cluster.LoadRPS(prof.Name, cluster.LowLoad)),
			})
		}
	}
	return jobs
}

func TestJobKeyStableAndContentSensitive(t *testing.T) {
	a := Job{Config: tinyCfg(cluster.Perf, app.ApacheProfile(), 24_000)}
	b := Job{Config: tinyCfg(cluster.Perf, app.ApacheProfile(), 24_000)}
	if a.Key() != b.Key() {
		t.Fatal("equal configs produced different keys")
	}
	if len(a.Key()) != 64 {
		t.Fatalf("key length %d, want 64 hex chars", len(a.Key()))
	}
	// The tag is cosmetic; the key is content only.
	b.Tag = "something-else"
	if a.Key() != b.Key() {
		t.Fatal("tag leaked into the key")
	}
	// Any config change must change the key.
	c := a
	c.Config.Seed++
	if a.Key() == c.Key() {
		t.Fatal("seed change did not change the key")
	}
	d := a
	d.Config.NCAP.CIT += sim.Microsecond
	if a.Key() == d.Key() {
		t.Fatal("nested NCAP config change did not change the key")
	}
}

// TestDeterministicAcrossWorkerCounts is the core contract: the same
// batch must produce identical results, in job order, at any -jobs value.
func TestDeterministicAcrossWorkerCounts(t *testing.T) {
	jobs := tinyJobs()
	serial := New(Options{Jobs: 1}).Run(jobs)
	parallel := New(Options{Jobs: 4}).Run(jobs)
	if len(serial) != len(jobs) || len(parallel) != len(jobs) {
		t.Fatalf("outcome counts %d/%d, want %d", len(serial), len(parallel), len(jobs))
	}
	for i := range jobs {
		if serial[i].Err != nil || parallel[i].Err != nil {
			t.Fatalf("job %d errored: %v / %v", i, serial[i].Err, parallel[i].Err)
		}
		if serial[i].Job.Tag != jobs[i].Tag || parallel[i].Job.Tag != jobs[i].Tag {
			t.Fatalf("job %d outcome out of order", i)
		}
		if !reflect.DeepEqual(serial[i].Result, parallel[i].Result) {
			t.Fatalf("job %d (%s): serial and parallel results differ", i, jobs[i].Tag)
		}
	}
}

func TestCacheRoundTrip(t *testing.T) {
	dir := t.TempDir()
	jobs := tinyJobs()[:3]

	first := New(Options{Jobs: 2, CacheDir: dir}).Run(jobs)
	for i, o := range first {
		if o.Err != nil {
			t.Fatalf("job %d: %v", i, o.Err)
		}
		if o.CacheHit {
			t.Fatalf("job %d hit a cold cache", i)
		}
	}

	// A fresh pool over the same dir must hit on every job and return
	// equal results.
	second := New(Options{Jobs: 2, CacheDir: dir}).Run(jobs)
	for i, o := range second {
		if o.Err != nil {
			t.Fatalf("cached job %d: %v", i, o.Err)
		}
		if !o.CacheHit {
			t.Fatalf("job %d missed a warm cache", i)
		}
		if !reflect.DeepEqual(o.Result, first[i].Result) {
			t.Fatalf("job %d: cached result differs from computed", i)
		}
	}
	if st := New(Options{CacheDir: dir}).Stats(); st.Jobs != 0 {
		t.Fatalf("fresh pool stats = %+v", st)
	}
}

func TestCacheEntriesAreSelfDescribing(t *testing.T) {
	dir := t.TempDir()
	job := Job{Tag: "t", Config: tinyCfg(cluster.Perf, app.MemcachedProfile(), 35_000)}
	if o := New(Options{CacheDir: dir}).RunOne(job); o.Err != nil {
		t.Fatal(o.Err)
	}
	blob, err := os.ReadFile(filepath.Join(dir, job.Key()+".json"))
	if err != nil {
		t.Fatalf("cache file missing: %v", err)
	}
	for _, want := range []string{schemaVersion, job.Key(), `"result"`, `"config"`} {
		if !strings.Contains(string(blob), want) {
			t.Fatalf("cache entry missing %q", want)
		}
	}
	// Corrupt the entry: it must degrade to a miss, not an error.
	if err := os.WriteFile(filepath.Join(dir, job.Key()+".json"), []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	o := New(Options{CacheDir: dir}).RunOne(job)
	if o.Err != nil || o.CacheHit {
		t.Fatalf("corrupt entry: err=%v hit=%v, want clean re-run", o.Err, o.CacheHit)
	}
}

func TestTraceJobsBypassCache(t *testing.T) {
	dir := t.TempDir()
	cfg := tinyCfg(cluster.NcapCons, app.ApacheProfile(), 24_000)
	cfg.TraceInterval = 500 * sim.Microsecond
	job := Job{Tag: "trace", Config: cfg}
	if job.Cacheable() {
		t.Fatal("trace job reported cacheable")
	}
	pool := New(Options{CacheDir: dir})
	for round := 0; round < 2; round++ {
		o := pool.RunOne(job)
		if o.Err != nil {
			t.Fatal(o.Err)
		}
		if o.CacheHit {
			t.Fatal("trace job hit the cache")
		}
		if o.Result.Sampler == nil {
			t.Fatal("trace job lost its sampler")
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("trace job wrote %d cache files", len(entries))
	}
}

// TestPanicIsolation: one pathological job must not kill the batch.
func TestPanicIsolation(t *testing.T) {
	good := Job{Tag: "good", Config: tinyCfg(cluster.Perf, app.MemcachedProfile(), 35_000)}
	bad := good
	bad.Tag = "bad"
	bad.Config.LoadRPS = -1 // cluster.New panics on an invalid config
	out := New(Options{Jobs: 2}).Run([]Job{bad, good})
	if out[0].Err == nil {
		t.Fatal("invalid job did not error")
	}
	if !strings.Contains(out[0].Err.Error(), "panicked") {
		t.Fatalf("error %v does not identify the panic", out[0].Err)
	}
	if out[1].Err != nil {
		t.Fatalf("healthy job failed alongside: %v", out[1].Err)
	}
	if out[1].Result.Completed == 0 {
		t.Fatal("healthy job produced no traffic")
	}
}

func TestTimeout(t *testing.T) {
	// A real simulation takes milliseconds of wall time; a nanosecond
	// budget must trip the timeout, and the worker must keep going.
	slow := Job{Tag: "slow", Config: tinyCfg(cluster.OndIdle, app.ApacheProfile(), 24_000)}
	pool := New(Options{Jobs: 1, Timeout: time.Nanosecond})
	o := pool.RunOne(slow)
	if o.Err == nil {
		t.Fatal("nanosecond timeout did not trip")
	}
	if !strings.Contains(o.Err.Error(), "timeout") {
		t.Fatalf("error %v does not identify the timeout", o.Err)
	}
	if st := pool.Stats(); st.Failures != 1 {
		t.Fatalf("stats = %+v, want one failure", st)
	}
}

func TestPoolStats(t *testing.T) {
	dir := t.TempDir()
	pool := New(Options{Jobs: 2, CacheDir: dir})
	jobs := tinyJobs()[:2]
	pool.Run(jobs)
	pool.Run(jobs) // second round: all hits
	st := pool.Stats()
	if st.Jobs != 4 || st.Ran != 2 || st.CacheHits != 2 || st.Failures != 0 {
		t.Fatalf("stats = %+v, want 4 jobs / 2 ran / 2 hits", st)
	}
}

func TestWorkersDefault(t *testing.T) {
	if w := New(Options{}).Workers(); w < 1 {
		t.Fatalf("default workers = %d", w)
	}
	if w := New(Options{Jobs: 3}).Workers(); w != 3 {
		t.Fatalf("workers = %d, want 3", w)
	}
}
