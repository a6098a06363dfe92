package runner

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
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

// TestJobKeyAliases: two spellings of one simulation share a key, and
// the simulations they name are indeed one (equal Results). Queues 1
// builds the single queue Queues 0 builds; an FCONS equal to the
// policy's own is what FCONS 0 takes; a policy without NCAP never reads
// FCONS. Spellings of different runs keep different keys.
func TestJobKeyAliases(t *testing.T) {
	base := tinyCfg(cluster.NcapCons, app.ApacheProfile(), 24_000)
	perf := tinyCfg(cluster.Perf, app.ApacheProfile(), 24_000)
	for _, tc := range []struct {
		name   string
		base   cluster.Config
		mutate func(*cluster.Config)
	}{
		{"Queues=1", base, func(c *cluster.Config) { c.Queues = 1 }},
		{"FCONS=policy's own", base, func(c *cluster.Config) { c.FCONS = cluster.NcapCons.FCONS() }},
		{"FCONS=3 on perf", perf, func(c *cluster.Config) { c.FCONS = 3 }},
	} {
		alias := tc.base
		tc.mutate(&alias)
		if (Job{Config: tc.base}).Key() != (Job{Config: alias}).Key() {
			t.Errorf("%s: an alias of the default config has its own key", tc.name)
		}
		if a, b := cluster.New(tc.base).Run(), cluster.New(alias).Run(); !reflect.DeepEqual(a, b) {
			t.Errorf("%s: the alias runs a different simulation", tc.name)
		}
	}
	for name, mutate := range map[string]func(*cluster.Config){
		"FCONS=3": func(c *cluster.Config) { c.FCONS = 3 },
		"FCONS=1": func(c *cluster.Config) { c.FCONS = 1 },
	} {
		other := base
		mutate(&other)
		if (Job{Config: base}).Key() == (Job{Config: other}).Key() {
			t.Errorf("%s shares the default config's key", name)
		}
	}
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
	ncap := Job{Config: tinyCfg(cluster.NcapCons, app.ApacheProfile(), 24_000)}
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
	// Each Sec. 4.3/Sec. 7 option is a decision the key must see, on a
	// policy that reads it: only the NCAP policies read FCONS.
	for _, tc := range []struct {
		name   string
		base   Job
		mutate func(*cluster.Config)
	}{
		{"FCONS", ncap, func(c *cluster.Config) { c.FCONS = 3 }},
		{"Queues", a, func(c *cluster.Config) { c.Queues = 4 }},
		{"TOE", a, func(c *cluster.Config) { c.TOE = true }},
	} {
		e := tc.base
		tc.mutate(&e.Config)
		if tc.base.Key() == e.Key() {
			t.Errorf("%s change did not change the key", tc.name)
		}
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
		if o.Result.Trace == nil {
			t.Fatal("trace job lost its trace")
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

// TestCacheStoreSyncs: every store fsyncs the entry file and its
// directory — an atomic rename alone survives process death but not
// machine crash, so the durability counter must advance once per
// executed job.
func TestCacheStoreSyncs(t *testing.T) {
	dir := t.TempDir()
	jobs := tinyJobs()
	before := cacheSyncs.Load()
	for i, o := range New(Options{Jobs: 2, CacheDir: dir}).Run(jobs) {
		if o.Err != nil {
			t.Fatalf("job %d: %v", i, o.Err)
		}
	}
	if got := cacheSyncs.Load() - before; got != int64(len(jobs)) {
		t.Fatalf("cache stores synced = %d after a cold batch, want %d", got, len(jobs))
	}
}

// TestResumeCompletesPartialBatch: rerunning a batch over the cache dir
// an interrupted run left holding a prefix replays exactly that prefix
// and executes the rest — the interrupted-sweep recovery path, minus the
// interruption.
func TestResumeCompletesPartialBatch(t *testing.T) {
	dir := t.TempDir()
	jobs := tinyJobs()
	half := len(jobs) / 2

	New(Options{Jobs: 2, CacheDir: dir}).Run(jobs[:half])

	pool := New(Options{Jobs: 2, CacheDir: dir})
	for i, o := range pool.Run(jobs) {
		if o.Err != nil {
			t.Fatalf("job %d: %v", i, o.Err)
		}
		if replayed := i < half; o.CacheHit != replayed {
			t.Fatalf("job %d: cache hit %v, want %v", i, o.CacheHit, replayed)
		}
	}
	if st := pool.Stats(); st.Ran != int64(len(jobs)-half) {
		t.Fatalf("ran = %d, want %d", st.Ran, len(jobs)-half)
	}
	// The rerun left the cache covering the whole batch.
	for i, o := range New(Options{Jobs: 2, CacheDir: dir}).Run(jobs) {
		if !o.CacheHit {
			t.Fatalf("job %d missed after the completing rerun", i)
		}
	}
}

// TestResumedResultsMatchExecuted: a replayed Result serializes exactly
// like one executed without a cache — resume must not launder precision
// through JSON.
func TestResumedResultsMatchExecuted(t *testing.T) {
	dir := t.TempDir()
	jobs := tinyJobs()
	ran := New(Options{Jobs: 2}).Run(jobs)
	New(Options{Jobs: 2, CacheDir: dir}).Run(jobs)
	replayed := New(Options{Jobs: 2, CacheDir: dir}).Run(jobs)
	for i := range jobs {
		if !replayed[i].CacheHit {
			t.Fatalf("job %d was not replayed", i)
		}
		a, _ := json.Marshal(ran[i].Result)
		b, _ := json.Marshal(replayed[i].Result)
		if string(a) != string(b) {
			t.Fatalf("job %d: replayed result differs:\n%s\n%s", i, a, b)
		}
	}
}

// TestResumeOverDamagedCacheDir: a writer killed mid-store leaves a
// stale temp file, and a torn disk can leave a truncated entry. Neither
// may stop the rerun: complete entries hit, the damaged and missing jobs
// execute cleanly, and every result matches an uninterrupted run.
func TestResumeOverDamagedCacheDir(t *testing.T) {
	dir := t.TempDir()
	jobs := tinyJobs()
	want := New(Options{Jobs: 2}).Run(jobs)
	const done = 3 // jobs[:done] completed before the "interruption"
	New(Options{Jobs: 2, CacheDir: dir}).Run(jobs[:done])

	torn := filepath.Join(dir, jobs[1].Key()+".json")
	blob, err := os.ReadFile(torn)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(torn, blob[:len(blob)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	stale := filepath.Join(dir, "."+jobs[done].Key()+".json.tmp123456")
	if err := os.WriteFile(stale, blob[:len(blob)/3], 0o644); err != nil {
		t.Fatal(err)
	}

	pool := New(Options{Jobs: 2, CacheDir: dir})
	for i, o := range pool.Run(jobs) {
		if o.Err != nil {
			t.Fatalf("job %d: %v", i, o.Err)
		}
		if hit := i < done && i != 1; o.CacheHit != hit {
			t.Fatalf("job %d: cache hit %v, want %v", i, o.CacheHit, hit)
		}
		if !reflect.DeepEqual(o.Result, want[i].Result) {
			t.Fatalf("job %d (%s): resumed result differs from an uninterrupted run", i, jobs[i].Tag)
		}
	}
	if st := pool.Stats(); st.Ran != int64(len(jobs)-done+1) || st.Failures != 0 {
		t.Fatalf("stats = %+v, want %d ran, 0 failures", st, len(jobs)-done+1)
	}
	if res, ok := (&cache{dir: dir}).load(jobs[1].Key()); !ok || !reflect.DeepEqual(res, want[1].Result) {
		t.Fatal("the rerun did not replace the truncated entry")
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
	// A nanosecond budget must trip the timeout, and the worker must keep
	// going. The job starts before its timer is armed, so it must outlast
	// any scheduling delay between the two: a 5 s window takes hundreds of
	// milliseconds of wall time, where tinyCfg's could finish first on a
	// loaded host.
	cfg := tinyCfg(cluster.OndIdle, app.ApacheProfile(), 24_000)
	cfg.Measure = 5 * sim.Second
	slow := Job{Tag: "slow", Config: cfg}
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

// A timed-out job's simulation must stop, not run on beside the next
// job: a 60 s window takes minutes of wall time, so its goroutine is gone
// within a second only if the timeout halted it.
func TestTimeoutHaltsSimulation(t *testing.T) {
	cfg := tinyCfg(cluster.OndIdle, app.ApacheProfile(), 24_000)
	cfg.Measure = 60 * sim.Second
	before := runtime.NumGoroutine()
	o := New(Options{Jobs: 1, Timeout: time.Nanosecond}).RunOne(Job{Tag: "long", Config: cfg})
	if o.Err == nil {
		t.Fatal("nanosecond timeout did not trip")
	}
	deadline := time.Now().Add(time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines 1s after the timeout, %d before the job: the simulation still runs",
				runtime.NumGoroutine(), before)
		}
		time.Sleep(time.Millisecond)
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

// TestStopBeforeRunInterruptsEverything: Stop is a standing order — a
// batch submitted after it dispatches nothing.
func TestStopBeforeRunInterruptsEverything(t *testing.T) {
	pool := New(Options{Jobs: 2})
	pool.Stop()
	if !pool.Stopped() {
		t.Fatal("Stopped() = false after Stop")
	}
	for i, o := range pool.Run(tinyJobs()) {
		if !errors.Is(o.Err, ErrInterrupted) {
			t.Fatalf("job %d: err = %v, want ErrInterrupted", i, o.Err)
		}
	}
	if st := pool.Stats(); st.Ran != 0 {
		t.Fatalf("ran = %d after pre-run Stop", st.Ran)
	}
}

// stopAfterFirstWrite is a Progress writer that stops the pool the first
// time the runner reports progress — i.e. right after the first job
// completes (the progress reporter never throttles its first line).
type stopAfterFirstWrite struct{ pool *Pool }

func (w *stopAfterFirstWrite) Write(b []byte) (int, error) {
	w.pool.Stop()
	return len(b), nil
}

// TestStopMidRunDrainsGracefully: stopping after the first completion
// finishes nothing further — completed jobs keep their results, every
// remaining job carries ErrInterrupted, and the outcome slice still has
// one entry per submitted job.
func TestStopMidRunDrainsGracefully(t *testing.T) {
	pool := New(Options{Jobs: 1})
	pool.opts.Progress = &stopAfterFirstWrite{pool: pool}
	jobs := tinyJobs()
	out := pool.Run(jobs)
	if len(out) != len(jobs) {
		t.Fatalf("got %d outcomes for %d jobs", len(out), len(jobs))
	}
	if out[0].Err != nil || out[0].Result.Completed == 0 {
		t.Fatalf("first job should have completed: err=%v", out[0].Err)
	}
	for i := 1; i < len(out); i++ {
		if !errors.Is(out[i].Err, ErrInterrupted) {
			t.Fatalf("job %d: err = %v, want ErrInterrupted", i, out[i].Err)
		}
	}
	if !pool.Stopped() {
		t.Fatal("pool not marked stopped")
	}
}

// TestFailedRunsForfeitStorage: a run that returns normally gives its
// storage back to the pool's idle set, while a job that times out or
// panics never does: the abandoned simulation may still be running on
// its storage, and a panicked one may have left it inconsistent. The jobs
// after both on that pool give a fresh pool's Results.
func TestFailedRunsForfeitStorage(t *testing.T) {
	idle := func(p *Pool) int {
		p.idleMu.Lock()
		defer p.idleMu.Unlock()
		return len(p.idle)
	}
	jobs := tinyJobs()
	long := tinyCfg(cluster.OndIdle, app.ApacheProfile(), 24_000)
	long.Measure = 60 * sim.Second
	bad := jobs[0]
	bad.Config.LoadRPS = -1 // cluster.New panics on an invalid config

	pool := New(Options{Jobs: 1})
	if o := pool.RunOne(jobs[0]); o.Err != nil || idle(pool) != 1 {
		t.Fatalf("a normal run: err %v, %d idle storages, want 1", o.Err, idle(pool))
	}
	kept := pool.idle[0]
	pool.opts.Timeout = time.Nanosecond
	if o := pool.RunOne(Job{Tag: "long", Config: long}); o.Err == nil || idle(pool) != 0 {
		t.Fatalf("a timed-out run: err %v, %d idle storages, want 0", o.Err, idle(pool))
	}
	pool.opts.Timeout = 0
	if o := pool.RunOne(bad); o.Err == nil || idle(pool) != 0 {
		t.Fatalf("a panicked run: err %v, %d idle storages, want 0", o.Err, idle(pool))
	}

	fresh := New(Options{Jobs: 1}).Run(jobs)
	for i, o := range pool.Run(jobs) {
		if o.Err != nil || !reflect.DeepEqual(o.Result, fresh[i].Result) {
			t.Errorf("%s after the failed runs: err %v, Result differs from a fresh pool's: %v",
				o.Job.Tag, o.Err, !reflect.DeepEqual(o.Result, fresh[i].Result))
		}
	}
	if idle(pool) != 1 || pool.idle[0] == kept {
		t.Fatalf("after a serial batch: %d idle storages (want 1), the timed-out run's among them: %v",
			idle(pool), idle(pool) > 0 && pool.idle[0] == kept)
	}
}
