package runner

import (
	"errors"
	"path/filepath"
	"sync"
	"testing"

	"ncap/internal/app"
	"ncap/internal/cluster"
)

// TestExecutorHookReplacesSimulation: with Options.Executor set the pool
// never simulates locally — it hands the job to the hook and records its
// result verbatim, keeping ordering and stats. This is the dispatch seam
// the orchestration service drives lease-based workers through.
func TestExecutorHookReplacesSimulation(t *testing.T) {
	var mu sync.Mutex
	seen := map[string]int{}
	pool := New(Options{Jobs: 2, Executor: func(j Job) (cluster.Result, error) {
		mu.Lock()
		seen[j.Tag]++
		mu.Unlock()
		return cluster.Result{Completed: 42}, nil
	}})
	jobs := tinyJobs()
	for i, o := range pool.Run(jobs) {
		if o.Err != nil || o.Result.Completed != 42 {
			t.Fatalf("job %d: err=%v completed=%d, want executor result", i, o.Err, o.Result.Completed)
		}
	}
	if len(seen) != len(jobs) {
		t.Fatalf("executor saw %d distinct jobs, want %d", len(seen), len(jobs))
	}
	for tag, n := range seen {
		if n != 1 {
			t.Fatalf("job %q executed %d times, want 1", tag, n)
		}
	}
}

// TestExecutorErrorSurfacesOnce: an executor failure lands on the
// outcome after exactly one call — the pool never re-runs a job; ncapd's
// lease layer and a rerun over the cache are the retry paths.
func TestExecutorErrorSurfacesOnce(t *testing.T) {
	boom := errors.New("worker lost")
	var calls int
	pool := New(Options{Jobs: 1, Executor: func(Job) (cluster.Result, error) {
		calls++
		return cluster.Result{}, boom
	}})
	o := pool.RunOne(Job{Tag: "t", Config: tinyCfg(cluster.Perf, app.MemcachedProfile(), 35_000)})
	if !errors.Is(o.Err, boom) {
		t.Fatalf("err = %v, want %v", o.Err, boom)
	}
	if calls != 1 {
		t.Fatalf("executor called %d times, want 1", calls)
	}
	if st := pool.Stats(); st.Ran != 0 || st.Failures != 1 {
		t.Fatalf("stats = %+v, want 0 ran / 1 failure", st)
	}
}

// TestFailedJobRerunsOverCache: a failed job leaves no cache entry, so a
// rerun over the same directory executes exactly it, stores it, and a
// third run is served from the cache. This is how a sweep recovers from
// a timed-out or panicked cell.
func TestFailedJobRerunsOverCache(t *testing.T) {
	dir := t.TempDir()
	job := Job{Tag: "t", Config: tinyCfg(cluster.Perf, app.MemcachedProfile(), 35_000)}
	failing := New(Options{Jobs: 1, CacheDir: dir, Executor: func(Job) (cluster.Result, error) {
		return cluster.Result{}, errors.New("timed out")
	}})
	if o := failing.RunOne(job); o.Err == nil || o.CacheHit {
		t.Fatalf("failing run: err=%v hit=%v, want an uncached failure", o.Err, o.CacheHit)
	}
	if entries, _ := filepath.Glob(filepath.Join(dir, "*.json")); len(entries) != 0 {
		t.Fatalf("a failed job left cache entries %v", entries)
	}

	rerun := New(Options{Jobs: 1, CacheDir: dir})
	o := rerun.RunOne(job)
	if o.Err != nil || o.CacheHit || o.Result.Completed == 0 {
		t.Fatalf("rerun: err=%v hit=%v completed=%d, want a fresh execution", o.Err, o.CacheHit, o.Result.Completed)
	}
	if st := rerun.Stats(); st.Ran != 1 || st.CacheHits != 0 {
		t.Fatalf("rerun stats = %+v, want 1 ran / 0 hits", st)
	}
	if o := New(Options{Jobs: 1, CacheDir: dir}).RunOne(job); !o.CacheHit || o.Err != nil {
		t.Fatalf("third run: hit=%v err=%v, want a cache hit", o.CacheHit, o.Err)
	}
}

// TestExecutorPanicIsolated: a panicking executor becomes a failed
// outcome, never a crashed pool.
func TestExecutorPanicIsolated(t *testing.T) {
	pool := New(Options{Jobs: 1, Executor: func(Job) (cluster.Result, error) {
		panic("executor bug")
	}})
	o := pool.RunOne(Job{Tag: "t", Config: tinyCfg(cluster.Perf, app.MemcachedProfile(), 35_000)})
	if o.Err == nil {
		t.Fatal("panicking executor produced a nil error")
	}
}
