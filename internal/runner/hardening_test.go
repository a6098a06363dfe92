package runner

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ncap/internal/app"
	"ncap/internal/cluster"
	"ncap/internal/fault"
)

// TestFaultSpecInJobKey: two configs differing only in their fault spec
// are different experiments — they must never share a cache entry.
func TestFaultSpecInJobKey(t *testing.T) {
	clean := Job{Config: tinyCfg(cluster.Perf, app.ApacheProfile(), 24_000)}
	faulty := clean
	faulty.Config.Fault.Links = []fault.LinkFault{{
		Node: uint32(cluster.ServerAddr), Dir: fault.Both, Model: fault.Model{P: 0.01},
	}}
	if clean.Key() == faulty.Key() {
		t.Fatal("fault spec did not change the cache key")
	}
	// Tweaking a nested fault parameter changes it again.
	worse := faulty
	worse.Config.Fault.Links = []fault.LinkFault{{
		Node: uint32(cluster.ServerAddr), Dir: fault.Both, Model: fault.Model{P: 0.02},
	}}
	if faulty.Key() == worse.Key() {
		t.Fatal("loss-rate change did not change the cache key")
	}
}

// corruptEntry rewrites job's cache file through mangle and asserts the
// next run degrades to a clean miss (re-execute), never an error.
func corruptEntry(t *testing.T, mangle func([]byte) []byte) {
	t.Helper()
	dir := t.TempDir()
	job := Job{Tag: "t", Config: tinyCfg(cluster.Perf, app.MemcachedProfile(), 35_000)}
	if o := New(Options{CacheDir: dir}).RunOne(job); o.Err != nil {
		t.Fatal(o.Err)
	}
	path := filepath.Join(dir, job.Key()+".json")
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, mangle(blob), 0o644); err != nil {
		t.Fatal(err)
	}
	pool := New(Options{CacheDir: dir})
	o := pool.RunOne(job)
	if o.Err != nil {
		t.Fatalf("bad cache entry escalated to an error: %v", o.Err)
	}
	if o.CacheHit {
		t.Fatal("bad cache entry served as a hit")
	}
	if st := pool.Stats(); st.Ran != 1 {
		t.Fatalf("ran = %d, want 1 (a real re-run)", st.Ran)
	}
	// The re-run repaired the entry: the next round hits again.
	if o := New(Options{CacheDir: dir}).RunOne(job); !o.CacheHit {
		t.Fatal("repaired entry missed")
	}
}

func TestCacheRejectsTruncatedEntry(t *testing.T) {
	corruptEntry(t, func(b []byte) []byte { return b[:len(b)/2] })
}

func TestCacheRejectsWrongSchemaVersion(t *testing.T) {
	corruptEntry(t, func(b []byte) []byte {
		// A v1-era entry: valid JSON, stale schema tag.
		out := strings.Replace(string(b), schemaVersion, "ncap-runner-v1", 1)
		if out == string(b) {
			t.Fatal("entry does not embed the schema version")
		}
		return []byte(out)
	})
}

// TestWorkerPathPanicBecomesFailureRow: a panic on the worker's own path
// — here job.Key() on a NaN/Inf config, reachable only with caching
// enabled — used to escape runOne and crash the whole process, because
// only the simulation goroutine inside execute had a recover. It must be
// a failure row like any other, never mistaken for a cache hit, and the
// rest of the batch must complete.
func TestWorkerPathPanicBecomesFailureRow(t *testing.T) {
	good := Job{Tag: "good", Config: tinyCfg(cluster.Perf, app.MemcachedProfile(), 35_000)}
	bad := good
	bad.Tag = "inf"
	bad.Config.LoadRPS = math.Inf(1) // json.Marshal rejects Inf → Key() panics
	pool := New(Options{Jobs: 1, CacheDir: t.TempDir()})
	out := pool.Run([]Job{bad, good})
	if out[0].Err == nil || !strings.Contains(out[0].Err.Error(), "panicked") {
		t.Fatalf("err = %v, want a panic failure row", out[0].Err)
	}
	if out[0].CacheHit {
		t.Fatal("panic failure row marked as a cache hit")
	}
	if out[1].Err != nil || out[1].Result.Completed == 0 {
		t.Fatalf("healthy job after the panic: err=%v completed=%d", out[1].Err, out[1].Result.Completed)
	}
	if st := pool.Stats(); st.Failures != 1 {
		t.Fatalf("failures = %d, want 1", st.Failures)
	}
}

// TestFailureRowsDoNotAbortBatch: the partial-results contract — failed
// cells surface as per-job errors while the rest of the batch completes.
func TestFailureRowsDoNotAbortBatch(t *testing.T) {
	good := Job{Tag: "good", Config: tinyCfg(cluster.Perf, app.MemcachedProfile(), 35_000)}
	bad := good
	bad.Tag = "bad"
	bad.Config.LoadRPS = -1
	out := New(Options{Jobs: 2}).Run([]Job{good, bad, good})
	if out[0].Err != nil || out[2].Err != nil {
		t.Fatalf("healthy jobs failed: %v / %v", out[0].Err, out[2].Err)
	}
	if out[1].Err == nil || out[1].CacheHit {
		t.Fatalf("broken job: err=%v hit=%v, want an executed failure", out[1].Err, out[1].CacheHit)
	}
	if out[0].Result.Completed == 0 || out[2].Result.Completed == 0 {
		t.Fatal("healthy jobs produced no traffic")
	}
}
