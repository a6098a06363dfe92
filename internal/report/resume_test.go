package report

import (
	"bytes"
	"fmt"
	"testing"

	"ncap/internal/cluster"
	"ncap/internal/runner"
)

// resumeJobs is a small mixed batch: enough rows that a partially filled
// cache dir is a genuine prefix, cheap enough to run three times.
func resumeJobs() []runner.Job {
	var jobs []runner.Job
	for i, pol := range []cluster.Policy{cluster.Perf, cluster.OndIdle, cluster.NcapSW, cluster.NcapCons, cluster.NcapAggr, cluster.Ond} {
		cfg := quickConfig()
		cfg.Policy = pol
		jobs = append(jobs, runner.Job{Tag: fmt.Sprintf("r%d/%s", i, pol), Config: cfg})
	}
	return jobs
}

func renderReport(t *testing.T, outs []runner.Outcome) []byte {
	t.Helper()
	r := New("test", "resume")
	r.AddOutcomes(outs)
	var buf bytes.Buffer
	if err := r.Write(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestResumedReportByteIdentical is the recovery contract end to end: a
// sweep interrupted partway and rerun over its result cache must emit a
// report byte-identical to an uninterrupted run — at serial and at
// high-contention worker counts.
func TestResumedReportByteIdentical(t *testing.T) {
	jobs := resumeJobs()
	full := renderReport(t, runner.New(runner.Options{Jobs: 4, Record: true}).Run(jobs))

	for _, workers := range []int{1, 8} {
		dir := t.TempDir()
		// "Interrupt" after four jobs: run the prefix over the cache.
		runner.New(runner.Options{Jobs: workers, CacheDir: dir}).Run(jobs[:4])
		// Resume: rerun the whole batch over the same cache.
		pool := runner.New(runner.Options{Jobs: workers, CacheDir: dir, Record: true})
		resumed := renderReport(t, pool.Run(jobs))
		if !bytes.Equal(full, resumed) {
			t.Fatalf("-jobs %d: resumed report differs from uninterrupted run:\n%s\n---\n%s",
				workers, full, resumed)
		}
		if st := pool.Stats(); st.CacheHits != 4 {
			t.Fatalf("-jobs %d: %d replays, want 4", workers, st.CacheHits)
		}
	}
}

// TestInterruptedReportIsMarkedPartial: a stopped batch yields a report
// flagged interrupted whose runs and counters cover only dispatched jobs
// — absent rows, not failure rows.
func TestInterruptedReportIsMarkedPartial(t *testing.T) {
	jobs := resumeJobs()
	pool := runner.New(runner.Options{Jobs: 2, Record: true})
	pool.Stop()
	outs := pool.Run(jobs)

	r := New("test", "interrupted")
	r.AddOutcomes(outs)
	if !r.Interrupted {
		t.Fatal("report not marked interrupted")
	}
	if len(r.Runs) != 0 || r.Sweep.Jobs != 0 || r.Sweep.Failures != 0 {
		t.Fatalf("interrupted outcomes leaked into the report: %d runs, sweep %+v",
			len(r.Runs), r.Sweep)
	}
}
