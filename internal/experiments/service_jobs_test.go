package experiments

import (
	"encoding/json"
	"io"
	"reflect"
	"sync/atomic"
	"testing"

	"ncap/internal/app"
	"ncap/internal/cluster"
	"ncap/internal/runner"
	"ncap/internal/topology"
)

// TestServiceJobsSurviveJSON: ncapd hands any job to any worker, remote
// ones included, as the job's config serialized to JSON. That is sound
// only if every job a submission can enumerate is cacheable and comes
// back from the JSON round trip deep-equal, under the same key. A
// submission sets a family, workloads, windows, seed, overload spec and
// topology, so this walks every family with and without the last two.
// The executor returns zero Results, so no simulation runs.
func TestServiceJobsSurviveJSON(t *testing.T) {
	apache := app.ApacheProfile()
	profiles := []app.Profile{apache, app.MemcachedProfile()}
	for _, tc := range []struct {
		name  string
		shape func(*Options)
	}{
		{"plain", func(*Options) {}},
		{"rack-overload", func(o *Options) {
			o.Topology = topology.Rack(4, 2)
			o.Overload = E13Spec(apache)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var seen atomic.Int64
			o := Quick()
			tc.shape(&o)
			o.Runner = runner.New(runner.Options{Jobs: 4, Executor: func(job runner.Job) (cluster.Result, error) {
				seen.Add(1)
				checkRemoteSafe(t, job)
				return cluster.Result{}, nil
			}})
			if err := Render(io.Discard, "all", o, profiles); err != nil {
				t.Fatal(err)
			}
			if seen.Load() == 0 {
				t.Fatal("no job reached the executor")
			}
			t.Logf("%d jobs checked", seen.Load())
		})
	}
}

func checkRemoteSafe(t *testing.T, job runner.Job) {
	t.Helper()
	if !job.Cacheable() {
		t.Errorf("%s: not cacheable", job.Tag)
		return
	}
	blob, err := json.Marshal(job.Config)
	if err != nil {
		t.Errorf("%s: %v", job.Tag, err)
		return
	}
	var back cluster.Config
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Errorf("%s: %v", job.Tag, err)
		return
	}
	if !reflect.DeepEqual(back, job.Config) {
		t.Errorf("%s: config changed in the JSON round trip", job.Tag)
	}
	if k := (runner.Job{Config: back}).Key(); k != job.Key() {
		t.Errorf("%s: JSON round trip moved the key", job.Tag)
	}
}
