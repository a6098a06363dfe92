package experiments

import (
	"reflect"
	"strings"
	"testing"

	"ncap/internal/app"
	"ncap/internal/cluster"
	"ncap/internal/fault"
	"ncap/internal/runner"
	"ncap/internal/sim"
)

// e11tiny keeps the 21-cell E11 grid fast enough for unit tests while
// still spanning at least one flap window (first flap at 10 ms).
func e11tiny() Options {
	return Options{
		Warmup:  10 * sim.Millisecond,
		Measure: 30 * sim.Millisecond,
		Drain:   10 * sim.Millisecond,
		Seed:    1,
	}
}

func TestDegradedSpecShape(t *testing.T) {
	horizon := 100 * sim.Millisecond
	spec := DegradedSpec(0.01, horizon)
	if err := spec.Validate(); err != nil {
		t.Fatalf("E11 spec invalid: %v", err)
	}
	if !spec.Enabled() {
		t.Fatal("E11 spec inert")
	}
	var flapped, lossy, slow bool
	for _, l := range spec.Links {
		switch {
		case len(l.Flaps) > 0:
			flapped = true
			if l.Node != uint32(cluster.ClientAddr(1)) || l.Dir != fault.ToNode {
				t.Fatalf("flap on wrong link: %+v", l)
			}
			// Flaps repeat across the horizon, all inside it.
			if len(l.Flaps) < 2 {
				t.Fatalf("only %d flap windows over %v", len(l.Flaps), horizon)
			}
			for _, w := range l.Flaps {
				if w.Start >= horizon {
					t.Fatalf("flap window %+v past the horizon", w)
				}
			}
		case l.P > 0:
			lossy = true
			if l.Node != uint32(cluster.ServerAddr) || l.Dir != fault.Both || l.P != 0.01 {
				t.Fatalf("loss on wrong link: %+v", l)
			}
		case l.ExtraDelay > 0:
			// The slow node is slow in both directions.
			slow = true
			if l.Node != uint32(cluster.ClientAddr(2)) || l.Dir != fault.Both {
				t.Fatalf("slow-node fault wrong: %+v", l)
			}
		}
	}
	if !flapped || !lossy || !slow {
		t.Fatalf("spec missing a degradation: flap=%v loss=%v slow=%v", flapped, lossy, slow)
	}
	// The zero-loss column still carries the fixed degradations.
	clean := DegradedSpec(0, horizon)
	for _, l := range clean.Links {
		if l.P > 0 {
			t.Fatalf("zero-loss spec has a lossy link: %+v", l)
		}
	}
	if !clean.Enabled() {
		t.Fatal("zero-loss spec must still flap and slow")
	}
}

func TestDegradedNetworkGrid(t *testing.T) {
	rows := DegradedNetwork(e11tiny(), app.MemcachedProfile(), cluster.LowLoad)
	pols := cluster.AllPolicies()
	if len(rows) != len(E11LossRates())*len(pols) {
		t.Fatalf("rows = %d, want %d", len(rows), len(E11LossRates())*len(pols))
	}
	for i, r := range rows {
		if r.Err != "" {
			t.Fatalf("row %d failed: %s", i, r.Err)
		}
		if want := pols[i%len(pols)]; r.Policy != want {
			t.Fatalf("row %d policy %s, want %s", i, r.Policy, want)
		}
		if want := E11LossRates()[i/len(pols)] * 100; r.LossPct != want {
			t.Fatalf("row %d loss %.2f%%, want %.2f%%", i, r.LossPct, want)
		}
		if r.Result.Completed == 0 {
			t.Fatalf("row %d (%s @ %.1f%%) served nothing", i, r.Policy, r.LossPct)
		}
	}
	// The flap and the slow node perturb even the zero-loss column.
	if rows[0].Result.FaultDrops == 0 {
		t.Error("zero-loss column saw no flap drops")
	}
	if rows[len(rows)-1].Result.FaultDrops <= rows[0].Result.FaultDrops {
		t.Error("1% loss column did not drop more than the flap alone")
	}
}

// TestDegradedNetworkWorkerCountParity: the E11 grid is byte-identical
// at any -jobs value.
func TestDegradedNetworkWorkerCountParity(t *testing.T) {
	prof := app.MemcachedProfile()

	o1 := e11tiny()
	o1.Runner = runner.New(runner.Options{Jobs: 1})
	j1 := DegradedNetwork(o1, prof, cluster.LowLoad)

	o8 := e11tiny()
	o8.Runner = runner.New(runner.Options{Jobs: 8})
	j8 := DegradedNetwork(o8, prof, cluster.LowLoad)

	if !reflect.DeepEqual(j1, j8) {
		t.Fatal("E11 rows differ between -jobs 1 and -jobs 8")
	}
}

// TestRunBatchOutcomesIsolatesFailures: one pathological configuration
// becomes a failure row; the rest of the batch completes (nil Runner).
func TestRunBatchOutcomesIsolatesFailures(t *testing.T) {
	o := e11tiny()
	good := configFor(o, cluster.Perf, app.MemcachedProfile(), 35_000, nil)
	bad := good
	bad.LoadRPS = -1 // cluster.New panics
	out := runBatchOutcomes(o, "test", []cluster.Config{bad, good})
	if out[0].Err == nil || !strings.Contains(out[0].Err.Error(), "panicked") {
		t.Fatalf("broken config error = %v, want a recovered panic", out[0].Err)
	}
	if out[1].Err != nil {
		t.Fatalf("healthy config failed alongside: %v", out[1].Err)
	}
	if out[1].Result.Completed == 0 {
		t.Fatal("healthy config served nothing")
	}
}
