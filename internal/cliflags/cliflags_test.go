package cliflags

import (
	"flag"
	"os"
	"os/exec"
	"testing"
	"time"

	"ncap/internal/app"
	"ncap/internal/cluster"
	"ncap/internal/fault"
	"ncap/internal/runner"
)

func TestLookupsResolve(t *testing.T) {
	if got := Workload("t", "apache").Name; got != "apache" {
		t.Errorf("Workload = %q", got)
	}
	if got := len(Workloads("t", "")); got != 2 {
		t.Errorf("empty Workloads restriction = %d profiles, want both", got)
	}
	if got := Policy("t", "ncap.aggr"); got != cluster.NcapAggr {
		t.Errorf("Policy = %v", got)
	}
	if got := Level("t", "medium"); got != cluster.MediumLoad {
		t.Errorf("Level = %v", got)
	}
}

func TestFaultsApply(t *testing.T) {
	var cfg cluster.Config
	f := Faults{ReorderMax: time.Millisecond}
	f.Apply(&cfg)
	if len(cfg.Fault.Links) != 0 {
		t.Fatal("inert faults still injected a link")
	}
	f.Loss = 0.1
	f.Apply(&cfg)
	if len(cfg.Fault.Links) != 1 {
		t.Fatalf("%d links, want 1", len(cfg.Fault.Links))
	}
	l := cfg.Fault.Links[0]
	if l.Node != uint32(cluster.ServerAddr) || l.Dir != fault.Both || l.P != 0.1 {
		t.Fatalf("link %+v", l)
	}

	// -reorder-max without -reorder changes nothing, so it must not
	// change the cache key either.
	key := func(f Faults) string {
		cfg := cluster.DefaultConfig(cluster.NcapCons, app.ApacheProfile(), 24_000)
		f.Apply(&cfg)
		if err := cfg.Validate(); err != nil {
			t.Fatalf("%+v: %v", f, err)
		}
		return runner.Job{Config: cfg}.Key()
	}
	if key(Faults{Loss: 0.01, ReorderMax: 500 * time.Microsecond}) != key(Faults{Loss: 0.01, ReorderMax: time.Millisecond}) {
		t.Fatal("-reorder-max without -reorder changed the cache key")
	}
	if key(Faults{Loss: 0.01, Reorder: 0.1, ReorderMax: 500 * time.Microsecond}) == key(Faults{Loss: 0.01, Reorder: 0.1, ReorderMax: time.Millisecond}) {
		t.Fatal("-reorder-max with -reorder did not change the cache key")
	}
}

func TestResilienceApply(t *testing.T) {
	var cfg cluster.Config
	var r Resilience
	r.Apply(&cfg)
	if cfg.Overload != nil {
		t.Fatal("inert resilience flags still set cfg.Overload")
	}
	r = Resilience{Deadline: 5 * time.Millisecond, Admit: "codel", QueueCap: 128, RetryBudget: 0.2, Breaker: 4}
	r.Apply(&cfg)
	spec := cfg.Overload
	if spec == nil {
		t.Fatal("flags set but cfg.Overload is nil")
	}
	if spec.Deadline != 5_000_000 || spec.Admit != "codel" || spec.QueueCap != 128 ||
		spec.RetryBudget != 0.2 || spec.BreakerThreshold != 4 {
		t.Fatalf("spec %+v", spec)
	}
	if !spec.Enabled() {
		t.Fatal("populated spec reports disabled")
	}
}

func TestRunnerOptions(t *testing.T) {
	r := Runner{Jobs: 3, Cache: "/c", Timeout: time.Minute, Quiet: true}
	o := r.Options(true)
	if o.Jobs != 3 || o.CacheDir != "/c" || o.Timeout != time.Minute || !o.Record {
		t.Fatalf("options %+v", o)
	}
	if o.Progress != nil {
		t.Fatal("-q did not suppress progress")
	}
	r.Quiet = false
	if r.Options(false).Progress != os.Stderr {
		t.Fatal("progress not wired to stderr")
	}
}

// Every tool rejects bad flag values the same way: exit code 2. The
// validators terminate the process, so each case runs in a re-executed
// copy of the test binary.
func TestValidationExitCode(t *testing.T) {
	for _, tc := range []string{
		"jobs", "timeout", "retries", "loss", "reorder-max",
		"workload", "policy", "level",
		"deadline", "queue-cap", "retry-budget", "breaker", "admit",
	} {
		tc := tc
		t.Run(tc, func(t *testing.T) {
			cmd := exec.Command(os.Args[0], "-test.run", "TestValidationHelper")
			cmd.Env = append(os.Environ(), "CLIFLAGS_CASE="+tc)
			err := cmd.Run()
			ee, ok := err.(*exec.ExitError)
			if !ok {
				t.Fatalf("invalid -%s: err = %v, want exit error", tc, err)
			}
			if code := ee.ExitCode(); code != 2 {
				t.Fatalf("invalid -%s: exit %d, want 2", tc, code)
			}
		})
	}
}

// TestValidationHelper is the re-exec target: it feeds one invalid value
// to the matching validator and must die with exit code 2 before reaching
// the final exit 0.
func TestValidationHelper(t *testing.T) {
	switch os.Getenv("CLIFLAGS_CASE") {
	case "":
		t.Skip("re-exec target only")
	case "jobs":
		(&Runner{Jobs: 0, Timeout: time.Minute}).Validate("t")
	case "timeout":
		(&Runner{Jobs: 1, Timeout: 0}).Validate("t")
	case "retries":
		// A job runs once; a rerun over -cache retries its failures, so
		// no runner flag takes a retry count.
		new(Runner).Register(1)
		flag.CommandLine.Parse([]string{"-retries", "1"})
	case "loss":
		(&Faults{Loss: 1.5, ReorderMax: time.Millisecond}).Validate("t")
	case "reorder-max":
		(&Faults{ReorderMax: -time.Millisecond}).Validate("t")
	case "deadline":
		(&Resilience{Deadline: -time.Millisecond}).Validate("t")
	case "queue-cap":
		(&Resilience{QueueCap: -1}).Validate("t")
	case "retry-budget":
		(&Resilience{RetryBudget: -0.1}).Validate("t")
	case "breaker":
		(&Resilience{Breaker: -3}).Validate("t")
	case "admit":
		(&Resilience{Admit: "bogus"}).Validate("t")
	case "workload":
		Workload("t", "bogus")
	case "policy":
		Policy("t", "bogus")
	case "level":
		Level("t", "bogus")
	}
	os.Exit(0)
}
