// Package cliflags centralizes the flag spelling, parsing and validation
// shared by the ncap command-line tools (ncapsim, ncapsweep, ncaptrace):
// workload/policy/level lookup, runner resource limits, fault-injection
// knobs, and the machine-readable output flags (-json, -trace-out,
// -pprof). Every tool spells these flags identically and rejects bad
// values the same way: a message on stderr, usage, exit code 2.
package cliflags

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"

	"ncap/internal/app"
	"ncap/internal/cluster"
	"ncap/internal/fault"
	"ncap/internal/resilience"
	"ncap/internal/runner"
	"ncap/internal/sim"
	"ncap/internal/topology"
	"ncap/internal/workload"

	// Registered on the default mux for the optional -pprof endpoint.
	_ "net/http/pprof"
)

// Fatalf reports a usage error the uniform way: message, usage, exit 2.
func Fatalf(tool, format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, tool+": "+format+"\n", args...)
	flag.Usage()
	os.Exit(2)
}

// Workload resolves a workload name or exits 2.
func Workload(tool, name string) app.Profile {
	prof, err := app.ProfileByName(name)
	if err != nil {
		Fatalf(tool, "%v", err)
	}
	return prof
}

// Workloads resolves a workload restriction: empty means every built-in
// profile, anything else must name one of them (or the tool exits 2).
func Workloads(tool, name string) []app.Profile {
	if name == "" {
		return []app.Profile{app.ApacheProfile(), app.MemcachedProfile()}
	}
	return []app.Profile{Workload(tool, name)}
}

// Policy resolves a policy name or exits 2.
func Policy(tool, name string) cluster.Policy {
	p, err := cluster.ParsePolicy(name)
	if err != nil {
		Fatalf(tool, "%v", err)
	}
	return p
}

// Level resolves a paper load-level name or exits 2.
func Level(tool, name string) cluster.LoadLevel {
	switch name {
	case "low":
		return cluster.LowLoad
	case "medium":
		return cluster.MediumLoad
	case "high":
		return cluster.HighLoad
	}
	Fatalf(tool, "unknown level %q (want low, medium, high)", name)
	panic("unreachable")
}

// Runner bundles the execution resource flags.
type Runner struct {
	Jobs    int
	Cache   string
	Timeout time.Duration
	Quiet   bool
	Audit   bool
}

// Register installs the runner flags with the given default worker count.
func (r *Runner) Register(defaultJobs int) {
	flag.IntVar(&r.Jobs, "jobs", defaultJobs, "concurrent simulations (must be positive)")
	flag.StringVar(&r.Cache, "cache", "", "result cache directory (empty disables caching)")
	flag.DurationVar(&r.Timeout, "timeout", 10*time.Minute, "per-simulation wall-clock timeout (must be positive)")
	flag.BoolVar(&r.Quiet, "q", false, "suppress progress output on stderr")
	flag.BoolVar(&r.Audit, "audit", false, "run every simulation with the runtime invariant auditor; violations are reported and fail the run")
}

// Validate rejects nonsense resource limits up front: a zero or negative
// -jobs would silently fall back to GOMAXPROCS, and a zero -timeout would
// silently disable the watchdog — both surprising ways to "work".
func (r *Runner) Validate(tool string) {
	switch {
	case r.Jobs <= 0:
		Fatalf(tool, "-jobs %d: must be positive", r.Jobs)
	case r.Timeout <= 0:
		Fatalf(tool, "-timeout %v: must be positive", r.Timeout)
	}
}

// Options builds runner options from the flags. record keeps outcomes
// for report export; progress (stderr unless -q) receives batch progress.
func (r *Runner) Options(record bool) runner.Options {
	// Declared as the interface type: a nil *os.File boxed into io.Writer
	// would read as "progress enabled" to the runner.
	var progress io.Writer
	if !r.Quiet {
		progress = os.Stderr
	}
	return runner.Options{
		Jobs:     r.Jobs,
		CacheDir: r.Cache,
		Timeout:  r.Timeout,
		Progress: progress,
		Record:   record,
		Audit:    r.Audit,
	}
}

// InterruptExitCode is the conventional "terminated by SIGINT" status
// (128 + signal 2) the tools exit with after a graceful drain.
const InterruptExitCode = 130

// HandleSignals installs a SIGINT/SIGTERM handler that drains the pool
// gracefully: dispatching stops, in-flight simulations finish, and the
// tool writes whatever partial output it has (marked interrupted). A
// second signal aborts immediately with InterruptExitCode.
func HandleSignals(tool string, pool *runner.Pool) {
	ch := make(chan os.Signal, 2)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	go func() {
		sig := <-ch
		fmt.Fprintf(os.Stderr, "%s: %v: finishing in-flight simulations, writing partial results (repeat to abort)\n", tool, sig)
		pool.Stop()
		<-ch
		os.Exit(InterruptExitCode)
	}()
}

// ReportViolations prints an audited batch's invariant violations to w,
// grouped under each failing job's tag, and reports whether any occurred.
func ReportViolations(w io.Writer, outcomes []runner.Outcome) bool {
	any := false
	for _, o := range outcomes {
		if len(o.Violations) == 0 {
			continue
		}
		any = true
		fmt.Fprintf(w, "audit: job %q: %d violation(s)\n", o.Job.Tag, len(o.Violations))
		for _, v := range o.Violations {
			fmt.Fprintf(w, "  %s\n", v)
		}
	}
	return any
}

// Faults bundles the fault-injection flags, all applied to the server
// access link in both directions.
type Faults struct {
	Loss       float64
	Corrupt    float64
	Dup        float64
	Reorder    float64
	ReorderMax time.Duration
}

// Register installs the fault flags.
func (f *Faults) Register() {
	flag.Float64Var(&f.Loss, "loss", 0, "Bernoulli frame-loss probability on the server access link (both directions)")
	flag.Float64Var(&f.Corrupt, "corrupt", 0, "bit-corruption probability on the server access link (FCS drop at the receiver)")
	flag.Float64Var(&f.Dup, "dup", 0, "frame duplication probability on the server access link")
	flag.Float64Var(&f.Reorder, "reorder", 0, "frame reordering probability on the server access link")
	flag.DurationVar(&f.ReorderMax, "reorder-max", 500*time.Microsecond, "maximum extra delay for reordered frames")
}

// Validate rejects out-of-range probabilities with exit code 2.
func (f *Faults) Validate(tool string) {
	for _, p := range []struct {
		name string
		v    float64
	}{
		{"loss", f.Loss}, {"corrupt", f.Corrupt}, {"dup", f.Dup}, {"reorder", f.Reorder},
	} {
		if p.v < 0 || p.v > 1 {
			Fatalf(tool, "-%s %v: must be a probability in [0,1]", p.name, p.v)
		}
	}
	if f.ReorderMax <= 0 {
		Fatalf(tool, "-reorder-max %v: must be positive", f.ReorderMax)
	}
}

// Any reports whether any fault is requested.
func (f *Faults) Any() bool {
	return f.Loss > 0 || f.Corrupt > 0 || f.Dup > 0 || f.Reorder > 0
}

// Apply attaches the requested faults to the config's server access link.
// -reorder-max is copied only with -reorder: without reordering it changes
// nothing, and carrying it would give one run a second cache key.
func (f *Faults) Apply(cfg *cluster.Config) {
	if !f.Any() {
		return
	}
	m := fault.Model{P: f.Loss, CorruptP: f.Corrupt, DupP: f.Dup, ReorderP: f.Reorder}
	if f.Reorder > 0 {
		m.ReorderMax = sim.Duration(f.ReorderMax.Nanoseconds())
	}
	cfg.Fault.Links = append(cfg.Fault.Links, fault.LinkFault{
		Node:  uint32(cluster.ServerAddr),
		Dir:   fault.Both,
		Model: m,
	})
}

// Resilience bundles the overload-protection flags (see
// internal/resilience): end-to-end deadlines, server admission control,
// retry budgets and circuit breakers. Spelled identically across all
// three tools.
type Resilience struct {
	Deadline    time.Duration
	Admit       string
	QueueCap    int
	RetryBudget float64
	Breaker     int
}

// Register installs the resilience flags.
func (r *Resilience) Register() {
	flag.DurationVar(&r.Deadline, "deadline", 0, "end-to-end request deadline (0 disables); distinct from the per-hop RTO")
	flag.StringVar(&r.Admit, "admit", "", "server admission policy ("+admitUsage()+"); empty with no other admission knob disables admission control")
	flag.IntVar(&r.QueueCap, "queue-cap", 0, "server admission queue capacity (0 takes the default when admission is on)")
	flag.Float64Var(&r.RetryBudget, "retry-budget", 0, "retry tokens earned per first send (token-bucket; 0 disables the budget)")
	flag.IntVar(&r.Breaker, "breaker", 0, "open the per-client circuit breaker after this many consecutive failures (0 disables)")
}

func admitUsage() string {
	names := make([]string, 0, 3)
	for _, p := range resilience.AdmitPolicies() {
		names = append(names, string(p))
	}
	return strings.Join(names, ", ")
}

// Validate rejects out-of-range resilience knobs with exit code 2.
func (r *Resilience) Validate(tool string) {
	switch {
	case r.Deadline < 0:
		Fatalf(tool, "-deadline %v: must be non-negative", r.Deadline)
	case r.QueueCap < 0:
		Fatalf(tool, "-queue-cap %d: must be non-negative", r.QueueCap)
	case r.RetryBudget < 0:
		Fatalf(tool, "-retry-budget %v: must be non-negative", r.RetryBudget)
	case r.Breaker < 0:
		Fatalf(tool, "-breaker %d: must be non-negative", r.Breaker)
	}
	switch resilience.AdmitPolicy(r.Admit) {
	case "", resilience.AdmitDropTail, resilience.AdmitDeadline, resilience.AdmitCoDel:
	default:
		Fatalf(tool, "-admit %q: unknown admission policy (want %s)", r.Admit, admitUsage())
	}
}

// Any reports whether any resilience knob is set.
func (r *Resilience) Any() bool {
	return r.Deadline > 0 || r.Admit != "" || r.QueueCap > 0 ||
		r.RetryBudget > 0 || r.Breaker > 0
}

// Spec resolves the flags into a resilience spec, nil when nothing is
// set (the legacy code paths, byte-identical with historical runs).
func (r *Resilience) Spec() *resilience.Spec {
	if !r.Any() {
		return nil
	}
	return &resilience.Spec{
		Deadline:         sim.Duration(r.Deadline.Nanoseconds()),
		Admit:            resilience.AdmitPolicy(r.Admit),
		QueueCap:         r.QueueCap,
		RetryBudget:      r.RetryBudget,
		BreakerThreshold: r.Breaker,
	}
}

// Apply attaches the requested resilience spec to the config.
func (r *Resilience) Apply(cfg *cluster.Config) {
	if spec := r.Spec(); spec != nil {
		cfg.Overload = spec
	}
}

// Traffic bundles the workload-source flags: generated scenarios, trace
// replay, and trace recording (see internal/workload).
type Traffic struct {
	Scenario    string
	Trace       string
	RecordTrace string
}

// Register installs the traffic flags.
func (t *Traffic) Register() {
	flag.StringVar(&t.Scenario, "scenario", "", "generated traffic scenario ("+workload.ScenarioUsage()+"); empty keeps the built-in burst clients")
	flag.StringVar(&t.Trace, "trace", "", "replay this ncap-trace-v1 arrival schedule (JSONL file)")
	flag.StringVar(&t.RecordTrace, "record-trace", "", "write the run's arrival schedule as an ncap-trace-v1 trace to this path")
}

// Validate rejects contradictory traffic sources with exit code 2.
func (t *Traffic) Validate(tool string) {
	if t.Scenario != "" && t.Trace != "" {
		Fatalf(tool, "-scenario and -trace are mutually exclusive (a trace is already a fixed schedule)")
	}
}

// Apply resolves the flags into the config's workload spec: -trace loads
// and attaches the schedule (with its cache-identity hash), -scenario
// selects a generator, -record-trace arms capture. No flags set leaves
// the config on the built-in burst clients.
func (t *Traffic) Apply(tool string, cfg *cluster.Config) {
	var spec *workload.Spec
	switch {
	case t.Trace != "":
		tr, err := workload.ReadTraceFile(t.Trace)
		if err != nil {
			Fatalf(tool, "-trace: %v", err)
		}
		spec = workload.SpecForTrace(tr)
	case t.Scenario != "":
		sc, err := workload.ParseScenario(t.Scenario)
		if err != nil {
			Fatalf(tool, "%v", err)
		}
		spec = &workload.Spec{Scenario: sc}
	}
	if t.RecordTrace != "" {
		if spec == nil {
			spec = &workload.Spec{}
		}
		spec.Record = true
	}
	cfg.Traffic = spec
}

// WriteRecorded writes a recording run's captured schedule to the
// -record-trace path. It is an error for the result to carry no capture.
func (t *Traffic) WriteRecorded(rec *workload.Trace) error {
	if rec == nil {
		return fmt.Errorf("-record-trace: run produced no capture")
	}
	return workload.WriteTraceFile(t.RecordTrace, rec)
}

// Topology bundles the cluster-shape flags (see internal/topology): an
// explicit spec file, or the -racks shorthand compiled into the standard
// rack (one ToR) or rack/spine fleet shape. Spelled identically across
// all three tools. Nothing set keeps the paper's 4-node star.
type Topology struct {
	File        string
	Racks       int
	Spines      int
	RackServers int
	RackClients int
}

// Register installs the topology flags.
func (t *Topology) Register() {
	flag.StringVar(&t.File, "topology", "", "topology spec JSON file (see internal/topology); empty with -racks 0 keeps the paper's 4-node star")
	flag.IntVar(&t.Racks, "racks", 0, "build a rack/spine fleet with this many racks (0 keeps the star unless -topology is given)")
	flag.IntVar(&t.Spines, "spines", 2, "spine switches for a multi-rack -racks fleet")
	flag.IntVar(&t.RackServers, "rack-servers", 16, "servers per rack for a -racks fleet")
	flag.IntVar(&t.RackClients, "rack-clients", 8, "clients per rack for a -racks fleet")
}

// Validate rejects contradictory or out-of-range shape flags with exit
// code 2. Spec-file contents are validated at load time in Spec.
func (t *Topology) Validate(tool string) {
	switch {
	case t.File != "" && t.Racks != 0:
		Fatalf(tool, "-topology and -racks are mutually exclusive (the spec file already fixes the shape)")
	case t.Racks < 0:
		Fatalf(tool, "-racks %d: must be non-negative", t.Racks)
	case t.Racks > 1 && t.Spines <= 0:
		Fatalf(tool, "-spines %d: a %d-rack fleet needs at least one spine", t.Spines, t.Racks)
	case t.Racks > 0 && t.RackServers <= 0:
		Fatalf(tool, "-rack-servers %d: must be positive", t.RackServers)
	case t.Racks > 0 && t.RackClients <= 0:
		Fatalf(tool, "-rack-clients %d: must be positive", t.RackClients)
	}
}

// Any reports whether a non-star topology is requested.
func (t *Topology) Any() bool { return t.File != "" || t.Racks > 0 }

// Spec resolves the flags into a topology spec — loading and validating
// the -topology file (exit 2 on a bad one) or building the -racks shape —
// and returns nil when nothing is set: the paper's star, whose config key
// and Result stay byte-identical with historical runs.
func (t *Topology) Spec(tool string) *topology.Spec {
	switch {
	case t.File != "":
		spec, err := topology.ReadFile(t.File)
		if err != nil {
			Fatalf(tool, "-topology: %v", err)
		}
		return spec
	case t.Racks == 1:
		return topology.Rack(t.RackServers, t.RackClients)
	case t.Racks > 1:
		return topology.Fleet(t.Racks, t.Spines, t.RackServers, t.RackClients)
	}
	return nil
}

// Apply attaches the requested topology spec to the config.
func (t *Topology) Apply(tool string, cfg *cluster.Config) {
	if spec := t.Spec(tool); spec != nil {
		cfg.Topology = spec
	}
}

// Output bundles the machine-readable output flags.
type Output struct {
	JSON     string
	TraceOut string
	Pprof    string
}

// Register installs the output flags. traceOut controls whether the tool
// supports event-trace export (-trace-out), which needs a per-run
// telemetry sink.
func (o *Output) Register(traceOut bool) {
	flag.StringVar(&o.JSON, "json", "", "write a schema-stamped report.json to this path")
	if traceOut {
		flag.StringVar(&o.TraceOut, "trace-out", "", "write the telemetry event trace as JSONL to this path (enables telemetry)")
	}
	flag.StringVar(&o.Pprof, "pprof", "", "profiling: an address containing ':' (e.g. localhost:6060) serves net/http/pprof; any other value is a file prefix capturing <prefix>.cpu.pprof and <prefix>.mem.pprof for the run")
}

// StartPprof starts profiling when -pprof was given and returns the stop
// function the tool must call (normally via defer) before its successful
// exit. An address containing ':' serves the net/http/pprof endpoint for
// the life of the process (stop is a no-op). Any other value is a file
// prefix: CPU profiling starts now and stop writes <prefix>.cpu.pprof
// and a heap snapshot to <prefix>.mem.pprof — error paths that os.Exit
// early lose the capture, which is fine for a failed run.
func (o *Output) StartPprof(tool string) (stop func()) {
	stop = func() {}
	if o.Pprof == "" {
		return stop
	}
	if strings.Contains(o.Pprof, ":") {
		go func() {
			if err := http.ListenAndServe(o.Pprof, nil); err != nil {
				fmt.Fprintf(os.Stderr, "%s: pprof: %v\n", tool, err)
			}
		}()
		return stop
	}
	cpu, err := os.Create(o.Pprof + ".cpu.pprof")
	if err != nil {
		Fatalf(tool, "-pprof: %v", err)
	}
	if err := pprof.StartCPUProfile(cpu); err != nil {
		Fatalf(tool, "-pprof: %v", err)
	}
	return func() {
		pprof.StopCPUProfile()
		if err := cpu.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "%s: pprof: %v\n", tool, err)
		}
		mem, err := os.Create(o.Pprof + ".mem.pprof")
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: pprof: %v\n", tool, err)
			return
		}
		runtime.GC() // flush dead objects so the heap profile shows live state
		if err := pprof.WriteHeapProfile(mem); err != nil {
			fmt.Fprintf(os.Stderr, "%s: pprof: %v\n", tool, err)
		}
		if err := mem.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "%s: pprof: %v\n", tool, err)
		}
	}
}
