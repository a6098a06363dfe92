package cliflags

import (
	"os"
	"os/exec"
	"path/filepath"
	"testing"

	"ncap/internal/cluster"
	"ncap/internal/topology"
)

func TestTopologySpecResolution(t *testing.T) {
	var tp Topology
	if tp.Any() || tp.Spec("t") != nil {
		t.Fatal("zero-value flags must keep the nil (paper's star) spec")
	}

	tp = Topology{Racks: 1, RackServers: 16, RackClients: 8}
	spec := tp.Spec("t")
	if !tp.Any() || spec == nil || spec.Racks != 1 || spec.Servers() != 16 || spec.Clients() != 8 {
		t.Fatalf("-racks 1 spec %+v", spec)
	}

	tp = Topology{Racks: 4, Spines: 2, RackServers: 16, RackClients: 8}
	spec = tp.Spec("t")
	if spec == nil || spec.Racks != 4 || spec.Spines != 2 || spec.Servers() != 64 || spec.Clients() != 32 {
		t.Fatalf("-racks 4 spec %+v", spec)
	}

	path := filepath.Join(t.TempDir(), "rack.json")
	if err := topology.Rack(2, 2).WriteFile(path); err != nil {
		t.Fatal(err)
	}
	tp = Topology{File: path}
	spec = tp.Spec("t")
	if spec == nil || spec.Servers() != 2 || spec.Clients() != 2 {
		t.Fatalf("-topology file spec %+v", spec)
	}
}

func TestTopologyApply(t *testing.T) {
	var cfg cluster.Config
	var tp Topology
	tp.Apply("t", &cfg)
	if cfg.Topology != nil {
		t.Fatal("inert topology flags still set cfg.Topology")
	}
	tp = Topology{Racks: 1, RackServers: 4, RackClients: 2}
	tp.Apply("t", &cfg)
	if cfg.Topology == nil || cfg.Topology.Servers() != 4 {
		t.Fatalf("cfg.Topology %+v", cfg.Topology)
	}
}

// The topology validators follow the shared exit-2 contract; the invalid
// combinations run in a re-executed copy of the test binary (the same
// pattern as TestValidationExitCode).
func TestTopologyValidationExitCode(t *testing.T) {
	for _, tc := range []string{
		"topology-and-racks", "negative-racks", "fleet-no-spines",
		"rack-servers", "rack-clients", "bad-spec-file",
	} {
		tc := tc
		t.Run(tc, func(t *testing.T) {
			cmd := exec.Command(os.Args[0], "-test.run", "TestTopologyValidationHelper")
			cmd.Env = append(os.Environ(), "CLIFLAGS_TOPO_CASE="+tc)
			err := cmd.Run()
			ee, ok := err.(*exec.ExitError)
			if !ok {
				t.Fatalf("%s: err = %v, want exit error", tc, err)
			}
			if code := ee.ExitCode(); code != 2 {
				t.Fatalf("%s: exit %d, want 2", tc, code)
			}
		})
	}
}

// TestTopologyValidationHelper is the re-exec target: it feeds one invalid
// flag combination to the validator (or spec loader) and must die with
// exit code 2 before reaching the final exit 0.
func TestTopologyValidationHelper(t *testing.T) {
	switch os.Getenv("CLIFLAGS_TOPO_CASE") {
	case "":
		t.Skip("re-exec target only")
	case "topology-and-racks":
		(&Topology{File: "x.json", Racks: 1}).Validate("t")
	case "negative-racks":
		(&Topology{Racks: -1}).Validate("t")
	case "fleet-no-spines":
		(&Topology{Racks: 2, Spines: 0, RackServers: 16, RackClients: 8}).Validate("t")
	case "rack-servers":
		(&Topology{Racks: 1, RackServers: 0, RackClients: 8}).Validate("t")
	case "rack-clients":
		(&Topology{Racks: 1, RackServers: 16, RackClients: 0}).Validate("t")
	case "bad-spec-file":
		dir, err := os.MkdirTemp("", "topo")
		if err != nil {
			os.Exit(3)
		}
		path := filepath.Join(dir, "bad.json")
		if err := os.WriteFile(path, []byte(`{"Racks":0}`), 0o644); err != nil {
			os.Exit(3)
		}
		(&Topology{File: path}).Spec("t")
	}
	os.Exit(0)
}
