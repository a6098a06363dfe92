package topology

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"ncap/internal/netsim"
)

func TestConstructorsCount(t *testing.T) {
	cases := []struct {
		name             string
		s                *Spec
		servers, clients int
		racks, spines    int
	}{
		{"star", Star(3), 1, 3, 1, 0},
		{"rack", Rack(16, 8), 16, 8, 1, 0},
		{"fleet", Fleet(4, 2, 16, 8), 64, 32, 4, 2},
	}
	for _, c := range cases {
		if err := c.s.Validate(); err != nil {
			t.Errorf("%s: Validate: %v", c.name, err)
		}
		if c.s.Servers() != c.servers || c.s.Clients() != c.clients {
			t.Errorf("%s: %d servers / %d clients, want %d / %d",
				c.name, c.s.Servers(), c.s.Clients(), c.servers, c.clients)
		}
		if c.s.Nodes() != c.servers+c.clients {
			t.Errorf("%s: Nodes = %d", c.name, c.s.Nodes())
		}
		if c.s.Racks != c.racks || c.s.Spines != c.spines {
			t.Errorf("%s: racks=%d spines=%d, want %d/%d", c.name, c.s.Racks, c.s.Spines, c.racks, c.spines)
		}
	}
}

func TestNilSpecIsValid(t *testing.T) {
	var s *Spec
	if err := s.Validate(); err != nil {
		t.Fatalf("nil spec must select the paper's star: %v", err)
	}
}

func TestValidateRejections(t *testing.T) {
	sv := Group{Name: "s", Role: RoleServer, Count: 1}
	cl := Group{Name: "c", Role: RoleClient, Count: 1}
	cases := []struct {
		name string
		s    Spec
		want string
	}{
		{"no racks", Spec{Groups: []Group{sv, cl}}, "at least one rack"},
		{"negative spines", Spec{Racks: 1, Spines: -1, Groups: []Group{sv, cl}}, "non-negative"},
		{"racks without spine", Spec{Racks: 2, Groups: []Group{sv, cl}}, "need a spine tier"},
		{"negative fwdelay", Spec{Racks: 1, FwDelay: -1, Groups: []Group{sv, cl}}, "forwarding delay"},
		{"no groups", Spec{Racks: 1}, "no node groups"},
		{"unnamed group", Spec{Racks: 1, Groups: []Group{{Role: RoleServer, Count: 1}, cl}}, "has no name"},
		{"duplicate name", Spec{Racks: 1, Groups: []Group{sv, {Name: "s", Role: RoleClient, Count: 1}}}, "duplicate group name"},
		{"bad role", Spec{Racks: 1, Groups: []Group{{Name: "x", Role: "router", Count: 1}, sv, cl}}, "unknown role"},
		{"zero count", Spec{Racks: 1, Groups: []Group{{Name: "x", Role: RoleServer, Count: 0}, cl}}, "count must be positive"},
		{"rack out of range", Spec{Racks: 1, Groups: []Group{{Name: "x", Role: RoleServer, Count: 1, Rack: 1}, cl}}, "out of range"},
		{"spread plus rack", Spec{Racks: 2, Spines: 1, Groups: []Group{{Name: "x", Role: RoleServer, Count: 2, Spread: true, Rack: 1}, cl}}, "mutually exclusive"},
		{"client cores", Spec{Racks: 1, Groups: []Group{sv, {Name: "c", Role: RoleClient, Count: 1, Cores: 2}}}, "no modeled cores"},
		{"server target", Spec{Racks: 1, Groups: []Group{{Name: "s", Role: RoleServer, Count: 1, Target: "s"}, cl}}, "client-group field"},
		{"unknown target", Spec{Racks: 1, Groups: []Group{sv, {Name: "c", Role: RoleClient, Count: 1, Target: "ghost"}}}, "unknown server group"},
		{"no servers", Spec{Racks: 1, Groups: []Group{cl}}, "no server nodes"},
		{"no clients", Spec{Racks: 1, Groups: []Group{sv}}, "no client nodes"},
		{"node cap", Spec{Racks: 1, Groups: []Group{{Name: "s", Role: RoleServer, Count: MaxNodes, Rack: 0}, cl}}, "construction cap"},
		{"bad uplink", Spec{Racks: 1, Uplink: &netsim.LinkConfig{}, Groups: []Group{sv, cl}}, "bandwidth"},
		{"bad group link", Spec{Racks: 1, Groups: []Group{sv, {Name: "c", Role: RoleClient, Count: 1,
			Link: &netsim.LinkConfig{BandwidthBps: 1, Latency: -1, QueueBytes: 1}}}}, "latency"},
	}
	for _, c := range cases {
		err := c.s.Validate()
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want substring %q", c.name, err, c.want)
		}
	}
}

func TestServerGroupLookup(t *testing.T) {
	s := Rack(4, 2)
	if g := s.ServerGroup("servers"); g == nil || g.Count != 4 {
		t.Fatalf("ServerGroup(servers) = %+v", g)
	}
	if s.ServerGroup("clients") != nil {
		t.Fatal("client group must not resolve as a server group")
	}
	if s.ServerGroup("missing") != nil {
		t.Fatal("unknown group must resolve to nil")
	}
}

func TestFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fleet.json")
	want := Fleet(2, 2, 4, 2)
	want.FwDelay = DefaultFwDelay
	if err := want.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip diverged:\n got %+v\nwant %+v", got, want)
	}
}

func TestReadFileRejects(t *testing.T) {
	dir := t.TempDir()
	write := func(name, blob string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(blob), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	if _, err := ReadFile(filepath.Join(dir, "absent.json")); err == nil {
		t.Fatal("missing file must error")
	}
	// A misspelled knob must not silently vanish.
	p := write("unknown.json", `{"Racks":1,"Shelves":2,"Groups":[]}`)
	if _, err := ReadFile(p); err == nil || !strings.Contains(err.Error(), "Shelves") {
		t.Fatalf("unknown field: err = %v", err)
	}
	// Syntactically valid JSON, semantically invalid graph.
	p = write("invalid.json", `{"Racks":2,"Groups":[{"Name":"s","Role":"server","Count":1}]}`)
	if _, err := ReadFile(p); err == nil || !strings.Contains(err.Error(), "spine") {
		t.Fatalf("invalid graph: err = %v", err)
	}
}
