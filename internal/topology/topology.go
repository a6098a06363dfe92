// Package topology defines the declarative cluster-shape API: a
// validated, JSON-serializable graph of node groups (server and client
// roles with per-group core counts and device overrides), switch tiers
// (top-of-rack switches plus an optional spine tier with ECMP hashing
// over equal-cost paths), and typed links. A Spec is pure data — it
// carries no live handles — so it participates in the runner's
// content-keyed cache identity, and cluster.New compiles it into wired
// simulation components.
//
// A nil *Spec in a cluster config is the paper's star (one server, the
// config's clients, one switch): the cluster compiles it as Star, so it
// runs exactly like the explicit spec while its serialized config, and
// so its cache key, stays the historical one (asserted by cluster tests).
package topology

import (
	"encoding/json"
	"fmt"
	"os"

	"ncap/internal/driver"
	"ncap/internal/netsim"
	"ncap/internal/nic"
	"ncap/internal/sim"
)

// Role classifies a node group.
type Role string

// The two node roles: fully modeled OLDI servers (processor, kernel,
// NIC, driver, application) and open-loop load-generating clients.
const (
	RoleServer Role = "server"
	RoleClient Role = "client"
)

// MaxNodes bounds a compiled topology. The cap is a construction safety
// rail, not a simulator limit: it keeps a typo'd spec from instantiating
// millions of fully modeled processors.
const MaxNodes = 4096

// DefaultFwDelay is the per-switch store-and-forward delay when the spec
// leaves FwDelay zero: the paper's 500 ns switch.
const DefaultFwDelay = 500 * sim.Nanosecond

// Group is a set of identically configured nodes attached to the fabric.
type Group struct {
	// Name labels the group in rollups and telemetry; unique, non-empty.
	Name string
	// Role is RoleServer or RoleClient.
	Role Role
	// Count is the number of nodes in the group.
	Count int
	// Rack is the 0-based ToR index the group's nodes attach to. With
	// Spread set, nodes distribute round-robin across all racks instead
	// and Rack must be zero.
	Rack int `json:",omitempty"`
	// Spread distributes the group's nodes round-robin across every rack.
	Spread bool `json:",omitempty"`
	// Cores overrides the per-server core count (0 = the cluster
	// default, Table 1's 4). Client nodes have no modeled processor.
	Cores int `json:",omitempty"`
	// Target restricts a client group's requests to one server group by
	// name; empty fans requests across every server in the fleet. Each
	// client rotates successive requests round-robin over the eligible
	// servers (offset by its client index), so load balances
	// deterministically and every server sees the same share.
	Target string `json:",omitempty"`
	// NIC, Driver and Link override the group's device parameters; nil
	// inherits the cluster config's values.
	NIC    *nic.Config        `json:",omitempty"`
	Driver *driver.Config     `json:",omitempty"`
	Link   *netsim.LinkConfig `json:",omitempty"`
}

// Spec is the declarative topology graph. The zero value is invalid; use
// Star, Rack or Fleet for the common shapes, or build one literally.
type Spec struct {
	// Racks is the number of top-of-rack switches (≥ 1). Every node's
	// access link terminates at its rack's ToR.
	Racks int
	// Spines is the spine-switch count. Zero is a single-tier fabric and
	// requires Racks == 1; with Racks > 1 at least one spine must exist,
	// and cross-rack frames ECMP-hash over the equal-cost spine paths.
	Spines int `json:",omitempty"`
	// Groups are the node groups, compiled in declaration order (which
	// fixes address assignment and RNG stream names).
	Groups []Group
	// Uplink configures the ToR↔spine links in both directions; nil
	// defaults to the access-link config (Link, then the cluster
	// config's) at 4× its bandwidth — the conventional 10G-access,
	// 40G-uplink rack.
	Uplink *netsim.LinkConfig `json:",omitempty"`
	// Link is the default access-link config for groups without their
	// own; nil inherits the cluster config's link.
	Link *netsim.LinkConfig `json:",omitempty"`
	// FwDelay is the per-switch store-and-forward delay (0 =
	// DefaultFwDelay).
	FwDelay sim.Duration `json:",omitempty"`
}

// Star returns the paper's evaluation shape: one server and the given
// clients behind a single switch (the paper uses 3). A cluster config
// with a nil Topology compiles Star(Config.Clients).
func Star(clients int) *Spec {
	return &Spec{
		Racks: 1,
		Groups: []Group{
			{Name: "server", Role: RoleServer, Count: 1},
			{Name: "clients", Role: RoleClient, Count: clients},
		},
	}
}

// Rack returns one top-of-rack switch with the given servers and clients
// attached — the E14 rack-of-16 building block.
func Rack(servers, clients int) *Spec {
	return &Spec{
		Racks: 1,
		Groups: []Group{
			{Name: "servers", Role: RoleServer, Count: servers},
			{Name: "clients", Role: RoleClient, Count: clients},
		},
	}
}

// Fleet returns racks × serversPerRack servers and racks × clientsPerRack
// clients spread round-robin across the racks, behind a spine tier with
// ECMP over the equal-cost paths.
func Fleet(racks, spines, serversPerRack, clientsPerRack int) *Spec {
	return &Spec{
		Racks:  racks,
		Spines: spines,
		Groups: []Group{
			{Name: "servers", Role: RoleServer, Count: racks * serversPerRack, Spread: true},
			{Name: "clients", Role: RoleClient, Count: racks * clientsPerRack, Spread: true},
		},
	}
}

// Servers returns the total server-node count.
func (s *Spec) Servers() int { return s.countRole(RoleServer) }

// Clients returns the total client-node count.
func (s *Spec) Clients() int { return s.countRole(RoleClient) }

// Nodes returns the total node count (switches excluded).
func (s *Spec) Nodes() int { return s.Servers() + s.Clients() }

func (s *Spec) countRole(r Role) int {
	n := 0
	for _, g := range s.Groups {
		if g.Role == r {
			n += g.Count
		}
	}
	return n
}

// ServerGroup returns the named server group, or nil.
func (s *Spec) ServerGroup(name string) *Group {
	for i := range s.Groups {
		if s.Groups[i].Name == name && s.Groups[i].Role == RoleServer {
			return &s.Groups[i]
		}
	}
	return nil
}

// Validate reports specification errors. A nil spec is valid: it selects
// the paper's star.
func (s *Spec) Validate() error {
	if s == nil {
		return nil
	}
	switch {
	case s.Racks <= 0:
		return fmt.Errorf("topology: need at least one rack (got %d)", s.Racks)
	case s.Spines < 0:
		return fmt.Errorf("topology: spine count must be non-negative (got %d)", s.Spines)
	case s.Racks > 1 && s.Spines == 0:
		return fmt.Errorf("topology: %d racks need a spine tier (set Spines >= 1)", s.Racks)
	case s.FwDelay < 0:
		return fmt.Errorf("topology: forwarding delay must be non-negative")
	case len(s.Groups) == 0:
		return fmt.Errorf("topology: no node groups")
	}
	if err := validateLink("uplink", s.Uplink); err != nil {
		return err
	}
	if err := validateLink("link", s.Link); err != nil {
		return err
	}
	seen := map[string]bool{}
	for i := range s.Groups {
		g := &s.Groups[i]
		switch {
		case g.Name == "":
			return fmt.Errorf("topology: group %d has no name", i)
		case seen[g.Name]:
			return fmt.Errorf("topology: duplicate group name %q", g.Name)
		case g.Role != RoleServer && g.Role != RoleClient:
			return fmt.Errorf("topology: group %q: unknown role %q (want %q or %q)",
				g.Name, g.Role, RoleServer, RoleClient)
		case g.Count <= 0:
			return fmt.Errorf("topology: group %q: count must be positive (got %d)", g.Name, g.Count)
		case g.Rack < 0 || g.Rack >= s.Racks:
			return fmt.Errorf("topology: group %q: rack %d out of range [0,%d)", g.Name, g.Rack, s.Racks)
		case g.Spread && g.Rack != 0:
			return fmt.Errorf("topology: group %q: Spread and an explicit Rack are mutually exclusive", g.Name)
		case g.Cores < 0:
			return fmt.Errorf("topology: group %q: cores must be non-negative", g.Name)
		case g.Role == RoleClient && g.Cores > 0:
			return fmt.Errorf("topology: group %q: client nodes have no modeled cores", g.Name)
		case g.Role == RoleServer && g.Target != "":
			return fmt.Errorf("topology: group %q: Target is a client-group field", g.Name)
		}
		if g.Target != "" && s.ServerGroup(g.Target) == nil {
			return fmt.Errorf("topology: group %q targets unknown server group %q", g.Name, g.Target)
		}
		if err := validateLink("group "+g.Name+" link", g.Link); err != nil {
			return err
		}
		if g.NIC != nil {
			if err := g.NIC.Validate(); err != nil {
				return fmt.Errorf("topology: group %q: %w", g.Name, err)
			}
		}
		if g.Driver != nil {
			if err := g.Driver.Validate(); err != nil {
				return fmt.Errorf("topology: group %q: %w", g.Name, err)
			}
		}
		seen[g.Name] = true
	}
	if s.Servers() == 0 {
		return fmt.Errorf("topology: no server nodes")
	}
	if s.Clients() == 0 {
		return fmt.Errorf("topology: no client nodes")
	}
	if n := s.Nodes(); n > MaxNodes {
		return fmt.Errorf("topology: %d nodes exceeds the %d-node construction cap", n, MaxNodes)
	}
	return nil
}

// validateLink checks an optional link override.
func validateLink(what string, l *netsim.LinkConfig) error {
	if l == nil {
		return nil
	}
	if err := l.Validate(); err != nil {
		return fmt.Errorf("topology: %s: %w", what, err)
	}
	return nil
}

// ReadFile parses a Spec from a JSON file, rejecting unknown fields (a
// misspelled knob must not silently vanish) and invalid graphs.
func ReadFile(path string) (*Spec, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("topology: %w", err)
	}
	defer f.Close()
	dec := json.NewDecoder(f)
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("topology: %s: %w", path, err)
	}
	if err := s.Validate(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// WriteFile serializes the spec as indented JSON (the -topology input
// format).
func (s *Spec) WriteFile(path string) error {
	blob, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return fmt.Errorf("topology: %w", err)
	}
	return os.WriteFile(path, append(blob, '\n'), 0o644)
}
