// Package fault is the deterministic fault-injection subsystem for the
// simulated fabric. It perturbs the perfect network the rest of the
// simulator builds — links that never lose a frame, nodes that never
// stall — with the degradations real datacenters see: random packet
// loss, bit corruption caught by the receiver's FCS check, bounded
// reordering, duplication, a constant per-frame slowdown, and link flap
// windows. Every fault is a property of one unidirectional link; a slow
// or crashed node is a fault on both of its links.
//
// Determinism contract: every Injector draws from its own seeded
// sim.Rand stream, derived from the run seed and the link's name, and is
// consulted exactly once per frame in simulated-event order. Because the
// engine fires events deterministically, the same cluster.Config (fault
// spec included) produces a bit-identical run at any host worker count —
// the same property the fault-free simulator already guarantees. The
// spec is plain data and serializes canonically, so it participates in
// the runner's content-hash job key and cached results stay correct.
package fault

import (
	"fmt"

	"ncap/internal/sim"
)

// Window is a half-open interval [Start, End) of simulated time during
// which a link is down.
type Window struct {
	Start sim.Time `json:"start"`
	End   sim.Time `json:"end"`
}

// Direction selects which of a node's two unidirectional links a
// LinkFault applies to.
type Direction int

const (
	// Both applies to traffic toward and from the node.
	Both Direction = iota
	// ToNode applies only to the switch→node egress link.
	ToNode
	// FromNode applies only to the node→switch ingress link.
	FromNode
)

func (d Direction) String() string {
	switch d {
	case Both:
		return "both"
	case ToNode:
		return "to"
	case FromNode:
		return "from"
	}
	return fmt.Sprintf("dir?%d", int(d))
}

// Model is the fault behavior of one unidirectional link. Probabilities
// are per frame; zero values mean "no such fault".
type Model struct {
	// P drops each frame independently with this probability (Bernoulli
	// loss).
	P float64 `json:"p,omitempty"`
	// CorruptP flips bits in the frame with this probability; the
	// receiving NIC's FCS check detects and drops it (checksum-driven
	// drop, not silent data corruption).
	CorruptP float64 `json:"corruptP,omitempty"`
	// DupP delivers the frame twice with this probability.
	DupP float64 `json:"dupP,omitempty"`
	// ReorderP delays the frame by a uniform extra [1, ReorderMax]
	// with this probability, letting later frames overtake it.
	ReorderP   float64      `json:"reorderP,omitempty"`
	ReorderMax sim.Duration `json:"reorderMax,omitempty"`
	// ExtraDelay is a constant slowdown added to every frame (on a Both
	// entry: an overloaded or thermally throttled host's NIC path).
	ExtraDelay sim.Duration `json:"extraDelay,omitempty"`
	// Flaps are windows during which the link drops everything (on a
	// Both entry: a transient node crash with recovery). Sorted by Start
	// and disjoint.
	Flaps []Window `json:"flaps,omitempty"`
}

// Active reports whether the model perturbs anything.
func (m Model) Active() bool {
	return m.P > 0 || m.CorruptP > 0 || m.DupP > 0 ||
		(m.ReorderP > 0 && m.ReorderMax > 0) ||
		m.ExtraDelay > 0 || len(m.Flaps) > 0
}

// LinkFault perturbs the link(s) attached to one node.
type LinkFault struct {
	// Node is the netsim address whose link(s) this fault applies to.
	Node uint32 `json:"node"`
	// Dir selects the direction (Both, ToNode, FromNode).
	Dir Direction `json:"dir"`
	Model
}

// Spec is the full fault configuration for a cluster: at most one entry
// per unidirectional link. The zero value is a perfect fabric. Spec is
// part of cluster.Config: it serializes into the runner's content-keyed
// cache key, so two runs that differ only in faults never share a
// cached result.
type Spec struct {
	Links []LinkFault `json:"links,omitempty"`
}

// Enabled reports whether the spec perturbs anything at all. A spec
// holding only inert entries (all probabilities zero, no windows, no
// delays) counts as disabled, so the simulation takes the exact
// fault-free code paths and stays bit-identical with historical runs.
func (s Spec) Enabled() bool {
	for _, l := range s.Links {
		if l.Active() {
			return true
		}
	}
	return false
}

// Validate reports configuration errors: out-of-range probabilities,
// negative delays, a ReorderMax without ReorderP (or the reverse),
// empty, inverted, unsorted or overlapping windows, and two entries that
// cover the same unidirectional link.
func (s Spec) Validate() error {
	for i, l := range s.Links {
		for _, p := range []float64{l.P, l.CorruptP, l.DupP, l.ReorderP} {
			if p < 0 || p > 1 {
				return fmt.Errorf("fault: links[%d]: probability %g outside [0, 1]", i, p)
			}
		}
		switch l.Dir {
		case Both, ToNode, FromNode:
		default:
			return fmt.Errorf("fault: links[%d]: unknown direction %d", i, int(l.Dir))
		}
		if l.ReorderP > 0 && l.ReorderMax <= 0 {
			return fmt.Errorf("fault: links[%d]: ReorderP needs a positive ReorderMax", i)
		}
		// A ReorderMax with no reordering changes nothing but the cache
		// key; rejecting it keeps one key per run.
		if l.ReorderP == 0 && l.ReorderMax != 0 {
			return fmt.Errorf("fault: links[%d]: ReorderMax %v without ReorderP", i, l.ReorderMax)
		}
		if l.ExtraDelay < 0 {
			return fmt.Errorf("fault: links[%d]: negative ExtraDelay", i)
		}
		for k, w := range l.Flaps {
			if w.End <= w.Start {
				return fmt.Errorf("fault: links[%d]: window [%v, %v) is empty or inverted", i, w.Start, w.End)
			}
			if k > 0 && w.Start < l.Flaps[k-1].End {
				return fmt.Errorf("fault: links[%d]: window [%v, %v) is unsorted or overlaps its predecessor", i, w.Start, w.End)
			}
		}
		for _, prev := range s.Links[:i] {
			if prev.Node == l.Node && (prev.Dir == Both || l.Dir == Both || prev.Dir == l.Dir) {
				return fmt.Errorf("fault: links[%d]: node %d dir %v overlaps an earlier entry", i, l.Node, l.Dir)
			}
		}
	}
	return nil
}

// Resolve returns the model of one unidirectional link: the link
// identified by the node at its far end and the traffic direction
// relative to that node (ToNode or FromNode). A validated spec has at
// most one matching entry; no match is the zero (inactive) model.
func (s Spec) Resolve(node uint32, dir Direction) Model {
	for _, l := range s.Links {
		if l.Node == node && (l.Dir == Both || l.Dir == dir) {
			return l.Model
		}
	}
	return Model{}
}

// Action is the injector's verdict for one frame.
type Action struct {
	// Drop loses the frame on the medium (loss process or flap window).
	Drop bool
	// Corrupt delivers the frame with flipped bits; the receiver's FCS
	// check will discard it.
	Corrupt bool
	// Duplicate delivers the frame a second time shortly after the first.
	Duplicate bool
	// ExtraDelay postpones delivery (reordering and/or slowdown).
	ExtraDelay sim.Duration
}

// Injector applies a Model to a stream of frames. It is consulted once
// per frame (Judge) in event order and owns a private random stream, so
// its draws never perturb any other component's randomness.
type Injector struct {
	model   Model
	rng     *sim.Rand
	flapIdx int // first flap window not yet fully in the past
}

// NewInjector returns an injector for the model, drawing from a stream
// derived from the run seed and the link's unique name. It returns nil
// for an inactive model so callers can skip the hook entirely. The
// model's flap windows must be sorted and disjoint (Spec.Validate).
func NewInjector(m Model, seed uint64, name string) *Injector {
	if !m.Active() {
		return nil
	}
	return &Injector{model: m, rng: sim.NewRand(seed, "fault/"+name)}
}

// Judge decides one frame's fate at simulated time now. Draw order is
// fixed (loss, corruption, duplication, reordering) so the stream
// consumption — and therefore the whole run — is deterministic. Calls
// must come in nondecreasing now (the engine guarantees event order),
// which lets the flap check run off a forward cursor.
func (in *Injector) Judge(now sim.Time) Action {
	var act Action
	m := &in.model
	for in.flapIdx < len(m.Flaps) && now >= m.Flaps[in.flapIdx].End {
		in.flapIdx++
	}
	if in.flapIdx < len(m.Flaps) && now >= m.Flaps[in.flapIdx].Start {
		act.Drop = true
		return act
	}
	if m.P > 0 && in.rng.Bool(m.P) {
		act.Drop = true
		return act
	}
	if m.CorruptP > 0 && in.rng.Bool(m.CorruptP) {
		act.Corrupt = true
	}
	if m.DupP > 0 && in.rng.Bool(m.DupP) {
		act.Duplicate = true
	}
	act.ExtraDelay = m.ExtraDelay
	if m.ReorderP > 0 && m.ReorderMax > 0 && in.rng.Bool(m.ReorderP) {
		act.ExtraDelay += in.rng.Duration(1, m.ReorderMax)
	}
	return act
}
