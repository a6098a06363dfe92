// Package fault is the deterministic fault-injection subsystem for the
// simulated fabric. It perturbs the perfect network the rest of the
// simulator builds — links that never lose a frame, nodes that never
// stall — with the degradations real datacenters see: random and bursty
// packet loss, bit corruption caught by the receiver's FCS check, bounded
// reordering, duplication, link flap windows, per-node slowdown, and
// transient node crashes.
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
	"sort"

	"ncap/internal/sim"
)

// LossModel selects how a link loses frames.
type LossModel int

const (
	// LossNone never drops (corruption/reordering may still apply).
	LossNone LossModel = iota
	// LossBernoulli drops each frame independently with probability P.
	LossBernoulli
	// LossGilbertElliott is the classic two-state burst-loss model: the
	// link moves between a good and a bad state with per-frame transition
	// probabilities, and drops with a state-dependent probability.
	LossGilbertElliott
)

func (m LossModel) String() string {
	switch m {
	case LossNone:
		return "none"
	case LossBernoulli:
		return "bernoulli"
	case LossGilbertElliott:
		return "gilbert-elliott"
	}
	return fmt.Sprintf("loss?%d", int(m))
}

// Window is a half-open interval [Start, End) of simulated time during
// which a link is down or a node is crashed.
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

// LinkFault perturbs the link(s) attached to one node. Probabilities are
// per frame; zero values mean "no such fault".
type LinkFault struct {
	// Node is the netsim address whose link(s) this fault applies to.
	Node uint32 `json:"node"`
	// Dir selects the direction (Both, ToNode, FromNode).
	Dir Direction `json:"dir"`

	// Loss selects the loss process; P parameterizes Bernoulli.
	Loss LossModel `json:"loss,omitempty"`
	P    float64   `json:"p,omitempty"`
	// Gilbert-Elliott parameters: per-frame state transition
	// probabilities and per-state loss probabilities.
	GoodToBad float64 `json:"goodToBad,omitempty"`
	BadToGood float64 `json:"badToGood,omitempty"`
	LossGood  float64 `json:"lossGood,omitempty"`
	LossBad   float64 `json:"lossBad,omitempty"`

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

	// Flaps are windows during which the link drops everything.
	Flaps []Window `json:"flaps,omitempty"`
}

// NodeFault perturbs one node as a whole.
type NodeFault struct {
	// Node is the netsim address of the faulted node.
	Node uint32 `json:"node"`
	// ExtraDelay is a constant per-frame slowdown added to every frame
	// entering or leaving the node (an overloaded or thermally throttled
	// host's NIC path).
	ExtraDelay sim.Duration `json:"extraDelay,omitempty"`
	// Crashes are windows during which the node is down: every frame to
	// or from it is lost (transient crash with recovery).
	Crashes []Window `json:"crashes,omitempty"`
}

// Spec is the full fault configuration for a cluster. The zero value is
// a perfect fabric. Spec is part of cluster.Config: it serializes into
// the runner's content-keyed cache key, so two runs that differ only in
// faults never share a cached result.
type Spec struct {
	Links []LinkFault `json:"links,omitempty"`
	Nodes []NodeFault `json:"nodes,omitempty"`
}

// Enabled reports whether the spec perturbs anything at all. A spec
// holding only inert entries (all probabilities zero, no windows, no
// delays) counts as disabled, so the simulation takes the exact
// fault-free code paths and stays bit-identical with historical runs.
func (s Spec) Enabled() bool {
	for _, l := range s.Links {
		if l.active() {
			return true
		}
	}
	for _, n := range s.Nodes {
		if n.ExtraDelay > 0 || len(n.Crashes) > 0 {
			return true
		}
	}
	return false
}

func (l LinkFault) active() bool {
	lossy := l.Loss == LossBernoulli && l.P > 0 ||
		l.Loss == LossGilbertElliott && (l.LossGood > 0 || l.LossBad > 0)
	return lossy || l.CorruptP > 0 || l.DupP > 0 ||
		(l.ReorderP > 0 && l.ReorderMax > 0) || len(l.Flaps) > 0
}

// Validate reports configuration errors: out-of-range probabilities,
// inverted windows, duplicate (node, direction) link entries.
func (s Spec) Validate() error {
	seen := map[[2]uint64]bool{}
	for i, l := range s.Links {
		if err := validProb("link", l.P, l.GoodToBad, l.BadToGood, l.LossGood,
			l.LossBad, l.CorruptP, l.DupP, l.ReorderP); err != nil {
			return err
		}
		switch l.Loss {
		case LossNone, LossBernoulli, LossGilbertElliott:
		default:
			return fmt.Errorf("fault: links[%d]: unknown loss model %d", i, int(l.Loss))
		}
		switch l.Dir {
		case Both, ToNode, FromNode:
		default:
			return fmt.Errorf("fault: links[%d]: unknown direction %d", i, int(l.Dir))
		}
		if l.ReorderP > 0 && l.ReorderMax <= 0 {
			return fmt.Errorf("fault: links[%d]: ReorderP needs a positive ReorderMax", i)
		}
		if err := validWindows("links", i, l.Flaps); err != nil {
			return err
		}
		k := [2]uint64{uint64(l.Node), uint64(l.Dir)}
		if seen[k] {
			return fmt.Errorf("fault: duplicate link fault for node %d dir %v", l.Node, l.Dir)
		}
		seen[k] = true
	}
	nodes := map[uint32]bool{}
	for i, n := range s.Nodes {
		if n.ExtraDelay < 0 {
			return fmt.Errorf("fault: nodes[%d]: negative ExtraDelay", i)
		}
		if err := validWindows("nodes", i, n.Crashes); err != nil {
			return err
		}
		if nodes[n.Node] {
			return fmt.Errorf("fault: duplicate node fault for node %d", n.Node)
		}
		nodes[n.Node] = true
	}
	return nil
}

func validProb(what string, ps ...float64) error {
	for _, p := range ps {
		if p < 0 || p > 1 {
			return fmt.Errorf("fault: %s probability %g outside [0, 1]", what, p)
		}
	}
	return nil
}

func validWindows(what string, i int, ws []Window) error {
	for _, w := range ws {
		if w.End <= w.Start {
			return fmt.Errorf("fault: %s[%d]: window [%v, %v) is empty or inverted", what, i, w.Start, w.End)
		}
	}
	return nil
}

// Resolve merges the spec's link and node faults into the effective
// model for one unidirectional link: the link identified by the node at
// its far end and the traffic direction relative to that node. A node's
// crash windows and slowdown apply to both of its directions.
func (s Spec) Resolve(node uint32, dir Direction) Model {
	var m Model
	for _, l := range s.Links {
		if l.Node != node || (l.Dir != Both && l.Dir != dir) {
			continue
		}
		m.Loss = l.Loss
		m.P = l.P
		m.GoodToBad, m.BadToGood = l.GoodToBad, l.BadToGood
		m.LossGood, m.LossBad = l.LossGood, l.LossBad
		m.CorruptP, m.DupP = l.CorruptP, l.DupP
		m.ReorderP, m.ReorderMax = l.ReorderP, l.ReorderMax
		m.Down = append(m.Down, l.Flaps...)
	}
	for _, n := range s.Nodes {
		if n.Node != node {
			continue
		}
		m.ExtraDelay += n.ExtraDelay
		m.Down = append(m.Down, n.Crashes...)
	}
	return m
}

// Model is the resolved fault behavior of one unidirectional link.
type Model struct {
	Loss                     LossModel
	P                        float64
	GoodToBad, BadToGood     float64
	LossGood, LossBad        float64
	CorruptP, DupP, ReorderP float64
	ReorderMax, ExtraDelay   sim.Duration
	Down                     []Window
}

// Active reports whether the model perturbs anything.
func (m Model) Active() bool {
	lossy := m.Loss == LossBernoulli && m.P > 0 ||
		m.Loss == LossGilbertElliott && (m.LossGood > 0 || m.LossBad > 0)
	return lossy || m.CorruptP > 0 || m.DupP > 0 ||
		(m.ReorderP > 0 && m.ReorderMax > 0) ||
		m.ExtraDelay > 0 || len(m.Down) > 0
}

// Action is the injector's verdict for one frame.
type Action struct {
	// Drop loses the frame on the medium (loss process, flap, crash).
	Drop bool
	// Corrupt delivers the frame with flipped bits; the receiver's FCS
	// check will discard it.
	Corrupt bool
	// Duplicate delivers the frame a second time shortly after the first.
	Duplicate bool
	// ExtraDelay postpones delivery (reordering and/or node slowdown).
	ExtraDelay sim.Duration
}

// Injector applies a Model to a stream of frames. It is consulted once
// per frame (Judge) in event order and owns a private random stream, so
// its draws never perturb any other component's randomness.
//
// Everything derivable from the model is resolved at construction so the
// per-frame path does no re-derivation: which fault classes are armed is
// cached in flags, and the down windows are merged into a disjoint sorted
// list walked by a cursor (Judge is called in nondecreasing event time,
// so the cursor only moves forward).
type Injector struct {
	model Model
	rng   *sim.Rand
	bad   bool // Gilbert-Elliott state

	// Hoisted per-frame decisions (fixed for the injector's lifetime).
	doCorrupt, doDup, doReorder bool
	down                        []Window // merged, disjoint, sorted by Start
	downIdx                     int      // first window not yet fully in the past
}

// NewInjector returns an injector for the model, drawing from a stream
// derived from the run seed and the link's unique name. It returns nil
// for an inactive model so callers can skip the hook entirely.
func NewInjector(m Model, seed uint64, name string) *Injector {
	if !m.Active() {
		return nil
	}
	return &Injector{
		model:     m,
		rng:       sim.NewRand(seed, "fault/"+name),
		doCorrupt: m.CorruptP > 0,
		doDup:     m.DupP > 0,
		doReorder: m.ReorderP > 0 && m.ReorderMax > 0,
		down:      mergeWindows(m.Down),
	}
}

// mergeWindows sorts the windows by start and coalesces overlapping or
// adjacent ones into a disjoint list. Judging against the merged list is
// equivalent to scanning the originals: a frame drops iff any window
// contains its time. The input slice is not modified.
func mergeWindows(ws []Window) []Window {
	if len(ws) == 0 {
		return nil
	}
	out := make([]Window, len(ws))
	copy(out, ws)
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	merged := out[:1]
	for _, w := range out[1:] {
		if last := &merged[len(merged)-1]; w.Start <= last.End {
			if w.End > last.End {
				last.End = w.End
			}
		} else {
			merged = append(merged, w)
		}
	}
	return merged
}

// Judge decides one frame's fate at simulated time now. Draw order is
// fixed (loss state, loss, corruption, duplication, reordering) so the
// stream consumption — and therefore the whole run — is deterministic.
// Calls must come in nondecreasing now (the engine guarantees event
// order), which lets the down-window check run off a forward cursor.
func (in *Injector) Judge(now sim.Time) Action {
	var act Action
	m := &in.model
	for in.downIdx < len(in.down) && now >= in.down[in.downIdx].End {
		in.downIdx++
	}
	if in.downIdx < len(in.down) && now >= in.down[in.downIdx].Start {
		act.Drop = true
		return act
	}
	switch m.Loss {
	case LossBernoulli:
		if m.P > 0 && in.rng.Bool(m.P) {
			act.Drop = true
			return act
		}
	case LossGilbertElliott:
		// Transition first, then the state's loss draw: a frame hitting
		// the start of a burst is already subject to the bad state.
		if in.bad {
			if in.rng.Bool(m.BadToGood) {
				in.bad = false
			}
		} else if in.rng.Bool(m.GoodToBad) {
			in.bad = true
		}
		p := m.LossGood
		if in.bad {
			p = m.LossBad
		}
		if p > 0 && in.rng.Bool(p) {
			act.Drop = true
			return act
		}
	}
	if in.doCorrupt && in.rng.Bool(m.CorruptP) {
		act.Corrupt = true
	}
	if in.doDup && in.rng.Bool(m.DupP) {
		act.Duplicate = true
	}
	act.ExtraDelay = m.ExtraDelay
	if in.doReorder && in.rng.Bool(m.ReorderP) {
		act.ExtraDelay += in.rng.Duration(1, m.ReorderMax)
	}
	return act
}
