package fault

import (
	"testing"

	"ncap/internal/sim"
)

func TestSpecValidate(t *testing.T) {
	if err := (Spec{}).Validate(); err != nil {
		t.Fatalf("zero spec invalid: %v", err)
	}
	ok := Spec{Links: []LinkFault{
		{Node: 1, Dir: Both, Model: Model{P: 0.01, CorruptP: 0.001, DupP: 0.001,
			ReorderP: 0.01, ReorderMax: 100 * sim.Microsecond,
			Flaps: []Window{{Start: 0, End: sim.Millisecond}}}},
		{Node: 2, Dir: Both, Model: Model{ExtraDelay: sim.Microsecond,
			Flaps: []Window{{Start: sim.Millisecond, End: 2 * sim.Millisecond}, {Start: 2 * sim.Millisecond, End: 3 * sim.Millisecond}}}},
	}}
	if err := ok.Validate(); err != nil {
		t.Fatalf("full spec invalid: %v", err)
	}
	bad := []Spec{
		{Links: []LinkFault{{Node: 1, Model: Model{P: 1.5}}}},
		{Links: []LinkFault{{Node: 1, Model: Model{CorruptP: -0.1}}}},
		{Links: []LinkFault{{Node: 1, Dir: Direction(42)}}},
		{Links: []LinkFault{{Node: 1, Model: Model{ReorderP: 0.5}}}},                       // no ReorderMax
		{Links: []LinkFault{{Node: 1, Model: Model{P: 0.1, ReorderMax: sim.Millisecond}}}}, // ReorderMax without ReorderP
		{Links: []LinkFault{{Node: 1, Model: Model{ExtraDelay: -1}}}},
		{Links: []LinkFault{{Node: 1, Model: Model{Flaps: []Window{{Start: 2, End: 1}}}}}},
		{Links: []LinkFault{{Node: 1, Model: Model{Flaps: []Window{{Start: 5, End: 5}}}}}},
	}
	for i, s := range bad {
		if s.Validate() == nil {
			t.Errorf("bad spec %d accepted: %+v", i, s)
		}
	}
	// Same node, different directions: legal, not a duplicate.
	two := Spec{Links: []LinkFault{{Node: 1, Dir: ToNode}, {Node: 1, Dir: FromNode}}}
	if err := two.Validate(); err != nil {
		t.Fatalf("per-direction entries rejected: %v", err)
	}
}

func TestSpecEnabled(t *testing.T) {
	if (Spec{}).Enabled() {
		t.Fatal("zero spec enabled")
	}
	// Inert entries — present but perturbing nothing — must count as
	// disabled so legacy runs keep their fault-free code paths.
	inert := Spec{Links: []LinkFault{{Node: 1, Dir: Both}, {Node: 2, Model: Model{P: 0}}}}
	if inert.Enabled() {
		t.Fatal("inert spec reported enabled")
	}
	on := []Model{
		{P: 0.1},
		{CorruptP: 0.1},
		{DupP: 0.1},
		{ReorderP: 0.1, ReorderMax: sim.Microsecond},
		{ExtraDelay: sim.Microsecond},
		{Flaps: []Window{{Start: 0, End: 1}}},
	}
	for i, m := range on {
		if s := (Spec{Links: []LinkFault{{Node: 1, Model: m}}}); !s.Enabled() {
			t.Errorf("active spec %d reported disabled: %+v", i, s)
		}
	}
}

// TestValidateRejectsOverlap: a unidirectional link has at most one
// entry and its flap windows are sorted and disjoint, so Resolve returns
// the one match and Judge walks the windows with a forward cursor.
func TestValidateRejectsOverlap(t *testing.T) {
	w := func(s, e sim.Time) Window { return Window{Start: s, End: e} }
	for name, s := range map[string]Spec{
		"same direction twice": {Links: []LinkFault{{Node: 1, Dir: ToNode}, {Node: 1, Dir: ToNode}}},
		"both twice":           {Links: []LinkFault{{Node: 1}, {Node: 1}}},
		"both then to":         {Links: []LinkFault{{Node: 1, Dir: Both}, {Node: 1, Dir: ToNode}}},
		"from then both":       {Links: []LinkFault{{Node: 1, Dir: FromNode}, {Node: 1, Dir: Both}}},
		"unsorted windows":     {Links: []LinkFault{{Node: 1, Model: Model{Flaps: []Window{w(10, 20), w(0, 5)}}}}},
		"overlapping windows":  {Links: []LinkFault{{Node: 1, Model: Model{Flaps: []Window{w(0, 10), w(5, 20)}}}}},
	} {
		if s.Validate() == nil {
			t.Errorf("%s accepted: %+v", name, s)
		}
	}
}

func TestResolveReturnsTheOneMatch(t *testing.T) {
	spec := Spec{Links: []LinkFault{
		{Node: 7, Dir: ToNode, Model: Model{P: 0.25}},
		{Node: 7, Dir: FromNode, Model: Model{CorruptP: 0.5}},
		{Node: 9, Dir: Both, Model: Model{ExtraDelay: 3 * sim.Microsecond,
			Flaps: []Window{{Start: sim.Millisecond, End: 2 * sim.Millisecond}}}},
	}}
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	if to := spec.Resolve(7, ToNode); to.P != 0.25 || to.CorruptP != 0 {
		t.Fatalf("ToNode model wrong: %+v", to)
	}
	if from := spec.Resolve(7, FromNode); from.CorruptP != 0.5 || from.P != 0 {
		t.Fatalf("FromNode model wrong: %+v", from)
	}
	// A Both entry resolves into either direction.
	for _, dir := range []Direction{ToNode, FromNode} {
		if m := spec.Resolve(9, dir); m.ExtraDelay != 3*sim.Microsecond || len(m.Flaps) != 1 {
			t.Fatalf("Both entry missed %v: %+v", dir, m)
		}
	}
	if other := spec.Resolve(8, ToNode); other.Active() {
		t.Fatalf("unrelated node got a model: %+v", other)
	}
}

func TestNewInjectorNilForInactive(t *testing.T) {
	if in := NewInjector(Model{}, 1, "x"); in != nil {
		t.Fatal("inactive model produced an injector")
	}
	if in := NewInjector(Model{P: 0.1}, 1, "x"); in == nil {
		t.Fatal("active model produced no injector")
	}
}

// judgeSeq collects n verdicts from a fresh injector.
func judgeSeq(m Model, seed uint64, name string, n int) []Action {
	in := NewInjector(m, seed, name)
	out := make([]Action, n)
	for i := range out {
		out[i] = in.Judge(sim.Time(i) * sim.Microsecond)
	}
	return out
}

func TestInjectorDeterministicPerStream(t *testing.T) {
	m := Model{P: 0.5, DupP: 0.2, ReorderP: 0.3, ReorderMax: 50 * sim.Microsecond}
	a := judgeSeq(m, 42, "to/3", 1000)
	b := judgeSeq(m, 42, "to/3", 1000)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("frame %d diverged on identical seed+name: %+v vs %+v", i, a[i], b[i])
		}
	}
	// A different stream name — or seed — is a different stream.
	diff := func(o []Action) bool {
		for i := range a {
			if a[i] != o[i] {
				return true
			}
		}
		return false
	}
	if !diff(judgeSeq(m, 42, "from/3", 1000)) {
		t.Fatal("renamed stream replayed the original")
	}
	if !diff(judgeSeq(m, 43, "to/3", 1000)) {
		t.Fatal("reseeded stream replayed the original")
	}
}

func TestBernoulliLossRate(t *testing.T) {
	const n, p = 20000, 0.3
	drops := 0
	for _, a := range judgeSeq(Model{P: p}, 1, "rate", n) {
		if a.Drop {
			drops++
		}
	}
	got := float64(drops) / n
	if got < p-0.03 || got > p+0.03 {
		t.Fatalf("empirical loss %.3f, want ~%.2f", got, p)
	}
}

func TestDownWindowsDropWithoutRandomness(t *testing.T) {
	m := Model{P: 0.5, Flaps: []Window{{Start: 10 * sim.Microsecond, End: 20 * sim.Microsecond}}}
	// Two injectors on the same stream: one judges a frame inside the
	// flap window first, the other does not. The window verdict must not
	// consume a draw, so both streams stay aligned afterwards.
	a := NewInjector(m, 7, "w")
	b := NewInjector(m, 7, "w")
	if act := a.Judge(15 * sim.Microsecond); !act.Drop {
		t.Fatal("frame inside the flap window survived")
	}
	for i := 0; i < 100; i++ {
		now := sim.Time(30+i) * sim.Microsecond
		if a.Judge(now) != b.Judge(now) {
			t.Fatalf("window drop consumed randomness (frame %d diverged)", i)
		}
	}
	// Boundary semantics: [Start, End) is half-open.
	c := NewInjector(Model{Flaps: []Window{{Start: 10, End: 20}}}, 7, "b")
	if !c.Judge(10).Drop {
		t.Fatal("window start not inclusive")
	}
	if c.Judge(20).Drop {
		t.Fatal("window end not exclusive")
	}
}

func TestReorderDelayBounded(t *testing.T) {
	m := Model{ReorderP: 1, ReorderMax: 40 * sim.Microsecond}
	for i, a := range judgeSeq(m, 1, "r", 2000) {
		if a.ExtraDelay < 1 || a.ExtraDelay > 40*sim.Microsecond {
			t.Fatalf("frame %d delay %v outside (0, ReorderMax]", i, a.ExtraDelay)
		}
	}
	// The constant slowdown stacks on top of the reorder draw.
	m.ExtraDelay = 100 * sim.Microsecond
	for i, a := range judgeSeq(m, 1, "s", 100) {
		if a.ExtraDelay <= 100*sim.Microsecond || a.ExtraDelay > 140*sim.Microsecond {
			t.Fatalf("frame %d stacked delay %v outside (100µs, 140µs]", i, a.ExtraDelay)
		}
	}
}

func TestStringers(t *testing.T) {
	if Both.String() != "both" || ToNode.String() != "to" || FromNode.String() != "from" {
		t.Fatal("direction strings")
	}
}
