package stats

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"ncap/internal/sim"
)

func TestLatencyPercentileNearestRank(t *testing.T) {
	l := NewLatencyRecorder()
	for i := 1; i <= 100; i++ {
		l.Record(sim.Duration(i))
	}
	cases := []struct {
		p    float64
		want sim.Duration
	}{
		{50, 50}, {90, 90}, {95, 95}, {99, 99}, {100, 100}, {1, 1},
	}
	for _, c := range cases {
		if got := l.Percentile(c.p); got != c.want {
			t.Errorf("P%v = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestLatencySmallSamples(t *testing.T) {
	l := NewLatencyRecorder()
	if l.Percentile(95) != 0 || l.Mean() != 0 || l.Max() != 0 {
		t.Fatal("empty recorder must report zeros")
	}
	l.Record(7)
	if l.Percentile(50) != 7 || l.Percentile(99) != 7 || l.Min() != 7 {
		t.Fatal("single sample must be every percentile")
	}
}

func TestLatencyMeanAndInterleavedQueries(t *testing.T) {
	l := NewLatencyRecorder()
	l.Record(10)
	l.Record(20)
	if got := l.Percentile(50); got != 10 {
		t.Fatalf("P50 = %v", got)
	}
	l.Record(30) // appending after a sort must still produce correct results
	if got := l.Percentile(100); got != 30 {
		t.Fatalf("P100 after append = %v", got)
	}
	if got := l.Mean(); got != 20 {
		t.Fatalf("Mean = %v, want 20", got)
	}
}

func TestLatencySummaryAndReset(t *testing.T) {
	l := NewLatencyRecorder()
	for i := 1; i <= 1000; i++ {
		l.Record(sim.Duration(i) * sim.Microsecond)
	}
	s := l.Summarize()
	if s.Count != 1000 || s.P50 != 500*sim.Microsecond || s.P99 != 990*sim.Microsecond {
		t.Fatalf("summary = %+v", s)
	}
	l.Reset()
	if l.Count() != 0 || l.Mean() != 0 {
		t.Fatal("reset did not clear recorder")
	}
}

// Property: percentile is monotone in p and always equals some sample.
func TestLatencyPercentileProperties(t *testing.T) {
	f := func(raw []uint32) bool {
		if len(raw) == 0 {
			return true
		}
		l := NewLatencyRecorder()
		set := map[sim.Duration]bool{}
		for _, v := range raw {
			d := sim.Duration(v)
			l.Record(d)
			set[d] = true
		}
		prev := sim.Duration(0)
		for _, p := range []float64{1, 10, 25, 50, 75, 90, 95, 99, 100} {
			v := l.Percentile(p)
			if v < prev || !set[v] {
				return false
			}
			prev = v
		}
		return l.Percentile(100) == l.Max()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestStateMeterAccrual(t *testing.T) {
	m := NewStateMeter(0, 1)
	m.Transition(10, 2)
	m.Transition(30, 1)
	m.Transition(60, 2)
	if got := m.Time(60, 1); got != 40 {
		t.Fatalf("state 1 time = %v, want 40", got)
	}
	if got := m.Time(60, 2); got != 20 {
		t.Fatalf("state 2 time = %v, want 20", got)
	}
	// Open interval charges to current state.
	if got := m.Time(100, 2); got != 60 {
		t.Fatalf("state 2 open time = %v, want 60", got)
	}
	if m.Entries(2) != 2 {
		t.Fatalf("entries(2) = %d, want 2", m.Entries(2))
	}
	if m.State() != 2 {
		t.Fatalf("state = %d, want 2", m.State())
	}
}

func TestStateMeterSelfTransitionNotCounted(t *testing.T) {
	m := NewStateMeter(0, 5)
	m.Transition(10, 5)
	if m.Entries(5) != 1 {
		t.Fatalf("self transition counted as entry: %d", m.Entries(5))
	}
}

func TestStateMeterReset(t *testing.T) {
	m := NewStateMeter(0, 1)
	m.Transition(100, 2)
	m.Reset(100)
	if m.Time(100, 1) != 0 || m.Time(100, 2) != 0 {
		t.Fatal("reset did not zero accruals")
	}
	m.Transition(150, 3)
	if got := m.Time(150, 2); got != 50 {
		t.Fatalf("post-reset accrual = %v, want 50", got)
	}
}

// TestStateMeterDense covers the label-indexed tallies: a state never
// entered reads 0 (below and above the entered labels), Reset clears in
// place without allocating and keeps the current state entered once, and
// a negative label panics.
func TestStateMeterDense(t *testing.T) {
	m := NewStateMeter(0, 2)
	m.Transition(10, 5)
	for _, s := range []int{0, 1, 3, 4, 9} {
		if m.Time(20, s) != 0 || m.Entries(s) != 0 {
			t.Fatalf("never-entered state %d reads time %v entries %d", s, m.Time(20, s), m.Entries(s))
		}
	}
	if m.Time(20, 2) != 10 || m.Time(20, 5) != 10 || m.Entries(2) != 1 || m.Entries(5) != 1 {
		t.Fatalf("entered states: time %v/%v entries %d/%d", m.Time(20, 2), m.Time(20, 5), m.Entries(2), m.Entries(5))
	}
	now := sim.Time(20)
	if allocs := testing.AllocsPerRun(100, func() {
		now++
		m.Reset(now)
	}); allocs != 0 {
		t.Fatalf("Reset allocated %v times per call", allocs)
	}
	if m.Entries(5) != 1 || m.Entries(2) != 0 || m.Time(now, 2) != 0 || m.Time(now, 5) != 0 {
		t.Fatalf("after Reset: entries %d/%d time %v/%v", m.Entries(2), m.Entries(5), m.Time(now, 2), m.Time(now, 5))
	}
	m.Transition(now+5, 2)
	if m.Entries(2) != 1 || m.Time(now+5, 5) != 5 {
		t.Fatalf("after Reset and a transition: entries(2) %d time(5) %v", m.Entries(2), m.Time(now+5, 5))
	}
	for name, f := range map[string]func(){
		"new":        func() { NewStateMeter(0, -1) },
		"transition": func() { m.Transition(now+5, -1) },
		"time":       func() { m.Time(now+5, -1) },
		"entries":    func() { m.Entries(-1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s with a negative label did not panic", name)
				}
			}()
			f()
		}()
	}
}

func TestStateMeterPanicsOnTimeTravel(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on backwards time")
		}
	}()
	m := NewStateMeter(100, 0)
	m.Transition(50, 1)
}

// Property: total accrued time across all states equals elapsed time.
func TestStateMeterConservation(t *testing.T) {
	f := func(steps []uint8) bool {
		m := NewStateMeter(0, 0)
		now := sim.Time(0)
		states := map[int]bool{0: true}
		for _, s := range steps {
			now += sim.Time(s % 50)
			st := int(s % 5)
			states[st] = true
			m.Transition(now, st)
		}
		var total sim.Duration
		for st := range states {
			total += m.Time(now, st)
		}
		return total == sim.Duration(now)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("value = %d", c.Value())
	}
	c.Reset()
	if c.Value() != 0 {
		t.Fatal("reset failed")
	}
}

func TestMultiCSVAlignment(t *testing.T) {
	a := &TimeSeries{Name: "a"}
	b := &TimeSeries{Name: "b"}
	a.Add(0, 1)
	a.Add(sim.Millisecond, 2)
	b.Add(0, 3)
	b.Add(sim.Millisecond, 4)
	var sb strings.Builder
	if err := MultiCSV(&sb, a, b); err != nil {
		t.Fatal(err)
	}
	want := "time_ms,a,b\n0.000,1,3\n1.000,2,4\n"
	if sb.String() != want {
		t.Fatalf("csv = %q, want %q", sb.String(), want)
	}
	// Misaligned series must error.
	c := &TimeSeries{Name: "c"}
	c.Add(0, 1)
	if err := MultiCSV(&sb, a, c); err == nil {
		t.Fatal("expected error for mismatched lengths")
	}
}

func TestLatencyAgainstSortReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	l := NewLatencyRecorder()
	var ref []sim.Duration
	for i := 0; i < 5000; i++ {
		d := sim.Duration(rng.Int63n(1e9))
		l.Record(d)
		ref = append(ref, d)
	}
	sort.Slice(ref, func(i, j int) bool { return ref[i] < ref[j] })
	for _, p := range []float64{50, 90, 95, 99} {
		want := ref[int(p/100*5000)-1]
		if got := l.Percentile(p); got != want {
			t.Errorf("P%v = %v, want %v", p, got, want)
		}
	}
}

// TestMergeMatchesReplay: MergeFrom over k recorders equals recording
// every sample one at a time in argument order — the same Summary and the
// same bits of the running sum behind Mean — for random samples, heavy
// ties, values near 2^40 (where the float sum rounds, so order matters)
// and empty recorders, both into a fresh recorder and into one that
// earlier merges left sorted and holding other samples. Merging leaves
// its inputs untouched.
func TestMergeMatchesReplay(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	reused := NewLatencyRecorder()
	gens := map[string]func() sim.Duration{
		"random": func() sim.Duration { return sim.Duration(rng.Int63n(50 * int64(sim.Millisecond))) },
		"ties":   func() sim.Duration { return sim.Duration(rng.Intn(4)) * sim.Microsecond },
		"2^40":   func() sim.Duration { return sim.Duration(1<<40 - rng.Int63n(1<<20)) },
	}
	for name, gen := range gens {
		for _, sizes := range [][]int{{}, {0}, {0, 0, 0}, {1}, {5, 0, 3}, {0, 2000, 0, 17}, {6000, 6000, 6000}, {1, 9000, 1, 4000}} {
			recs := make([]*LatencyRecorder, len(sizes))
			want := NewLatencyRecorder()
			var inputs [][]sim.Duration
			for i, n := range sizes {
				recs[i] = NewLatencyRecorder()
				for j := 0; j < n; j++ {
					recs[i].Record(gen())
				}
				if i%2 == 1 {
					recs[i].Percentile(50) // a sorted input merges like any other
				}
				inputs = append(inputs, append([]sim.Duration(nil), recs[i].Samples()...))
				for _, d := range recs[i].Samples() {
					want.Record(d)
				}
			}
			got := NewLatencyRecorder()
			got.MergeFrom(recs...)
			reused.MergeFrom(recs...)
			for _, m := range []*LatencyRecorder{got, reused} {
				if math.Float64bits(m.sum) != math.Float64bits(want.sum) {
					t.Errorf("%s %v: merged sum %v, replayed sum %v", name, sizes, m.sum, want.sum)
				}
				if g, w := m.Summarize(), want.Summarize(); g != w {
					t.Errorf("%s %v: merged %+v, replayed %+v", name, sizes, g, w)
				}
			}
			if cap(got.Samples()) != got.Count() {
				t.Errorf("%s %v: merged capacity %d for %d samples", name, sizes, cap(got.Samples()), got.Count())
			}
			for i, r := range recs {
				if !slices.Equal(r.Samples(), inputs[i]) {
					t.Fatalf("%s %v: Merge changed input %d", name, sizes, i)
				}
			}
		}
	}
}
