package sim

import (
	"encoding/binary"
	"hash/fnv"
	"reflect"
	"testing"
)

// resetScript is a deterministic event stream over every part of the
// queue: near-window, low- and high-level wheel events, and events that
// cancel or reschedule others. Each fired key folds into an FNV-64a
// digest, so two runs of the script match only if they fire the same
// events under the same keys.
type resetScript struct {
	e       *Engine
	rng     *Rand
	handles []Handle
	sum     uint64
	fired   int
	haltAt  int // the fired count at which the script halts the engine; 0 never
}

func (s *resetScript) start(n int) {
	for i := 0; i < n; i++ {
		s.schedule()
	}
}

// schedule queues one event at a delay drawn from a spread of horizons.
func (s *resetScript) schedule() {
	delays := []Duration{0, 40, 3 * Microsecond, 300 * Microsecond, 20 * Millisecond, 3 * Second}
	d := delays[s.rng.Intn(len(delays))] + Duration(s.rng.Intn(1000))
	s.handles = append(s.handles, s.e.ScheduleArg(d, resetFire, s))
}

func resetFire(arg any) {
	s := arg.(*resetScript)
	h := fnv.New64a()
	var buf [24]byte
	f := s.e.Front()
	binary.LittleEndian.PutUint64(buf[:8], s.sum)
	binary.LittleEndian.PutUint64(buf[8:16], uint64(f.When()))
	binary.LittleEndian.PutUint64(buf[16:], f.Seq())
	h.Write(buf[:])
	s.sum = h.Sum64()
	if s.fired++; s.fired == s.haltAt {
		s.e.Halt()
	}
	switch s.rng.Intn(4) {
	case 0:
		s.handles[s.rng.Intn(len(s.handles))].Cancel()
	case 1, 2:
		s.schedule()
	}
}

// runScript runs the script on e to the given time and returns its digest
// and fired count.
func runScript(e *Engine, until Time) (uint64, int) {
	s := &resetScript{e: e, rng: NewRand(11, "reset")}
	s.start(300)
	e.Run(until)
	return s.sum, s.fired
}

// TestEngineResetMatchesNew: an engine reset after a half-drained run
// (halted mid-stream, with events queued in the near window and on the
// wheel) is NewEngine's engine apart from its free list, fires the same
// keys in the same order as a new engine, and no Handle from before the
// reset stays pending. TestFireOrderDigestOnReusedStorage checks the same
// on whole simulations against the pinned digests.
func TestEngineResetMatchesNew(t *testing.T) {
	want, wantFired := runScript(NewEngine(), 2*Second)

	e := NewEngine()
	s := &resetScript{e: e, rng: NewRand(5, "half"), haltAt: 400}
	s.start(500)
	e.Run(2 * Second)
	if e.Pending() == 0 || e.NearLen() == 0 {
		t.Fatalf("half-drained engine holds %d events, %d near: want both queues in use", e.Pending(), e.NearLen())
	}
	e.Reset(1 << 20)
	for i, h := range s.handles {
		if h.Pending() {
			t.Fatalf("handle %d from before the reset is still pending", i)
		}
	}
	if e.free == nil {
		t.Fatal("reset dropped the engine's event storage")
	}
	free := e.free
	e.free = nil
	if !reflect.DeepEqual(e, NewEngine()) {
		t.Fatal("a reset engine differs from NewEngine's")
	}
	e.free = free

	got, gotFired := runScript(e, 2*Second)
	if got != want || gotFired != wantFired {
		t.Fatalf("reset engine fired %d events, digest %016x; a new engine fired %d, digest %016x", gotFired, got, wantFired, want)
	}

	// Reset keeps at most keep events, and a run that needs no more at
	// once then allocates nothing.
	e.Reset(3)
	n := 0
	for ev := e.free; ev != nil; ev = ev.next {
		n++
	}
	if n != 3 {
		t.Fatalf("Reset(3) kept %d events", n)
	}
	small := func() {
		for i := 0; i < 3; i++ {
			e.ScheduleArg(Duration(i)*Microsecond, func(any) {}, nil)
		}
		e.Run(Second)
		e.Reset(3)
	}
	if allocs := testing.AllocsPerRun(10, small); allocs != 0 {
		t.Fatalf("a run within the kept events allocated %v times", allocs)
	}
}
