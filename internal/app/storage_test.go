package app

import (
	"slices"
	"testing"

	"ncap/internal/sim"
)

// TestStorageReclaimKeepsLastBuilt: Reclaim keeps up to keep objects of a
// kind, the ones built last, clears their references into the run that
// held them and drops the rest, leaving no reference to a dropped one;
// a next run within what was kept builds nothing.
func TestStorageReclaimKeepsLastBuilt(t *testing.T) {
	eng := sim.NewEngine()
	st := NewStorage(eng)
	c := &Client{eng: eng}
	run := func(out int) []*pendingReq {
		var held []*pendingReq
		for i := 0; i < out; i++ {
			pr := st.request(c)
			pr.payload = []byte("held")
			held = append(held, pr)
		}
		for _, pr := range held {
			st.pending.put(pr)
		}
		return held
	}

	built := run(100)
	st.Reclaim(10)
	if !slices.Equal(st.pending.all, built[90:]) {
		t.Fatalf("Reclaim(10) after 100 built kept %d objects, want the last 10 built", len(st.pending.all))
	}
	for _, pr := range st.pending.all {
		if pr.c != nil || pr.payload != nil {
			t.Fatal("a kept object still references the run that held it")
		}
	}
	for _, pr := range st.pending.free[len(st.pending.free):cap(st.pending.free)] {
		if pr != nil {
			t.Fatal("the free list's spare capacity still holds a dropped object")
		}
	}
	run(10)
	if !slices.Equal(st.pending.all, built[90:]) {
		t.Fatalf("a run within the kept objects built more: %d kept", len(st.pending.all))
	}
}
