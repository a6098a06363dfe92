package netsim

import (
	"testing"

	"ncap/internal/sim"
)

// TestKeyedFIFOOrderAndChunks pushes and pops runs of records across chunk
// boundaries against a slice model, and checks the chunk policy: an
// emptied FIFO keeps its last chunk and refills it from the start.
func TestKeyedFIFOOrderAndChunks(t *testing.T) {
	eng := sim.NewEngine()
	q := keyedFIFO[int]{pool: &completionChunks}
	var model []int
	next := 0
	for round, n := range []int{1, 31, 32, 33, 100, 5, 64} {
		for i := 0; i < n; i++ {
			q.push(eng.Reserve(sim.Time(next)), next)
			model = append(model, next)
			next++
			if got := q.back().val; got != model[len(model)-1] {
				t.Fatalf("round %d: back = %d, want %d", round, got, model[len(model)-1])
			}
		}
		// Pop all but a few, then everything, so both a partial drain and
		// an empty FIFO follow every push run.
		for _, keep := range []int{3, 0} {
			for len(model) > keep {
				r := q.front()
				if r.val != model[0] || r.key.When() != sim.Time(model[0]) {
					t.Fatalf("round %d: front = (%v, %d), want %d", round, r.key.When(), r.val, model[0])
				}
				q.pop()
				model = model[1:]
			}
			if q.empty() != (keep == 0) {
				t.Fatalf("round %d: empty() = %v with %d records", round, q.empty(), len(model))
			}
		}
		kept := q.head
		if kept == nil || kept != q.tail || q.headIdx != 0 || q.tailIdx != 0 {
			t.Fatalf("round %d: emptied FIFO did not keep one chunk at index 0", round)
		}
		q.push(eng.Reserve(0), -1)
		if q.head != kept {
			t.Fatalf("round %d: a push into an emptied FIFO took a new chunk", round)
		}
		q.pop()
	}
}
