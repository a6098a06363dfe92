package app

import (
	"fmt"
	"testing"

	"ncap/internal/netsim"
	"ncap/internal/sim"
)

// refServed is the reference model for servedMemory: an in-flight set, a
// served map and a FIFO of first serves, keyed by request id alone (ids
// carry their source in the high bits, as clients build them).
type refServed struct {
	window   int
	inflight map[uint64]bool
	served   map[uint64]int
	order    []uint64
	head     int
}

func newRefServed(window int) *refServed {
	return &refServed{window: window, inflight: map[uint64]bool{}, served: map[uint64]int{}}
}

func (r *refServed) claim(id uint64) (dupDecision, int) {
	if r.inflight[id] {
		return dupSuppress, 0
	}
	if body, ok := r.served[id]; ok {
		return dupResend, body
	}
	r.inflight[id] = true
	return dupAdmit, 0
}

func (r *refServed) serve(id uint64, body int) {
	delete(r.inflight, id)
	if _, dup := r.served[id]; !dup {
		r.order = append(r.order, id)
	}
	r.served[id] = body
	if len(r.order)-r.head > r.window {
		delete(r.served, r.order[r.head])
		r.head++
	}
}

func (r *refServed) drop(id uint64) { delete(r.inflight, id) }

// checkRings verifies that every live record sits in the slot its id
// indexes and carries its source's address in the id's high bits.
func checkRings(t *testing.T, m *servedMemory) {
	t.Helper()
	for src, r := range m.rings {
		for i := range r.slots {
			e := &r.slots[i]
			if !m.live(e) {
				continue
			}
			if r.at(e.id) != e || netsim.Addr(e.id>>40) != src {
				t.Fatalf("record %#x of source %d in slot %d of %d", e.id, src, i, len(r.slots))
			}
		}
	}
}

// TestServedMemoryMatchesReference drives random streams of new requests,
// finishes, drops and duplicates from 1–4 sources through servedMemory and
// the reference model. Every admit/suppress/resend decision, every resent
// body and every Len must match, including re-serves after eviction and
// re-serves of a still-live record.
func TestServedMemoryMatchesReference(t *testing.T) {
	var evictedReadmits, liveReserves, resends, suppressed int
	for _, window := range []int{1, 3, 8} {
		for srcs := 1; srcs <= 4; srcs++ {
			for seed := uint64(1); seed <= 5; seed++ {
				name := fmt.Sprintf("window%d/srcs%d/seed%d", window, srcs, seed)
				rng := sim.NewRand(seed, name)
				m, ref := newServedMemory(window), newRefServed(window)
				// Each source has its own stride and offset: a client
				// fanning across k servers shows each of them every kth
				// sequence number.
				next := make([]uint64, srcs)
				stride := make([]uint64, srcs)
				for i := range stride {
					stride[i] = []uint64{1, 1, 2, 3, 4, 48, 64}[rng.Intn(7)]
					next[i] = uint64(rng.Intn(int(stride[i])))
				}
				var known []uint64 // every id seen, for duplicates
				everServed := map[uint64]bool{}
				for op := 0; op < 3000; op++ {
					si := rng.Intn(srcs)
					src := netsim.Addr(100 + si)
					var id uint64
					switch k := rng.Intn(10); {
					case k < 3 || len(known) == 0: // new request
						id = uint64(src)<<40 | next[si]
						next[si] += stride[si]
						known = append(known, id)
					case k < 7: // duplicate, biased to recent ids
						back := len(known)
						if rng.Bool(0.7) {
							back = min(back, 4*window+4)
						}
						id = known[len(known)-1-rng.Intn(back)]
						src = netsim.Addr(id >> 40)
					case k < 9: // finish: usually an in-flight request, sometimes any
						id = known[len(known)-1-rng.Intn(min(len(known), 4*window+4))]
						src = netsim.Addr(id >> 40)
						if !ref.inflight[id] && rng.Bool(0.8) {
							continue
						}
						if _, live := ref.served[id]; live {
							liveReserves++
						}
						body := 64 + rng.Intn(1<<16)
						m.serve(src, id, body)
						ref.serve(id, body)
						everServed[id] = true
						if got, want := m.Len(), len(ref.served); got != want {
							t.Fatalf("%s op %d: Len = %d, reference %d", name, op, got, want)
						}
						continue
					default: // drop (reject or shed)
						id = known[len(known)-1-rng.Intn(min(len(known), 4*window+4))]
						m.drop(netsim.Addr(id>>40), id)
						ref.drop(id)
						continue
					}
					_, wasServed := ref.served[id]
					evicted := everServed[id] && !wasServed && !ref.inflight[id]
					gotD, gotBody := m.claim(src, id)
					wantD, wantBody := ref.claim(id)
					if gotD != wantD || gotBody != wantBody {
						t.Fatalf("%s op %d: claim(%#x) = (%d, %d), reference (%d, %d)",
							name, op, id, gotD, gotBody, wantD, wantBody)
					}
					switch {
					case gotD == dupResend:
						resends++
					case gotD == dupSuppress:
						suppressed++
					case evicted:
						evictedReadmits++
					}
				}
				checkRings(t, m)
			}
		}
	}
	if evictedReadmits == 0 || liveReserves == 0 || resends == 0 || suppressed == 0 {
		t.Fatalf("streams missed a case: %d evicted re-admits, %d live re-serves, %d resends, %d suppressions",
			evictedReadmits, liveReserves, resends, suppressed)
	}
}

// TestServedRingStridedSource: a client fanning across 64 servers shows
// each one every 64th sequence number. The ring indexes past the id bits
// those requests share, so it holds them in as many slots as a dense
// source needs, not 64 times as many.
func TestServedRingStridedSource(t *testing.T) {
	for _, k := range []uint64{1, 3, 48, 64} {
		m := newServedMemory(dedupWindow)
		const n = 2000
		for j := uint64(0); j < n; j++ {
			id := uint64(100)<<40 | (5%k + j*k)
			if d, _ := m.claim(100, id); d != dupAdmit {
				t.Fatalf("stride %d: request %d not admitted", k, j)
			}
			m.serve(100, id, 1000)
		}
		if got := len(m.rings[100].slots); got > 2048 {
			t.Errorf("stride %d: %d live records take %d slots, want <= 2048", k, n, got)
		}
		for j := uint64(0); j < n; j++ {
			id := uint64(100)<<40 | (5%k + j*k)
			if d, body := m.claim(100, id); d != dupResend || body != 1000 {
				t.Fatalf("stride %d: duplicate of request %d = (%d, %d), want a resend", k, j, d, body)
			}
		}
	}
}
