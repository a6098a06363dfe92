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

// checkPages verifies each source's pages: a page counts its in-flight
// records and bounds their serve indexes, and the id a live record's slot
// stands for carries its source's address in the high bits.
func checkPages(t *testing.T, m *servedMemory) {
	t.Helper()
	for src, r := range m.sources {
		for i, p := range r.pages {
			if p == nil {
				continue
			}
			inflight := 0
			for j := range p.recs {
				e := &p.recs[j]
				if e.held && e.idx == 0 {
					inflight++
				}
				if e.held && e.idx > p.newest {
					t.Fatalf("source %d page %d: record serve index %d past the page's newest %d",
						src, r.base+int64(i), e.idx, p.newest)
				}
				key := (r.base+int64(i))<<pageBits | int64(j)
				if id := r.first + uint64(key*r.step); m.live(e) && netsim.Addr(id>>40) != src {
					t.Fatalf("record %#x (key %d) of source %d", id, key, src)
				}
			}
			if inflight != p.inflight {
				t.Fatalf("source %d page %d: %d records in flight, page counts %d",
					src, r.base+int64(i), inflight, p.inflight)
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
				m, ref := newServedMemory(window, NewStorage(nil)), newRefServed(window)
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
				checkPages(t, m)
			}
		}
	}
	if evictedReadmits == 0 || liveReserves == 0 || resends == 0 || suppressed == 0 {
		t.Fatalf("streams missed a case: %d evicted re-admits, %d live re-serves, %d resends, %d suppressions",
			evictedReadmits, liveReserves, resends, suppressed)
	}
}

// TestServedRingStridedSource: a client fanning across 64 servers shows
// each one every 64th sequence number. The memory keys a source's
// requests by their step along its progression, so it holds them in as
// many slots as a dense source needs, not 64 times as many.
func TestServedRingStridedSource(t *testing.T) {
	for _, k := range []uint64{1, 3, 48, 64} {
		m := newServedMemory(dedupWindow, NewStorage(nil))
		const n = 2000
		for j := uint64(0); j < n; j++ {
			id := uint64(100)<<40 | (5%k + j*k)
			if d, _ := m.claim(100, id); d != dupAdmit {
				t.Fatalf("stride %d: request %d not admitted", k, j)
			}
			m.serve(100, id, 1000)
		}
		if got := m.slots(); got > 2048 {
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

// TestServedMemoryRekeys: a source whose ids leave their progression (its
// stride changes from 64 to 48 to 3 to 1 mid-stream) re-keys its live
// records under the smaller step. Every decision still matches the
// reference model, and the pages stay consistent after each re-key.
func TestServedMemoryRekeys(t *testing.T) {
	for _, window := range []int{3, 8, 300} {
		name := fmt.Sprintf("window%d", window)
		rng := sim.NewRand(7, name)
		m, ref := newServedMemory(window, NewStorage(nil)), newRefServed(window)
		const src = 100
		next := uint64(5)
		var known []uint64
		recent := func() uint64 { return known[len(known)-1-rng.Intn(min(len(known), 2*window+2))] }
		steps := map[int64]bool{}
		for _, stride := range []uint64{64, 48, 3, 1} {
			for op := 0; op < 2000; op++ {
				var id uint64
				switch k := rng.Intn(10); {
				case k < 4 || len(known) == 0: // new request
					id = src<<40 | next
					next += stride
					known = append(known, id)
				case k < 6: // duplicate
					id = recent()
				case k < 9: // finish
					id = recent()
					body := 64 + rng.Intn(1<<16)
					m.serve(src, id, body)
					ref.serve(id, body)
					continue
				default: // drop
					id = recent()
					m.drop(src, id)
					ref.drop(id)
					continue
				}
				gotD, gotBody := m.claim(src, id)
				wantD, wantBody := ref.claim(id)
				if gotD != wantD || gotBody != wantBody {
					t.Fatalf("%s stride %d op %d: claim(%#x) = (%d, %d), reference (%d, %d)",
						name, stride, op, id, gotD, gotBody, wantD, wantBody)
				}
				steps[m.sources[src].step] = true
			}
			checkPages(t, m)
		}
		// 64, then gcd(64, 48·j) = 16, then gcd(16, 3·j) = 1.
		for _, step := range []int64{64, 16, 1} {
			if !steps[step] {
				t.Fatalf("%s: the source never keyed by step %d (saw %v)", name, step, steps)
			}
		}
	}
}
