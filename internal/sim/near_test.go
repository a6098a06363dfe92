package sim

import (
	"testing"

	"ncap/internal/audit"
)

// nearModel drives random schedules, cancels and single steps against an
// engine, choosing fire times relative to the wheel cursor's slot so that
// events land exactly at the near window's edges (63 and 64 slots ahead),
// on both sides of the next page boundary, and past the window into the
// wheel. Each step's event must be the earliest (when, schedule order)
// entry of a plain list.
type nearModel struct {
	t    *testing.T
	seed uint64
	rng  *Rand
	e    *Engine
	ref  []refEntry
	live []Handle // parallel to ref
	ord  int
	a    *audit.Auditor
	cur  uint64 // cursor returned by the last audit

	fired  int
	edge   [2]int // events scheduled exactly 63 and 64 slots ahead
	wraps  int    // steps whose cursor slot number fell (wrapped past 63)
	inNear int    // window events in the page after the cursor's, per audit
}

// when picks a fire time at or after now, relative to the cursor's slot.
func (m *nearModel) when() Time {
	rng, e := m.rng, m.e
	base := e.cur >> nearSlotShift << nearSlotShift
	var w uint64
	switch rng.Intn(6) {
	case 0, 1: // the window's last slot, or the first one past it
		k := 63 + uint64(rng.Intn(2))
		w = base + k<<nearSlotShift + uint64(rng.Intn(1<<nearSlotShift))
		if w >= uint64(e.now) {
			m.edge[k-63]++
		}
	case 2: // either side of the cursor's next page boundary
		w = (e.cur>>nearBits+1)<<nearBits + uint64(rng.Intn(256)) - 128
	case 3: // within two pages
		w = uint64(e.now) + uint64(rng.Intn(2<<nearBits))
	case 4: // same instant or nearly
		w = uint64(e.now) + uint64(rng.Intn(3))
	default: // anywhere on the first two wheel levels
		w = uint64(e.now) + uint64(rng.Intn(1<<(nearBits+2*levelBits)))
	}
	return max(Time(w), e.now)
}

func (m *nearModel) op() {
	rng, e := m.rng, m.e
	switch r := rng.Intn(10); {
	case r < 5:
		id := m.ord
		when := m.when()
		m.ref = append(m.ref, refEntry{when: when, ord: m.ord, id: id})
		m.ord++
		m.live = append(m.live, e.AtArg(when, func(any) { m.onFire(id) }, nil))
	case r < 7 && len(m.ref) > 0:
		i := rng.Intn(len(m.ref))
		if !m.live[i].Cancel() {
			m.t.Errorf("seed %d: Cancel failed for pending event %d", m.seed, m.ref[i].id)
		}
		m.drop(i)
	default:
		from := e.cur >> nearSlotShift & (nearSlots - 1)
		if e.Step() && e.cur>>nearSlotShift&(nearSlots-1) < from {
			m.wraps++
		}
	}
	m.audit()
}

// onFire checks that id is the reference's earliest entry and drops it.
func (m *nearModel) onFire(id int) {
	m.fired++
	if len(m.ref) == 0 {
		m.t.Fatalf("seed %d: fired event %d with the reference empty", m.seed, id)
	}
	best := 0
	for i, r := range m.ref {
		if r.when < m.ref[best].when || r.when == m.ref[best].when && r.ord < m.ref[best].ord {
			best = i
		}
	}
	if m.ref[best].id != id || m.ref[best].when != m.e.Now() {
		m.t.Fatalf("seed %d: fired event %d at %d, reference expects %+v", m.seed, id, m.e.Now(), m.ref[best])
	}
	m.drop(best)
}

func (m *nearModel) drop(i int) {
	m.ref = append(m.ref[:i], m.ref[i+1:]...)
	m.live = append(m.live[:i], m.live[i+1:]...)
}

func (m *nearModel) audit() {
	m.cur = m.e.AuditIntegrity(m.a, m.cur)
	if vs := m.a.Violations(); len(vs) != 0 {
		m.t.Fatalf("seed %d: integrity audit: %v", m.seed, vs)
	}
	page := m.e.cur >> nearBits
	m.e.near.each(m.e.cur, func(ev *event) {
		if uint64(ev.when)>>nearBits != page {
			m.inNear++
		}
	})
}

// TestNearWindowMatchesReferenceModel: the sliding near window, its
// rotated minimum and the wheel's cascades decide nothing but placement —
// under random schedules, cancels and steps the engine fires exactly the
// reference's (when, schedule order) sequence, with a clean structural
// audit after every operation. The counters prove the edges were
// exercised: events 63 and 64 slots ahead, cursor slots wrapping past 63,
// and window events lying in the page after the cursor's.
func TestNearWindowMatchesReferenceModel(t *testing.T) {
	var total nearModel
	for seed := uint64(1); seed <= 30; seed++ {
		m := &nearModel{t: t, seed: seed, rng: NewRand(seed, "near-prop"), e: NewEngine(), a: audit.New()}
		for i := 0; i < 1500; i++ {
			m.op()
		}
		for m.e.Step() {
			m.audit()
		}
		if len(m.ref) != 0 {
			t.Fatalf("seed %d: %d reference events never fired", seed, len(m.ref))
		}
		total.fired += m.fired
		total.edge[0] += m.edge[0]
		total.edge[1] += m.edge[1]
		total.wraps += m.wraps
		total.inNear += m.inNear
	}
	t.Logf("fired %d; scheduled 63 slots ahead %d, 64 ahead %d; cursor slot wraps %d; next-page window events seen %d",
		total.fired, total.edge[0], total.edge[1], total.wraps, total.inNear)
	if total.edge[0] == 0 || total.edge[1] == 0 || total.wraps == 0 || total.inNear == 0 {
		t.Fatal("the stream missed a window edge it exists to exercise")
	}
}
