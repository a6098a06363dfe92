package app

import (
	"slices"

	"ncap/internal/netsim"
)

// servedMemory is the server transport's duplicate-request memory: which
// requests are in flight, and the response size of the last window
// requests first served.
//
// A served record is live while fewer than window later first serves
// have happened (across all sources): exactly a FIFO of the last window
// requests served, evicted oldest first. An in-flight record is live
// until it is served or dropped. Decisions consult live records only.
//
// Records live in fixed-size pages, one table of pages per request
// source, indexed by the request's key in its source (see servedSource).
// A page whose records are all dead goes back to a free list shared by
// every source and is reused for whatever key range needs a page next,
// so the memory follows the live set and no record is ever copied to
// make room for another. New pages come from the run's storage.
type servedMemory struct {
	st      *Storage
	window  uint64
	serves  uint64 // first serves so far; a record's idx is its position
	sources map[netsim.Addr]*servedSource
	free    []*servedPage // pages whose records are all dead

	// A page dies only when a first serve ages out its newest record or a
	// drop empties it, so newPage reclaims only once the serves and drops
	// since the last scan number an eighth of the table slots that scan
	// left. A scan then costs O(1) per record while the memory fills, and
	// the pages held exceed the live ones by about an eighth at most.
	drops    uint64 // in-flight claims dropped
	nextScan uint64 // serves+drops from which newPage may reclaim again
}

// servedSource is one source's page table. A client numbers its requests
// with a sequence, and one that fans them across k servers in rotation
// shows each server every kth number, so the ids a server sees from a
// source form a progression first + key·step. step is the gcd of every
// id's distance from first, and a request's key is that distance over
// step: a strided source's records are as dense as a sequential one's.
// An id off the progression lowers step and re-keys the source's records
// (at most once per halving of step, in practice on its first requests).
type servedSource struct {
	first uint64        // the first id seen from this source
	step  int64         // gcd of id − first over every id seen; 0 while only first
	base  int64         // page number of pages[0]
	pages []*servedPage // nil where no page holds records
}

// servedPage holds the records of one aligned range of pageLen keys of a
// source.
type servedPage struct {
	recs     [pageLen]servedRec
	inflight int    // records in flight
	newest   uint64 // the largest serve index any record has had
}

// servedRec is one request's record: 16 bytes.
type servedRec struct {
	idx  uint64 // serve index of the request's first serve; 0 while in flight
	body int32  // response bytes of a served record (traces cap them at 2^26)
	held bool   // the slot holds its request; false for a slot never used or dropped
}

// A page holds pageLen records (512 bytes). Small pages keep the cost of
// a source that a server hears from rarely (a fleet client rotating over
// many servers) at a fraction of a kilobyte; a table entry is 8 bytes per
// page.
const (
	pageBits = 5
	pageLen  = 1 << pageBits
	pageMask = pageLen - 1
)

// dupDecision is what the server does with an arriving request.
type dupDecision uint8

const (
	dupAdmit    dupDecision = iota // new (or forgotten): serve it
	dupSuppress                    // in flight: its response is on the way
	dupResend                      // recently served: resend the stored response
)

func newServedMemory(window int, st *Storage) *servedMemory {
	return &servedMemory{st: st, window: uint64(window), sources: map[netsim.Addr]*servedSource{}}
}

// claim decides an arriving request. An admitted request is recorded as
// in flight; a resend returns the stored response size.
func (m *servedMemory) claim(src netsim.Addr, id uint64) (dupDecision, int) {
	p, e := m.record(src, id)
	if m.live(e) {
		if e.idx == 0 {
			return dupSuppress, 0
		}
		return dupResend, int(e.body)
	}
	*e = servedRec{held: true}
	p.inflight++
	return dupAdmit, 0
}

// serve records a request's response. A live served record keeps its
// place in the FIFO and takes the new size; anything else is a first
// serve, which ages every other served record by one.
func (m *servedMemory) serve(src netsim.Addr, id uint64, body int) {
	p, e := m.record(src, id)
	if m.live(e) {
		if e.idx != 0 {
			e.body = int32(body)
			return
		}
		p.inflight--
	}
	m.serves++
	*e = servedRec{idx: m.serves, body: int32(body), held: true}
	p.newest = m.serves
}

// drop forgets a request's in-flight claim (a rejected or shed request:
// its retry must be admitted afresh). A served record is kept.
func (m *servedMemory) drop(src netsim.Addr, id uint64) {
	r := m.sources[src]
	if r == nil {
		return
	}
	key, ok := r.keyOf(id)
	if !ok {
		return // off the progression: never recorded
	}
	if p, e := m.lookup(r, key); e != nil && e.held && e.idx == 0 {
		e.held = false
		p.inflight--
		m.drops++
	}
}

// Len returns the number of live served records.
func (m *servedMemory) Len() int { return int(min(m.serves, m.window)) }

// slots returns the records the memory's pages hold, free pages included.
func (m *servedMemory) slots() int {
	n := len(m.free)
	for _, r := range m.sources {
		for _, p := range r.pages {
			if p != nil {
				n++
			}
		}
	}
	return n * pageLen
}

// live reports whether e holds a request the memory still knows. A dead
// record stays dead: serves only grows.
func (m *servedMemory) live(e *servedRec) bool {
	return e.held && (e.idx == 0 || m.serves-e.idx < m.window)
}

// dead reports whether every record of p is dead.
func (m *servedMemory) dead(p *servedPage) bool {
	return p.inflight == 0 && (p.newest == 0 || m.serves-p.newest >= m.window)
}

// record returns id's page and slot, giving the source and the page a
// place first if they have none. The slot holds id's record or nothing
// live.
func (m *servedMemory) record(src netsim.Addr, id uint64) (*servedPage, *servedRec) {
	r := m.sources[src]
	if r == nil {
		r = &servedSource{first: id}
		m.sources[src] = r
	}
	key, ok := r.keyOf(id)
	if !ok {
		step := gcd(r.step, int64(id-r.first))
		if r.step != 0 { // with no step yet, first's key 0 is every key
			m.rekey(r, r.step/step)
		}
		r.step = step
		key, _ = r.keyOf(id)
	}
	return m.place(r, key)
}

// place returns key's page and slot in r, giving its range a page if it
// has none.
func (m *servedMemory) place(r *servedSource, key int64) (*servedPage, *servedRec) {
	if p, e := m.lookup(r, key); e != nil {
		return p, e
	}
	p := m.newPage() // may reclaim pages from any table, r's included
	r.pages[r.cover(key>>pageBits)] = p
	return p, &p.recs[key&pageMask]
}

// lookup returns the page and slot of key in r, or nils if no page holds
// its range.
func (m *servedMemory) lookup(r *servedSource, key int64) (*servedPage, *servedRec) {
	i := key>>pageBits - r.base
	if i < 0 || i >= int64(len(r.pages)) || r.pages[i] == nil {
		return nil, nil
	}
	p := r.pages[i]
	return p, &p.recs[key&pageMask]
}

// keyOf returns id's key, or false if id is off r's progression.
func (r *servedSource) keyOf(id uint64) (int64, bool) {
	d := int64(id - r.first)
	switch r.step {
	case 1:
		return d, true
	case 0:
		return 0, d == 0
	}
	k := d / r.step
	return k, k*r.step == d
}

// cover extends r's table to reach page number pn and returns its index.
func (r *servedSource) cover(pn int64) int {
	n := len(r.pages)
	switch {
	case n == 0:
		r.base = pn
		r.pages = append(r.pages, nil)
	case pn < r.base:
		d := int(r.base - pn)
		r.pages = slices.Grow(r.pages, d)[:n+d]
		copy(r.pages[d:], r.pages[:n])
		clear(r.pages[:d])
		r.base = pn
	case pn-r.base >= int64(n):
		grown := int(pn-r.base) + 1
		r.pages = slices.Grow(r.pages, grown-n)[:grown]
		clear(r.pages[n:])
	}
	return int(pn - r.base)
}

// newPage returns a page with no records, reusing a dead page when there
// is one.
func (m *servedMemory) newPage() *servedPage {
	if len(m.free) == 0 && m.serves+m.drops >= m.nextScan {
		m.reclaim()
	}
	n := len(m.free)
	if n == 0 {
		return m.st.page()
	}
	p := m.free[n-1]
	m.free = m.free[:n-1]
	*p = servedPage{}
	return p
}

// reclaim moves every page whose records are all dead to the free list
// and trims each table to the pages it still has.
func (m *servedMemory) reclaim() {
	slots := 0
	for _, r := range m.sources {
		lo, hi := len(r.pages), 0
		for i, p := range r.pages {
			switch {
			case p == nil:
			case m.dead(p):
				m.free = append(m.free, p)
				r.pages[i] = nil
			default:
				lo, hi = min(lo, i), i+1
			}
		}
		if lo >= hi {
			lo, hi = 0, 0
		}
		n := copy(r.pages, r.pages[lo:hi])
		clear(r.pages[n:])
		r.pages = r.pages[:n]
		r.base += int64(lo)
		slots += n
	}
	m.nextScan = m.serves + m.drops + uint64(slots/8) + 1
}

// rekey multiplies every key of r by f, after r's step fell by that
// factor, moving its live records to the pages their new keys index.
// Each old page is freed once its records have moved.
func (m *servedMemory) rekey(r *servedSource, f int64) {
	old, base := r.pages, r.base
	r.pages = nil
	for i, op := range old {
		if op == nil {
			continue
		}
		for j := range op.recs {
			e := &op.recs[j]
			if !m.live(e) {
				continue
			}
			p, d := m.place(r, ((base+int64(i))<<pageBits|int64(j))*f)
			*d = *e
			if e.idx == 0 {
				p.inflight++
			} else {
				p.newest = max(p.newest, e.idx)
			}
		}
		m.free = append(m.free, op)
	}
}

// gcd returns the greatest common divisor of a ≥ 0 and |b|, b ≠ 0.
func gcd(a, b int64) int64 {
	if b < 0 {
		b = -b
	}
	for a != 0 {
		a, b = b%a, a
	}
	return b
}
