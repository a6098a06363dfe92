package app

import (
	"math/bits"

	"ncap/internal/netsim"
)

// servedMemory is the server transport's duplicate-request memory: which
// requests are in flight, and the response size of the last window
// requests first served. It keeps one ring per request source, indexed
// by the low bits of the request id — a client's sequence number — so a
// request's record lives in one slot and is found without hashing the id.
//
// A served record is live while fewer than window later first serves
// have happened (across all sources): exactly a FIFO of the last window
// requests served, evicted oldest first. An in-flight record is live
// until it is served or dropped. Live records of one source hold distinct
// slots; a record that would land on another live one doubles that
// source's ring.
type servedMemory struct {
	window uint64
	serves uint64 // first serves so far; a record's idx is its position
	rings  map[netsim.Addr]*servedRing
}

// servedRing is one source's ring, its length a power of two. A client
// that fans its requests across k servers shows each of them every kth
// sequence number, so the ids one server sees from it share their low
// log2(k) bits when k is a power of two. The ring skips the low bits
// every id seen so far shares with the first: it indexes by id >> shift,
// which steps by k's odd part, so live records spread over the ring as a
// dense source's do instead of needing k times the slots.
type servedRing struct {
	slots []servedEntry
	first uint64 // the first id seen from this source
	shift int    // trailing bits every id seen so far shares with first
}

// servedEntry is one ring slot.
type servedEntry struct {
	id   uint64
	idx  uint64 // serve index of the request's first serve; 0 while in flight
	body int32  // response bytes of a served record (traces cap them at 2^26)
	held bool   // the slot holds id; false for a slot never used or dropped
}

// initialServedRing is a source ring's starting length, a power of two.
const initialServedRing = 8

// dupDecision is what the server does with an arriving request.
type dupDecision uint8

const (
	dupAdmit    dupDecision = iota // new (or forgotten): serve it
	dupSuppress                    // in flight: its response is on the way
	dupResend                      // recently served: resend the stored response
)

func newServedMemory(window int) *servedMemory {
	return &servedMemory{window: uint64(window), rings: map[netsim.Addr]*servedRing{}}
}

// claim decides an arriving request. An admitted request is recorded as
// in flight; a resend returns the stored response size.
func (m *servedMemory) claim(src netsim.Addr, id uint64) (dupDecision, int) {
	e := m.slot(src, id)
	if m.live(e) {
		if e.idx == 0 {
			return dupSuppress, 0
		}
		return dupResend, int(e.body)
	}
	*e = servedEntry{id: id, held: true}
	return dupAdmit, 0
}

// serve records a request's response. A live served record keeps its
// place in the FIFO and takes the new size; anything else is a first
// serve, which ages every other served record by one.
func (m *servedMemory) serve(src netsim.Addr, id uint64, body int) {
	e := m.slot(src, id)
	if m.live(e) && e.idx != 0 {
		e.body = int32(body)
		return
	}
	m.serves++
	*e = servedEntry{id: id, idx: m.serves, body: int32(body), held: true}
}

// drop forgets a request's in-flight claim (a rejected or shed request:
// its retry must be admitted afresh). A served record is kept.
func (m *servedMemory) drop(src netsim.Addr, id uint64) {
	r := m.rings[src]
	if r == nil {
		return
	}
	if e := r.at(id); e.held && e.id == id && e.idx == 0 {
		e.held = false
	}
}

// Len returns the number of live served records.
func (m *servedMemory) Len() int { return int(min(m.serves, m.window)) }

// live reports whether e holds a request the memory still knows.
func (m *servedMemory) live(e *servedEntry) bool {
	return e.held && (e.idx == 0 || m.serves-e.idx < m.window)
}

// slot returns id's slot in src's ring, doubling the ring while that slot
// holds a different live request. The result holds id or nothing live.
func (m *servedMemory) slot(src netsim.Addr, id uint64) *servedEntry {
	r := m.rings[src]
	if r == nil {
		r = &servedRing{slots: make([]servedEntry, initialServedRing), first: id, shift: 64}
		m.rings[src] = r
	}
	if tz := bits.TrailingZeros64(id ^ r.first); tz < r.shift {
		r.shift = tz
		m.resize(r, len(r.slots))
	}
	for {
		e := r.at(id)
		if e.id == id || !m.live(e) {
			return e
		}
		m.resize(r, 2*len(r.slots))
	}
}

// at returns the slot id indexes.
func (r *servedRing) at(id uint64) *servedEntry {
	return &r.slots[(id>>r.shift)&uint64(len(r.slots)-1)]
}

// resize rebuilds r with n slots, keeping only its live records and
// doubling n until no two of them share a slot. A grow never collides:
// records in distinct slots modulo the old length are distinct modulo the
// new one. A lower shift can make two records collide.
func (m *servedMemory) resize(r *servedRing, n int) {
	old := r.slots
rebuild:
	for ; ; n *= 2 {
		r.slots = make([]servedEntry, n)
		for i := range old {
			if e := &old[i]; m.live(e) {
				d := r.at(e.id)
				if d.held {
					continue rebuild
				}
				*d = *e
			}
		}
		return
	}
}
