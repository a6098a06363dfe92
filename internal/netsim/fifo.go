package netsim

import (
	"sync"

	"ncap/internal/sim"
)

// keyed is one record of a keyedFIFO: an engine key and its payload.
type keyed[T any] struct {
	key sim.Key
	val T
}

// fifoChunk is one fixed-size block of a keyedFIFO.
type fifoChunk[T any] struct {
	recs [32]keyed[T]
	next *fifoChunk[T]
}

// keyedFIFO is a queue of keyed records in key order, held in chunks of 32
// from head.recs[headIdx] to tail.recs[tailIdx-1]. Chunks come from the
// FIFO's pool and go back once drained, except the last: a FIFO keeps it
// when it empties, so a link that goes quiet and busy again does not touch
// the pool. Every link's FIFOs of one record type share a pool, so the
// memory a burst needs is shared too, instead of each link keeping its own
// peak.
type keyedFIFO[T any] struct {
	head, tail       *fifoChunk[T]
	headIdx, tailIdx int
	pool             *chunkPool[T]
}

// chunkPool holds the drained chunks of one record type. A pool per type
// keeps Get from handing a FIFO a chunk it cannot use.
type chunkPool[T any] struct{ sync.Pool }

var (
	completionChunks chunkPool[int]
	arrivalChunks    chunkPool[*Packet]
)

// get takes a drained chunk from the pool, or allocates one.
func (p *chunkPool[T]) get() *fifoChunk[T] {
	if c, ok := p.Get().(*fifoChunk[T]); ok {
		return c
	}
	return new(fifoChunk[T])
}

// empty reports whether the FIFO holds no records.
func (q *keyedFIFO[T]) empty() bool { return q.head == q.tail && q.headIdx == q.tailIdx }

// front returns the oldest record; the FIFO must not be empty.
func (q *keyedFIFO[T]) front() *keyed[T] { return &q.head.recs[q.headIdx] }

// back returns the newest record; the FIFO must not be empty.
func (q *keyedFIFO[T]) back() *keyed[T] { return &q.tail.recs[q.tailIdx-1] }

// push appends a record.
func (q *keyedFIFO[T]) push(k sim.Key, v T) {
	if q.tail == nil || q.tailIdx == len(q.tail.recs) {
		q.grow()
	}
	q.tail.recs[q.tailIdx] = keyed[T]{k, v}
	q.tailIdx++
}

// grow appends a chunk from the pool.
func (q *keyedFIFO[T]) grow() {
	c := q.pool.get()
	if q.tail == nil {
		q.head = c
	} else {
		q.tail.next = c
	}
	q.tail, q.tailIdx = c, 0
}

// pop removes the oldest record; the FIFO must not be empty. The record's
// payload stays in the chunk until overwritten, so a caller whose payload
// is a pointer clears it first.
func (q *keyedFIFO[T]) pop() {
	if q.headIdx++; q.headIdx == q.tailIdx || q.headIdx == len(q.head.recs) {
		q.advance()
	}
}

// advance runs when pop reaches the tail's index or the end of the head
// chunk. An empty FIFO keeps its last chunk and refills it from the
// start; a drained head chunk goes back to the pool.
func (q *keyedFIFO[T]) advance() {
	switch c := q.head; {
	case c == q.tail: // then headIdx == tailIdx: empty
		q.headIdx, q.tailIdx = 0, 0
	case q.headIdx == len(c.recs):
		q.head, q.headIdx = c.next, 0
		c.next = nil
		q.pool.Put(c)
	}
}
