package ring

import "sync/atomic"

// SPSC is a bounded single-producer single-consumer ring buffer. One
// goroutine pushes, one goroutine pops; the two sides synchronize only
// through the head/tail indices, so the fast path of either operation
// is a slot copy plus one atomic store — no lock, no channel, no
// allocation. Capacities are rounded up to a power of two.
//
// Both sides keep a cached copy of the opposite index (headCache /
// tailCache) so the common case reads one shared cache line instead of
// two: the producer re-reads head only when the ring looks full, the
// consumer re-reads tail only when it looks empty — the classic
// Lamport ring refinement.
//
// Blocking Push/Pop park on the ring's gates (see Gate) and honor an
// abort channel, so a stalled peer never wedges the caller. Close is
// the producer's end-of-stream signal: after Close, Pop drains the
// remaining items and then reports done.
type SPSC[T any] struct {
	buf  []T
	mask uint64

	// Consumer-owned line: head plus the consumer's cache of tail.
	_         [64]byte
	head      atomic.Uint64 // next index to pop
	tailCache uint64

	// Producer-owned line: tail plus the producer's cache of head.
	_         [64]byte
	tail      atomic.Uint64 // next index to push
	headCache uint64

	_      [64]byte
	closed atomic.Bool
	prod   *Gate // producer parks here when full; woken by Advance
	cons   *Gate // consumer parks here when empty; woken by Push/Close
}

// NewSPSC returns an SPSC ring holding at least capacity items
// (rounded up to a power of two). prod is the gate the producer parks
// on when the ring is full; cons the gate the consumer parks on when
// it is empty. A consumer multiplexing several rings may share one
// cons gate across all of them and re-scan on every wake.
func NewSPSC[T any](capacity int, prod, cons *Gate) *SPSC[T] {
	if capacity < 1 {
		capacity = 1
	}
	n := 1
	for n < capacity {
		n <<= 1
	}
	return &SPSC[T]{
		buf:  make([]T, n),
		mask: uint64(n - 1),
		prod: prod,
		cons: cons,
	}
}

// TryPush appends v if the ring has space, reporting whether it did.
// Producer side only.
//
//lsm:hotpath
func (r *SPSC[T]) TryPush(v T) bool {
	t := r.tail.Load()
	if t-r.headCache >= uint64(len(r.buf)) {
		r.headCache = r.head.Load()
		if t-r.headCache >= uint64(len(r.buf)) {
			return false
		}
	}
	r.buf[t&r.mask] = v
	r.tail.Store(t + 1)
	r.cons.Wake()
	return true
}

// Push appends v, parking while the ring is full. It returns false if
// abort is closed while waiting (v is not pushed). Producer side only.
func (r *SPSC[T]) Push(v T, abort <-chan struct{}) bool {
	for {
		if r.TryPush(v) {
			return true
		}
		r.prod.Prepare()
		if r.TryPush(v) {
			r.prod.Cancel()
			return true
		}
		if !r.prod.Wait(abort) {
			return false
		}
	}
}

// Peek returns a pointer to the oldest item without consuming it, or
// (nil, false) when the ring is currently empty. The pointee is valid
// until the matching Advance. Consumer side only.
//
//lsm:hotpath
func (r *SPSC[T]) Peek() (*T, bool) {
	h := r.head.Load()
	if h == r.tailCache {
		r.tailCache = r.tail.Load()
		if h == r.tailCache {
			return nil, false
		}
	}
	return &r.buf[h&r.mask], true
}

// Advance consumes the item Peek returned, releasing its slot (and any
// references it held) back to the producer. Consumer side only.
//
//lsm:hotpath
func (r *SPSC[T]) Advance() {
	h := r.head.Load()
	var zero T
	r.buf[h&r.mask] = zero // drop slot references promptly
	r.head.Store(h + 1)
	r.prod.Wake()
}

// TryPop pops the oldest item if one is available. Consumer side only.
//
//lsm:hotpath
func (r *SPSC[T]) TryPop() (T, bool) {
	p, ok := r.Peek()
	if !ok {
		var zero T
		return zero, false
	}
	v := *p
	r.Advance()
	return v, true
}

// Pop returns the next item, parking while the ring is empty. It
// returns false once the ring is closed and fully drained, or when
// abort is closed while waiting. Consumer side only.
func (r *SPSC[T]) Pop(abort <-chan struct{}) (T, bool) {
	var zero T
	for {
		if v, ok := r.TryPop(); ok {
			return v, true
		}
		if r.closed.Load() {
			// Close happens after the producer's final push; one more
			// look catches an item published just before the close.
			return r.TryPop()
		}
		r.cons.Prepare()
		if v, ok := r.TryPop(); ok {
			r.cons.Cancel()
			return v, true
		}
		if r.closed.Load() {
			r.cons.Cancel()
			return r.TryPop()
		}
		if !r.cons.Wait(abort) {
			return zero, false
		}
	}
}

// Close marks the producer done. Items already in the ring remain
// poppable; Pop reports done once they drain. Producer side only;
// Close must follow the final Push.
func (r *SPSC[T]) Close() {
	r.closed.Store(true)
	r.cons.Wake()
}

// Done reports whether the ring is closed and fully drained — the
// consumer will never see another item.
func (r *SPSC[T]) Done() bool {
	return r.closed.Load() && r.head.Load() == r.tail.Load()
}
