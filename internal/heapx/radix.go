package heapx

import "math/bits"

// Radix is a monotone priority queue of (key, value) items: the radix
// heap of Ahuja, Mehlhorn, Orlin & Tarjan, "Faster algorithms for the
// shortest path problem" (JACM 37(2), 1990). It serves callers whose
// keys never fall below the last key popped — a queue of future events
// released in time order — and trades that precondition for pops that
// compare nothing but bucket minima: an item sits in the bucket named
// by the highest bit in which its key differs from the last key popped
// (bucket 0: no bit), so a push links it into one list, and a pop that
// finds bucket 0 empty moves the lowest non-empty bucket's items into
// lower buckets around that bucket's minimum, which becomes the new
// last key.
// An item moves down at most 64 times in its life, whatever the queue
// holds.
//
// Items with equal keys pop in no particular order; a caller that
// needs an order among them packs a tie-breaker into the key. The zero
// value is an empty queue whose last key is 0.
type Radix struct {
	last  uint64
	n     int
	full  uint64      // bit b-1 is set while bucket b (1..64) holds an item
	min   [65]uint64  // min[b] is bucket b's least key while it holds one
	head  [65]int32   // 1 + the index in items of bucket b's first item; 0 when it is empty
	items []radixItem // every item queued or freed, each in one list
	free  int32       // 1 + the index of the first free item; 0 when none is free
}

// radixItem is one item: 16 bytes whatever the caller stores beside its
// key. The buckets and the free list are lists threaded through the one
// items slice, so a queue holds as many items as it ever held at once,
// and a redistribution relinks items instead of copying them.
type radixItem struct {
	key  uint64
	val  int32
	next int32 // 1 + the index of the next item in its list; 0 ends it
}

// Len returns the number of items queued.
func (r *Radix) Len() int { return r.n }

// Push queues val under key. key must be at least the last key popped:
// a smaller one is a caller's bug, and Push panics on it rather than
// let the queue misorder.
//
//lsm:hotpath
func (r *Radix) Push(key uint64, val int32) {
	if key < r.last {
		panic("heapx: Radix.Push of a key below the last key popped")
	}
	i := r.free
	if i != 0 {
		r.free = r.items[i-1].next
	} else {
		r.items = append(r.items, radixItem{})
		i = int32(len(r.items))
	}
	r.items[i-1].key, r.items[i-1].val = key, val
	r.link(i)
	r.n++
}

// link files item i under the bucket its key names relative to last.
//
//lsm:hotpath
func (r *Radix) link(i int32) {
	it := &r.items[i-1]
	b := bits.Len64(it.key ^ r.last)
	if r.head[b] == 0 || it.key < r.min[b] {
		r.min[b] = it.key
	}
	if b > 0 {
		r.full |= 1 << (b - 1)
	}
	it.next = r.head[b]
	r.head[b] = i
}

// PopAtMost removes and returns the item with the least key if that key
// is at most limit; ok is false, and the queue is left as it was, when
// the queue is empty or its least key is above limit. Looking at the
// least key moves nothing: the queue re-bases on a key only when it
// pops it, so a caller may go on pushing keys between the last key
// popped and the least key queued.
//
//lsm:hotpath
func (r *Radix) PopAtMost(limit uint64) (key uint64, val int32, ok bool) {
	if r.head[0] == 0 {
		if r.full == 0 {
			return 0, 0, false
		}
		b := bits.TrailingZeros64(r.full) + 1
		if r.min[b] > limit {
			return 0, 0, false
		}
		r.rebase(b)
	} else if r.last > limit {
		return 0, 0, false
	}
	i := r.head[0]
	it := &r.items[i-1]
	r.head[0], it.next, r.free = it.next, r.free, i
	r.n--
	return it.key, it.val, true
}

// rebase makes bucket b's minimum the last key and moves b's items into
// the buckets they name relative to it. Every one of them agrees with
// the new last key above bit b-1, so each lands below b, the minimum
// itself in bucket 0.
//
//lsm:hotpath
func (r *Radix) rebase(b int) {
	r.last = r.min[b]
	i := r.head[b]
	r.head[b] = 0
	r.full &^= 1 << (b - 1)
	for i != 0 {
		next := r.items[i-1].next
		r.link(i)
		i = next
	}
}
