// Package heapx holds the priority queues the pipeline's hot paths
// share instead of hand-rolling sift loops.
//
// Heap is a generic binary min-heap ordered by a caller's less, which
// asks nothing of the order of pushes: the active transfer ends of the
// simulator's far window and of the online concurrency estimator.
// Unlike container/heap there is no interface indirection, and FixTop
// supports the mutate-the-minimum pattern without a pop/push pair.
//
// Radix is a monotone radix heap over uint64 keys, for queues where no
// key pushed is below the last key popped: the generator shards'
// session cursors and the serve emitter's log reorder buffer, each with
// a key packed so that every key is unique.
package heapx

// Heap is a binary min-heap ordered by less. The zero value with a
// non-nil less (use New) is ready to use.
//
// less takes pointers into the heap's own storage, so a comparison
// copies no element whatever its size, and the sift loops move the
// element being placed once — into the hole its smaller children or
// larger parents leave — instead of swapping it level by level: a wide
// element costs one copy per level, not three. less must not retain or mutate its arguments.
type Heap[T any] struct {
	items []T
	less  func(a, b *T) bool
	// placing holds the element a sift is placing, so less can be
	// handed its address without a per-call heap escape.
	placing T
}

// New returns an empty heap ordered by less.
func New[T any](less func(a, b *T) bool) Heap[T] {
	return Heap[T]{less: less}
}

// Len returns the number of elements.
func (h *Heap[T]) Len() int { return len(h.items) }

// Peek returns the minimum element. It panics on an empty heap.
func (h *Heap[T]) Peek() T { return h.items[0] }

// Push adds v.
//
//lsm:hotpath
func (h *Heap[T]) Push(v T) {
	h.items = append(h.items, v)
	items := h.items
	i := len(items) - 1
	h.placing = v
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(&h.placing, &items[parent]) {
			break
		}
		items[i] = items[parent]
		i = parent
	}
	h.place(i)
}

// Pop removes and returns the minimum element. It panics on an empty
// heap.
//
//lsm:hotpath
func (h *Heap[T]) Pop() T {
	top := h.items[0]
	n := len(h.items) - 1
	h.items[0] = h.items[n]
	var zero T
	h.items[n] = zero // release references held by the slot
	h.items = h.items[:n]
	h.siftDown()
	return top
}

// FixTop restores heap order after the caller mutated the minimum
// element in place (e.g. advanced a cursor).
//
//lsm:keep -- the heapx tests; no program mutates its top in place
func (h *Heap[T]) FixTop() { h.siftDown() }

// Top returns a pointer to the minimum element for in-place mutation;
// call FixTop afterwards. It panics on an empty heap.
//
//lsm:keep -- the heapx tests, as FixTop
func (h *Heap[T]) Top() *T { return &h.items[0] }

// siftDown places items[0]: each level's smaller child moves up into
// the hole until the element fits. The comparisons — and so the final
// layout — are those of a swap-per-level sift.
//
//lsm:hotpath
func (h *Heap[T]) siftDown() {
	items := h.items
	n := len(items)
	if n < 2 {
		return
	}
	h.placing = items[0]
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && h.less(&items[r], &items[c]) {
			c = r
		}
		if !h.less(&items[c], &h.placing) {
			break
		}
		items[i] = items[c]
		i = c
	}
	h.place(i)
}

// place drops the element being placed into the hole at i and clears
// the holding slot, so the heap keeps no reference beyond its items.
func (h *Heap[T]) place(i int) {
	h.items[i] = h.placing
	var zero T
	h.placing = zero
}
