package heapx

import (
	"math/rand"
	"sort"
	"testing"
)

func TestHeapOrdering(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	h := New(func(a, b *int64) bool { return *a < *b })
	want := make([]int64, 2000)
	for i := range want {
		want[i] = int64(rng.Intn(500)) // plenty of duplicates
		h.Push(want[i])
	}
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	for i, w := range want {
		if h.Peek() != w {
			t.Fatalf("peek %d: got %d want %d", i, h.Peek(), w)
		}
		if got := h.Pop(); got != w {
			t.Fatalf("pop %d: got %d want %d", i, got, w)
		}
	}
	if h.Len() != 0 {
		t.Fatalf("len = %d after draining", h.Len())
	}
}

func TestHeapReplaceTopAndFixTop(t *testing.T) {
	h := New(func(a, b *int) bool { return *a < *b })
	for _, v := range []int{5, 1, 9, 3, 7} {
		h.Push(v)
	}
	*h.Top() = 8 // 1 -> 8
	h.FixTop()
	if h.Peek() != 3 {
		t.Fatalf("peek after replacing the top = %d, want 3", h.Peek())
	}
	*h.Top() = 100
	h.FixTop()
	if h.Peek() != 5 {
		t.Fatalf("peek after FixTop = %d, want 5", h.Peek())
	}
	got := []int{}
	for h.Len() > 0 {
		got = append(got, h.Pop())
	}
	if !sort.IntsAreSorted(got) {
		t.Fatalf("drain not sorted: %v", got)
	}
}

func TestHeapStructElements(t *testing.T) {
	type item struct {
		key, seq int64
	}
	h := New(func(a, b *item) bool {
		if a.key != b.key {
			return a.key < b.key
		}
		return a.seq < b.seq
	})
	for i, k := range []int64{3, 1, 3, 2, 1} {
		h.Push(item{key: k, seq: int64(i)})
	}
	var prev item
	for i := 0; h.Len() > 0; i++ {
		cur := h.Pop()
		if i > 0 && (cur.key < prev.key || (cur.key == prev.key && cur.seq < prev.seq)) {
			t.Fatalf("out of order: %+v after %+v", cur, prev)
		}
		prev = cur
	}
}

// TestHeapMixedOpsAgainstReference drives Push, Pop, a replaced top and
// Top+FixTop at random over wide elements with heavy key ties and
// checks every minimum against a sorted reference multiset.
func TestHeapMixedOpsAgainstReference(t *testing.T) {
	type wide struct {
		key, seq int64
		pad      [4]int64 // a session cursor's width
	}
	less := func(a, b *wide) bool {
		if a.key != b.key {
			return a.key < b.key
		}
		return a.seq < b.seq
	}
	rng := rand.New(rand.NewSource(16))
	h := New(less)
	var ref []wide
	insert := func(v wide) {
		i := sort.Search(len(ref), func(i int) bool { return less(&v, &ref[i]) })
		ref = append(ref, wide{})
		copy(ref[i+1:], ref[i:])
		ref[i] = v
	}
	var seq int64
	next := func() wide {
		seq++
		return wide{key: int64(rng.Intn(40)), seq: seq, pad: [4]int64{seq, -seq, seq, -seq}}
	}
	for step := 0; step < 20_000; step++ {
		switch op := rng.Intn(10); {
		case op < 4 || h.Len() == 0:
			v := next()
			h.Push(v)
			insert(v)
		case op < 6:
			if got := h.Pop(); got != ref[0] {
				t.Fatalf("step %d: Pop = %+v, reference minimum %+v", step, got, ref[0])
			}
			ref = ref[1:]
		case op < 8:
			v := next()
			*h.Top() = v
			h.FixTop()
			ref = ref[1:]
			insert(v)
		default: // advance the minimum in place, as the session cursors do
			top := h.Top()
			top.key += int64(rng.Intn(5))
			v := *top
			h.FixTop()
			ref = ref[1:]
			insert(v)
		}
		if h.Len() != len(ref) {
			t.Fatalf("step %d: Len = %d, reference holds %d", step, h.Len(), len(ref))
		}
		if h.Len() > 0 && h.Peek() != ref[0] {
			t.Fatalf("step %d: Peek = %+v, reference minimum %+v", step, h.Peek(), ref[0])
		}
	}
}

// TestHeapSiftsAllocateNothingAndHoldNothing: handing less the address
// of the element being placed must not cost a heap escape per call,
// and the holding slot must not keep a popped element reachable.
func TestHeapSiftsAllocateNothingAndHoldNothing(t *testing.T) {
	type ref struct {
		key int
		p   *int
	}
	h := New(func(a, b *ref) bool { return a.key < b.key })
	for i := 0; i < 64; i++ {
		h.Push(ref{key: i * 7 % 64, p: new(int)})
	}
	if n := testing.AllocsPerRun(200, func() {
		top := h.Pop()
		top.key += 64
		h.Push(top)
		h.Top().key += 3
		h.FixTop()
	}); n != 0 {
		t.Errorf("Pop+Push+FixTop allocates %v/op, want 0", n)
	}
	for h.Len() > 0 {
		h.Pop()
		if h.placing.p != nil {
			t.Fatal("holding slot keeps a reference after the sift")
		}
	}
}
