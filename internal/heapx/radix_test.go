package heapx

import (
	"encoding/binary"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// radixRef is the sort-based reference a Radix is held to: the queued
// items kept sorted by key, ties in push order.
type radixRef struct{ items []radixItem }

func (r *radixRef) push(key uint64, val int32) {
	i := sort.Search(len(r.items), func(i int) bool { return r.items[i].key > key })
	r.items = append(r.items, radixItem{})
	copy(r.items[i+1:], r.items[i:])
	r.items[i] = radixItem{key: key, val: val}
}

// popAtMost reports the least key if it is at most limit. Equal keys
// may leave a Radix in any order, so the caller removes the value the
// queue popped from among them (take).
func (r *radixRef) popAtMost(limit uint64) (uint64, bool) {
	if len(r.items) == 0 || r.items[0].key > limit {
		return 0, false
	}
	return r.items[0].key, true
}

// take removes the item (key, val); false if the reference holds none.
func (r *radixRef) take(key uint64, val int32) bool {
	for i := 0; i < len(r.items) && r.items[i].key == key; i++ {
		if r.items[i].val == val {
			r.items = append(r.items[:i], r.items[i+1:]...)
			return true
		}
	}
	return false
}

// runRadixOps drives a Radix and the reference with one op per 9 bytes
// of ops: a push of a key at or above the last popped (bytes 1..8 are
// the step above it), or a PopAtMost whose limit is that step above
// the last key popped. It checks every pop, miss and length.
func runRadixOps(t *testing.T, ops []byte) {
	t.Helper()
	var q Radix
	var ref radixRef
	var last uint64
	var val int32
	for len(ops) >= 9 {
		op, arg := ops[0], binary.LittleEndian.Uint64(ops[1:9])
		ops = ops[9:]
		// Narrow the step most of the time, so keys tie and cluster.
		switch op >> 6 {
		case 0:
			arg %= 4
		case 1:
			arg %= 1 << 12
		case 2:
			arg >>= op & 63
		}
		step := min(arg, math.MaxUint64-last)
		if op&1 == 0 {
			q.Push(last+step, val)
			ref.push(last+step, val)
			val++
		} else {
			limit := last + step
			if op&2 != 0 {
				limit = math.MaxUint64
			}
			key, v, ok := q.PopAtMost(limit)
			wantKey, wantOK := ref.popAtMost(limit)
			if ok != wantOK || ok && key != wantKey {
				t.Fatalf("PopAtMost(%d) = (%d, %v), reference (%d, %v)", limit, key, ok, wantKey, wantOK)
			}
			if ok {
				if !ref.take(key, v) {
					t.Fatalf("PopAtMost(%d) popped value %d, never pushed under key %d", limit, v, key)
				}
				last = key
			}
		}
		if q.Len() != len(ref.items) {
			t.Fatalf("Len = %d, reference holds %d", q.Len(), len(ref.items))
		}
	}
	for len(ref.items) > 0 {
		key, v, ok := q.PopAtMost(math.MaxUint64)
		if !ok || key != ref.items[0].key || !ref.take(key, v) {
			t.Fatalf("drain: (%d, %d, %v), reference minimum %d", key, v, ok, ref.items[0].key)
		}
	}
	if _, _, ok := q.PopAtMost(math.MaxUint64); ok || q.Len() != 0 {
		t.Fatalf("drained queue still pops, Len %d", q.Len())
	}
}

// FuzzRadixMatchesSort: any sequence of monotone pushes and PopAtMost
// limits pops the reference's least key each time, misses exactly when
// the reference's least key is above the limit, and pops every value
// pushed under its key once.
func FuzzRadixMatchesSort(f *testing.F) {
	seed := func(ops ...[9]byte) []byte {
		var b []byte
		for _, op := range ops {
			b = append(b, op[:]...)
		}
		return b
	}
	push := func(kind byte, step uint64) [9]byte {
		var op [9]byte
		op[0] = kind << 6
		binary.LittleEndian.PutUint64(op[1:], step)
		return op
	}
	pop := func(kind byte, step uint64, all bool) [9]byte {
		op := push(kind, step)
		op[0] |= 1
		if all {
			op[0] |= 2
		}
		return op
	}
	f.Add(seed(push(0, 3), push(0, 3), pop(0, 2, false), pop(0, 3, false), pop(0, 0, true)))
	f.Add(seed(push(3, math.MaxUint64), push(3, 0), pop(3, 0, false), pop(3, 0, true), push(3, 1<<63), pop(3, 0, true)))
	f.Add(seed(push(1, 5), push(1, 4095), push(1, 17), pop(1, 16, false), push(1, 1), pop(1, 0, true), pop(1, 0, true)))
	rng := rand.New(rand.NewSource(41))
	b := make([]byte, 9*400)
	rng.Read(b)
	f.Add(b)
	f.Fuzz(runRadixOps)
}

// TestRadixMatchesSort replays long random op sequences in each key
// spread, beyond what the fuzz seeds cover in a plain go test.
func TestRadixMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1990))
	for spread := byte(0); spread < 4; spread++ {
		ops := make([]byte, 9*20_000)
		rng.Read(ops)
		for i := 0; i < len(ops); i += 9 {
			ops[i] = spread<<6 | ops[i]&63
		}
		runRadixOps(t, ops)
	}
}

// TestRadixPeekDoesNotRebase: a PopAtMost that misses leaves the last
// key where it was, so a key between it and the least key queued can
// still be pushed and comes out first — the generator shard's pattern
// of opening a session between two cursor releases.
func TestRadixPeekDoesNotRebase(t *testing.T) {
	var q Radix
	q.Push(100, 1)
	q.Push(1000, 2)
	if _, _, ok := q.PopAtMost(99); ok {
		t.Fatal("PopAtMost(99) popped key 100")
	}
	q.Push(50, 3)
	for _, want := range []uint64{50, 100, 1000} {
		if key, _, ok := q.PopAtMost(math.MaxUint64); !ok || key != want {
			t.Fatalf("popped (%d, %v), want %d", key, ok, want)
		}
	}
}

// TestRadixPushBelowLastPanics: a push below the last key popped would
// misorder the queue; it fails loudly instead.
func TestRadixPushBelowLastPanics(t *testing.T) {
	var q Radix
	q.Push(10, 0)
	q.PopAtMost(10)
	defer func() {
		if recover() == nil {
			t.Fatal("Push(9) after popping 10 did not panic")
		}
	}()
	q.Push(9, 1)
}

// TestRadixAllocatesNothingWarm: once its buckets have grown, a queue
// cycling items through allocates nothing.
func TestRadixAllocatesNothingWarm(t *testing.T) {
	var q Radix
	var key uint64
	cycle := func() {
		for i := 0; i < 64; i++ {
			q.Push(key+uint64(i*i*977), int32(i))
		}
		for q.Len() > 0 {
			key, _, _ = q.PopAtMost(math.MaxUint64)
		}
	}
	cycle()
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		t.Errorf("a warm push/pop cycle allocates %v times, want 0", n)
	}
}
