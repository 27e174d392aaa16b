package ring

import (
	"fmt"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestSPSCFIFO(t *testing.T) {
	r := NewSPSC[int](8, NewGate(), NewGate())
	if len(r.buf) != 8 {
		t.Fatalf("cap = %d, want 8", len(r.buf))
	}
	for i := 0; i < 8; i++ {
		if !r.TryPush(i) {
			t.Fatalf("push %d failed on non-full ring", i)
		}
	}
	if r.TryPush(99) {
		t.Fatal("push succeeded on full ring")
	}
	for i := 0; i < 8; i++ {
		v, ok := r.TryPop()
		if !ok || v != i {
			t.Fatalf("pop = (%d, %v), want (%d, true)", v, ok, i)
		}
	}
	if _, ok := r.TryPop(); ok {
		t.Fatal("pop succeeded on empty ring")
	}
}

func TestSPSCCapacityRounding(t *testing.T) {
	for _, tc := range []struct{ ask, want int }{{1, 1}, {2, 2}, {3, 4}, {5, 8}, {512, 512}, {513, 1024}} {
		if got := len(NewSPSC[byte](tc.ask, NewGate(), NewGate()).buf); got != tc.want {
			t.Errorf("capacity %d rounded to %d, want %d", tc.ask, got, tc.want)
		}
	}
}

// TestSPSCBlockingStress drives a full producer/consumer pair through a
// tiny ring so both park/wake slow paths run constantly; under -race
// this also proves the slot handoff is properly synchronized.
func TestSPSCBlockingStress(t *testing.T) {
	const n = 200_000
	r := NewSPSC[int](4, NewGate(), NewGate())
	done := make(chan error, 1)
	go func() {
		for i := 0; i < n; i++ {
			if !r.Push(i, nil) {
				done <- errAt("push aborted", i)
				return
			}
		}
		r.Close()
		done <- nil
	}()
	for i := 0; i < n; i++ {
		v, ok := r.Pop(nil)
		if !ok {
			t.Fatalf("pop %d: ring reported done early", i)
		}
		if v != i {
			t.Fatalf("pop %d = %d, out of order", i, v)
		}
	}
	if _, ok := r.Pop(nil); ok {
		t.Fatal("pop succeeded after the producer's final item")
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if !r.Done() {
		t.Fatal("ring not done after close and drain")
	}
}

func errAt(msg string, i int) error {
	return &indexedErr{msg: msg, i: i}
}

type indexedErr struct {
	msg string
	i   int
}

func (e *indexedErr) Error() string { return e.msg }

// TestSPSCAbort: both sides must return promptly when the abort channel
// closes while they are parked.
func TestSPSCAbort(t *testing.T) {
	abort := make(chan struct{})
	full := NewSPSC[int](1, NewGate(), NewGate())
	full.TryPush(1)
	empty := NewSPSC[int](1, NewGate(), NewGate())

	var wg sync.WaitGroup
	wg.Add(2)
	results := make(chan bool, 2)
	go func() { defer wg.Done(); results <- full.Push(2, abort) }()
	go func() { defer wg.Done(); _, ok := empty.Pop(abort); results <- ok }()
	time.Sleep(10 * time.Millisecond) // let both park
	close(abort)
	waited := make(chan struct{})
	go func() { wg.Wait(); close(waited) }()
	select {
	case <-waited:
	case <-time.After(5 * time.Second):
		t.Fatal("parked ring operations did not observe the abort")
	}
	for i := 0; i < 2; i++ {
		if <-results {
			t.Fatal("aborted operation reported success")
		}
	}
}

// TestSPSCCloseWakesConsumer: a consumer parked on an empty ring must
// observe a close without any further push.
func TestSPSCCloseWakesConsumer(t *testing.T) {
	r := NewSPSC[int](4, NewGate(), NewGate())
	done := make(chan bool, 1)
	go func() {
		_, ok := r.Pop(nil)
		done <- ok
	}()
	time.Sleep(10 * time.Millisecond)
	r.Close()
	select {
	case ok := <-done:
		if ok {
			t.Fatal("pop on closed empty ring returned an item")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("close did not wake the parked consumer")
	}
}

// TestSPSCSharedConsumerGate: one consumer multiplexes several rings through a single shared gate, re-scanning
// on every wake. All items from all producers must arrive.
func TestSPSCSharedConsumerGate(t *testing.T) {
	const lanes = 4
	const perLane = 50_000
	shared := NewGate()
	rings := make([]*SPSC[int], lanes)
	for k := range rings {
		rings[k] = NewSPSC[int](8, NewGate(), shared)
	}
	for k := range rings {
		go func(k int) {
			for i := 0; i < perLane; i++ {
				rings[k].Push(k*perLane+i, nil)
			}
			rings[k].Close()
		}(k)
	}

	// Done rings are recorded once and then skipped — a ring that stays Done must not
	// count as fresh work in the park re-check, or the consumer would
	// busy-spin (and starve the producers) from the moment the first
	// producer finishes.
	seen := 0
	done := make([]bool, lanes)
	remaining := lanes
	deadline := time.After(60 * time.Second)
	for remaining > 0 {
		progress := false
		for k, r := range rings {
			if done[k] {
				continue
			}
			for {
				_, ok := r.TryPop()
				if !ok {
					break
				}
				seen++
				progress = true
			}
			if r.Done() {
				done[k] = true
				remaining--
				progress = true
			}
		}
		if remaining > 0 && !progress {
			shared.Prepare()
			again := false
			for k, r := range rings {
				if done[k] {
					continue
				}
				if _, ok := r.Peek(); ok || r.Done() {
					again = true
					break
				}
			}
			if again {
				shared.Cancel()
				continue
			}
			select {
			case <-deadline:
				t.Fatalf("multiplexed consumer wedged with %d/%d items", seen, lanes*perLane)
			default:
			}
			shared.Wait(nil)
		}
	}
	if seen != lanes*perLane {
		t.Fatalf("consumed %d items, want %d", seen, lanes*perLane)
	}
}

// TestGateLostWakeupStress hammers the Prepare/re-check/Wait protocol
// from a waker that toggles a shared condition, ensuring no wake is
// ever lost.
func TestGateLostWakeupStress(t *testing.T) {
	g := NewGate()
	r := NewSPSC[int](1, NewGate(), g)
	const n = 100_000
	go func() {
		for i := 0; i < n; i++ {
			r.Push(i, nil)
		}
		r.Close()
	}()
	got := 0
	deadline := time.After(60 * time.Second)
	for {
		if _, ok := r.TryPop(); ok {
			got++
			continue
		}
		if r.Done() {
			break
		}
		g.Prepare()
		if _, ok := r.Peek(); ok || r.closed.Load() {
			g.Cancel()
			continue
		}
		select {
		case <-deadline:
			t.Fatalf("lost wakeup after %d items", got)
		default:
		}
		g.Wait(nil)
	}
	// Drain whatever raced with the close.
	for {
		if _, ok := r.TryPop(); !ok {
			break
		}
		got++
	}
	if got != n {
		t.Fatalf("consumed %d items, want %d", got, n)
	}
}

// TestSPSCMatchesSliceQueue drives one ring from a single goroutine
// through random TryPush, Push, Peek, Advance, TryPop, Pop and Close
// calls and holds every result to a slice queue of the same capacity:
// a push succeeds exactly when the queue has room, a pop or peek yields
// exactly its head, and after Close the ring drains what it holds,
// refuses nothing it holds and reports Done only when empty.
func TestSPSCMatchesSliceQueue(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 0))
	for _, capacity := range []int{1, 2, 3, 8} {
		for round := 0; round < 50; round++ {
			r := NewSPSC[int](capacity, NewGate(), NewGate())
			size := len(r.buf)
			var ref []int // the reference queue
			next, closed := 0, false
			for op := 0; op < 300; op++ {
				switch k := rng.IntN(8); {
				case k <= 1 && !closed: // TryPush
					ok := r.TryPush(next)
					if ok != (len(ref) < size) {
						t.Fatalf("cap %d: TryPush with %d queued = %v", size, len(ref), ok)
					}
					if ok {
						ref = append(ref, next)
						next++
					}
				case k == 2 && !closed && len(ref) < size: // Push with room never parks
					if !r.Push(next, nil) {
						t.Fatal("Push with room reported an abort")
					}
					ref = append(ref, next)
					next++
				case k == 3: // Peek, then Advance
					p, ok := r.Peek()
					if ok != (len(ref) > 0) || ok && *p != ref[0] {
						t.Fatalf("cap %d: Peek = %v with queue %v", size, ok, ref)
					}
					if ok {
						if q, _ := r.Peek(); q != p {
							t.Fatal("a second Peek moved")
						}
						r.Advance()
						ref = ref[1:]
					}
				case k <= 5: // TryPop
					v, ok := r.TryPop()
					if ok != (len(ref) > 0) || ok && v != ref[0] {
						t.Fatalf("cap %d: TryPop = (%d, %v) with queue %v", size, v, ok, ref)
					}
					if ok {
						ref = ref[1:]
					}
				case k == 6 && (len(ref) > 0 || closed): // Pop: an item, or done once closed and drained
					v, ok := r.Pop(nil)
					if ok != (len(ref) > 0) || ok && v != ref[0] {
						t.Fatalf("cap %d: Pop = (%d, %v) with queue %v, closed %v", size, v, ok, ref, closed)
					}
					if ok {
						ref = ref[1:]
					}
				case k == 7 && op > 200 && !closed:
					r.Close()
					closed = true
				}
				if r.Done() != (closed && len(ref) == 0) {
					t.Fatalf("Done = %v with queue %v, closed %v", r.Done(), ref, closed)
				}
			}
		}
	}
}

// TestSPSCModelConcurrent runs the two sides on their own goroutines,
// each choosing its calls at random — the producer TryPush and Push,
// then Close; the consumer TryPop, Pop, and Peek with Advance — and
// holds them to the queue the ring stands for: the consumer receives
// every pushed value once, in push order; a TryPush fails only when
// the values pushed minus those already consumed fill the ring; a
// TryPop or Peek comes back empty only when the consumer has taken
// every value already pushed; and after Close the consumer drains the
// rest and then sees Pop report done, with Done true. Most rounds are
// short, so the last push racing the consumer's look at Close comes up
// often; one is long, so both sides park and wake many times.
func TestSPSCModelConcurrent(t *testing.T) {
	rounds := rand.New(rand.NewPCG(17, 0))
	for round := 0; round < 400; round++ {
		capacity, n := 1+rounds.IntN(4), rounds.IntN(24)
		if round == 0 {
			n = 20_000
		}
		r := NewSPSC[int](capacity, NewGate(), NewGate())
		size := uint64(len(r.buf))
		var pushed, popped atomic.Uint64 // each side's count, published after its call
		errs := make(chan error, 2)
		go func() {
			rng := rand.New(rand.NewPCG(11, uint64(round)))
			for v := 0; v < n; {
				if rng.IntN(2) == 0 {
					seen := popped.Load()
					if !r.TryPush(v) {
						if uint64(v)-seen < size {
							errs <- fmt.Errorf("TryPush failed with %d pushed, at least %d consumed, capacity %d", v, seen, size)
							return
						}
						continue
					}
				} else if !r.Push(v, nil) {
					errs <- fmt.Errorf("Push(%d) reported an abort", v)
					return
				}
				v++
				pushed.Store(uint64(v))
			}
			r.Close()
			errs <- nil
		}()
		go func() {
			rng := rand.New(rand.NewPCG(13, uint64(round)))
			want := 0
			for {
				seen := pushed.Load()
				var v int
				var ok bool
				switch rng.IntN(3) {
				case 0:
					v, ok = r.TryPop()
				case 1:
					if v, ok = r.Pop(nil); !ok {
						if want != n || !r.Done() {
							errs <- fmt.Errorf("Pop reported done after %d of %d values (Done %v)", want, n, r.Done())
							return
						}
						if _, ok := r.TryPop(); ok {
							errs <- fmt.Errorf("TryPop found a value after Pop reported done")
							return
						}
						errs <- nil
						return
					}
				default:
					var p *int
					if p, ok = r.Peek(); ok {
						v = *p
						r.Advance()
					}
				}
				if !ok {
					if uint64(want) < seen {
						errs <- fmt.Errorf("empty with %d pushed and %d consumed", seen, want)
						return
					}
					continue
				}
				if v != want {
					errs <- fmt.Errorf("consumed %d, want %d: lost, duplicated or reordered", v, want)
					return
				}
				want++
				popped.Store(uint64(want))
			}
		}()
		for i := 0; i < 2; i++ {
			select {
			case err := <-errs:
				if err != nil {
					t.Fatalf("round %d, capacity %d, %d values: %v", round, size, n, err)
				}
			case <-time.After(60 * time.Second):
				t.Fatalf("round %d, capacity %d, %d values: the two sides wedged", round, size, n)
			}
		}
	}
}
