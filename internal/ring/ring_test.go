package ring

import (
	"sync"
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
