package scenario

import (
	"errors"
	"math"

	"repro/internal/heapx"
	"repro/internal/workload"
)

// Warp is a monotone non-decreasing mapping of trace time. TimeWarp
// applies it to event start instants; monotonicity is what keeps the
// warped stream totally ordered with a bounded reorder buffer.
type Warp func(int64) int64

// TimeWarp remaps event start times through f, reshaping arrival
// density — diurnal shift, slow-motion, compression — while leaving
// durations (viewer behavior) untouched.
//
// A monotone warp preserves the Start order but can collapse distinct
// input instants onto one output second, and events tied on Start must
// still come out in ascending (Session, Seq) order — which the input
// does not guarantee across different original instants. The stream
// therefore holds warped events in a small reorder heap and releases
// one only when every event still inside the source maps strictly
// later. The buffer's size is bounded by the number of events the warp
// maps to a single output second.
func TimeWarp(f Warp) (Transform, error) {
	if f == nil {
		return nil, errors.Join(ErrBadScenario, errors.New("nil warp"))
	}
	return func(s workload.Stream) workload.Stream {
		return &warpStream{
			inner: s,
			f:     f,
			h:     heapx.New(func(a, b *workload.Event) bool { return a.Less(*b) }),
		}
	}, nil
}

type warpStream struct {
	inner workload.Stream
	f     Warp
	h     heapx.Heap[workload.Event]
	done  bool
	bound int64 // f(latest input Start): no future output can precede it
}

func (w *warpStream) Next() (workload.Event, bool) {
	for {
		if w.h.Len() > 0 && (w.done || w.h.Peek().Start < w.bound) {
			return w.h.Pop(), true
		}
		if w.done {
			return workload.Event{}, false
		}
		e, ok := w.inner.Next()
		if !ok {
			w.done = true
			continue
		}
		warped := w.f(e.Start)
		if warped < w.bound {
			// Non-monotone warp: clamp rather than emit out of order.
			warped = w.bound
		}
		w.bound = warped
		e.Start = warped
		w.h.Push(e)
	}
}

func (w *warpStream) Close() { workload.CloseStream(w.inner) }

// SpeedUp builds a warp that compresses trace time by factor (>1 packs
// the same events into less time, raising arrival intensity; <1
// stretches it).
func SpeedUp(factor float64) (Warp, error) {
	if factor <= 0 || math.IsNaN(factor) || math.IsInf(factor, 0) {
		return nil, errors.Join(ErrBadScenario, errors.New("speedup factor must be positive and finite"))
	}
	return func(t int64) int64 {
		return int64(float64(t) / factor)
	}, nil
}

// Diurnal builds a warp that reshapes arrival density sinusoidally with
// the given period: instantaneous rate is multiplied by
// 1 + amplitude*sin(2πt/period), amplitude in [0,1). The warp is the
// integral of that intensity, so it is monotone and maps the horizon
// onto itself — a synthetic time-of-day (or prime-time) shift layered
// over whatever diurnal structure the model already has.
func Diurnal(amplitude float64, period int64) (Warp, error) {
	if amplitude < 0 || amplitude >= 1 {
		return nil, errors.Join(ErrBadScenario, errors.New("diurnal amplitude must be in [0,1)"))
	}
	if period <= 0 {
		return nil, errors.Join(ErrBadScenario, errors.New("diurnal period must be positive"))
	}
	p := float64(period)
	return func(t int64) int64 {
		x := float64(t)
		// ∫(1 + A sin(2πu/p))du = t + A·p/(2π)·(1 − cos(2πt/p))
		return int64(x + amplitude*p/(2*math.Pi)*(1-math.Cos(2*math.Pi*x/p)))
	}, nil
}
