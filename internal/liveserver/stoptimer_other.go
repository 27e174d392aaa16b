//go:build !linux

package liveserver

import (
	"errors"
	"os"
	"time"
)

// stopTimer is the one-shot timer WatchTagged sends STOP from. Off
// Linux it is a runtime timer, which fires when the runtime next
// checks its timers (DESIGN.md §6); stoptimer_linux.go has the timerfd.
//
// arm and cancel belong to one goroutine, wait to one other at a time.
type stopTimer struct {
	t         *time.Timer
	cancelled chan struct{} // holds a cancel until a wait or the next arm takes it
	closed    chan struct{}
}

var errTimerCancelled = errors.New("liveserver: stop timer cancelled")

func newStopTimer() (*stopTimer, error) {
	t := time.NewTimer(time.Hour)
	t.Stop()
	return &stopTimer{t: t, cancelled: make(chan struct{}, 1), closed: make(chan struct{})}, nil
}

// arm sets the timer to expire once, d from now, replacing any expiry
// still pending or not yet received. A d ≤ 0 expires at once.
func (t *stopTimer) arm(d time.Duration) error {
	select {
	case <-t.cancelled:
	default:
	}
	t.t.Reset(max(d, 1))
	return nil
}

// wait blocks until the armed expiry and returns nil, or returns an
// error once cancel or close has released it.
func (t *stopTimer) wait() error {
	select {
	case <-t.t.C:
		return nil
	case <-t.cancelled:
		return errTimerCancelled
	case <-t.closed:
		return os.ErrClosed
	}
}

// cancel disarms the timer and releases a wait, which then returns an
// error: a cancelled timer sends no STOP.
func (t *stopTimer) cancel() {
	t.t.Stop()
	select {
	case t.cancelled <- struct{}{}:
	default:
	}
}

// close releases any wait.
func (t *stopTimer) close() error {
	t.t.Stop()
	close(t.closed)
	return nil
}
