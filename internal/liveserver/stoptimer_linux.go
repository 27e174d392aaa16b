//go:build linux

package liveserver

import (
	"fmt"
	"os"
	"syscall"
	"time"
	"unsafe"
)

// stopTimer is the one-shot timer WatchTagged sends STOP from: a
// timerfd on CLOCK_MONOTONIC, wrapped by os.NewFile so a wait parks in
// the netpoller. Its expiry is an fd event, which wakes the runtime's
// epoll_wait at once; a runtime timer (time.AfterFunc) wakes it only at
// the next whole millisecond of epoll_wait's timeout, so STOP went out
// 0–1 ms late whenever the process was idle (DESIGN.md §6).
//
// arm and cancel belong to one goroutine, wait to one other at a time.
type stopTimer struct {
	f         *os.File
	fd        int        // f's descriptor, kept so f.Fd never sets it blocking
	spec      itimerspec // settime's argument, kept here so arming allocates nothing
	cancelled bool       // a cancel left a read deadline in the past
	buf       [8]byte    // a read's expiration count
}

// itimerspec is struct itimerspec of timerfd_settime(2).
type itimerspec struct {
	interval, value syscall.Timespec
}

const clockMonotonic = 1 // CLOCK_MONOTONIC

func newStopTimer() (*stopTimer, error) {
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic,
		syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0) // TFD_NONBLOCK|TFD_CLOEXEC
	if errno != 0 {
		return nil, fmt.Errorf("liveserver: timerfd_create: %w", errno)
	}
	// A non-blocking descriptor is registered with the netpoller.
	return &stopTimer{f: os.NewFile(fd, "timerfd"), fd: int(fd)}, nil
}

// arm sets the timer to expire once, d from now, replacing any expiry
// still pending or not yet read. A d ≤ 0 expires at once.
func (t *stopTimer) arm(d time.Duration) error {
	if t.cancelled {
		if err := t.f.SetReadDeadline(time.Time{}); err != nil {
			return err
		}
		t.cancelled = false
	}
	return t.settime(max(d, 1)) // a zero it_value would disarm
}

func (t *stopTimer) settime(d time.Duration) error {
	t.spec.value = syscall.NsecToTimespec(int64(d))
	_, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, uintptr(t.fd), 0,
		uintptr(unsafe.Pointer(&t.spec)), 0, 0, 0)
	if errno != 0 {
		return fmt.Errorf("liveserver: timerfd_settime: %w", errno)
	}
	return nil
}

// wait blocks until the armed expiry and returns nil, or returns an
// error once cancel or close has released it.
func (t *stopTimer) wait() error {
	_, err := t.f.Read(t.buf[:])
	return err
}

// cancel disarms the timer and releases a wait, which then returns an
// error: a cancelled timer sends no STOP.
func (t *stopTimer) cancel() {
	t.cancelled = true
	// Neither call fails on an open timerfd. The past deadline alone
	// keeps a wait from returning nil; disarming saves a wake-up.
	_ = t.f.SetReadDeadline(time.Unix(1, 0))
	_ = t.settime(0)
}

// close releases the descriptor and any wait.
func (t *stopTimer) close() error { return t.f.Close() }
