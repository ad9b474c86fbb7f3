//go:build linux

package main

import (
	"fmt"
	"os"
	"syscall"
	"time"
	"unsafe"
)

// timer waits on a Linux timerfd read through the runtime's network
// poller: the waiting goroutine parks without holding a processor and
// wakes within microseconds of its deadline. The open loop's due
// times and the origin's injected latency need both properties: a
// runtime timer (time.Sleep, time.After) can wake a millisecond late in
// a mostly idle process, and nanosleep(2) keeps a processor blocked in
// the system call for the whole wait, which the system under test then
// lacks.
type timer struct {
	f *os.File
	// fd is f's descriptor, kept because f.Fd() would switch it to
	// blocking mode.
	fd uintptr
}

func newTimer() (*timer, error) {
	const clockMonotonic = 1
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	if errno != 0 {
		return nil, fmt.Errorf("timerfd_create: %w", errno)
	}
	// A non-blocking descriptor makes the File pollable.
	return &timer{f: os.NewFile(fd, "timerfd"), fd: fd}, nil
}

// sleepUntil returns at t, or at once if t has passed.
func (t *timer) sleepUntil(deadline time.Time) error {
	d := time.Until(deadline)
	if d <= 0 {
		return nil
	}
	// struct itimerspec: it_interval (zero: one shot), then it_value.
	spec := [4]int64{0, 0, int64(d / time.Second), int64(d % time.Second)}
	if _, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, t.fd, 0, uintptr(unsafe.Pointer(&spec)), 0, 0, 0); errno != 0 {
		return fmt.Errorf("timerfd_settime: %w", errno)
	}
	var expirations [8]byte
	_, err := t.f.Read(expirations[:])
	return err
}

func (t *timer) close() error { return t.f.Close() }
