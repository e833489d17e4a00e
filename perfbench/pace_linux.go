package main

import (
	goruntime "runtime"
	"syscall"
	"time"
)

// prSetTimerSlack is prctl's PR_SET_TIMERSLACK option.
const prSetTimerSlack = 29

// pacer sleeps the open-loop generator until each event's due time.
// Go timers that fire while every thread is idle wake through the
// netpoller, which rounds a sub-millisecond wait up to a millisecond, so
// a generator built on time.Sleep submits events a few hundred
// microseconds late at the median. The pacer instead holds its own OS
// thread and sleeps in nanosleep with a 1ns timer slack, which wakes
// within tens of microseconds.
type pacer struct{}

// newPacer locks the calling goroutine to its OS thread and sets the
// thread's timer slack; stop undoes the lock. Call both from the
// generator goroutine.
func newPacer() pacer {
	goruntime.LockOSThread()
	// A failed prctl leaves the default 50us slack: still far finer
	// than the netpoller's millisecond.
	_, _, _ = syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerSlack, 1, 0)
	return pacer{}
}

func (pacer) stop() { goruntime.UnlockOSThread() }

// until sleeps until the offset t from origin.
func (pacer) until(t int64) {
	d := time.Duration(t - now())
	if d <= 0 {
		return
	}
	ts := syscall.NsecToTimespec(int64(d))
	// Signals (the Go runtime preempts with SIGURG) cut the sleep
	// short; nanosleep leaves the remainder in ts.
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}
