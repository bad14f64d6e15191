package main

import (
	"syscall"
	"time"
)

// sleep pauses the pacer for d. The runtime's timers wake a sleeping
// goroutine up to a millisecond late on Linux, which is most of an
// open-loop interval at 1,000 arrivals/s; nanosleep(2) on the pacer's
// thread wakes within the kernel's timer slack (tens of microseconds).
func sleep(d time.Duration) {
	ts := syscall.NsecToTimespec(d.Nanoseconds())
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}
