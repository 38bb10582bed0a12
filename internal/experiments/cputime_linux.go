//go:build linux

package experiments

import (
	"runtime"
	"syscall"
	"time"
	"unsafe"
)

// clockName says what threadClock measures, for table headers.
const clockName = "thread CPU time"

// threadClock locks the calling goroutine to its OS thread and returns
// that thread's CPU-time clock (CLOCK_THREAD_CPUTIME_ID), plus the
// release that unlocks the thread. Other goroutines and co-running
// processes do not advance it, so a slice timed on it costs about the
// same on an idle host and a loaded one. getrusage(RUSAGE_THREAD)
// would not do: it advances only at scheduler ticks and switches, in
// steps of up to a millisecond, as long as a Table 5 slice.
func threadClock() (now func() time.Duration, release func()) {
	const clockThreadCPUTime = 3 // CLOCK_THREAD_CPUTIME_ID, which package syscall does not name
	runtime.LockOSThread()
	return func() time.Duration {
		var ts syscall.Timespec
		// Cannot fail: every kernel Go supports has the clock, and ts
		// is writable.
		_, _, _ = syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0)
		return time.Duration(ts.Nano())
	}, runtime.UnlockOSThread
}
