//go:build !linux

package experiments

import "time"

// clockName says what threadClock measures, for table headers.
const clockName = "wall time"

// threadClock is a clock of the wall time since the call on platforms
// without a per-thread CPU clock in package syscall; its release does
// nothing.
func threadClock() (now func() time.Duration, release func()) {
	start := time.Now()
	return func() time.Duration { return time.Since(start) }, func() {}
}
