// Package libsim is the simulated C library underneath every program in
// this reproduction.
//
// The paper injects faults at the boundary between programs and shared
// libraries (GNU libc, libxml, apr, ...). Go cannot practically hook
// shared libraries, so the boundary itself is rebuilt: libsim implements
// an in-memory filesystem, heap, stdio, directory streams, mutexes,
// environment, and datagram sockets, and routes every call through an
// interpose.Dispatcher. What programs observe — return values and errno —
// matches the documented libc behaviour, which is all LFI ever sees.
//
// One C value models one process image: its file descriptors, heap, and
// environment are process-wide, while errno lives on Thread.
package libsim

import (
	"sync"
	"sync/atomic"

	"lfi/internal/coverage"
	"lfi/internal/errno"
	"lfi/internal/interpose"
)

// NetBackend provides datagram transport for the socket calls. The
// netsim package implements it; tests may substitute their own.
type NetBackend interface {
	NewEndpoint() NetEndpoint
}

// NetEndpoint is one datagram socket's transport.
type NetEndpoint interface {
	Bind(addr string) errno.Errno
	SendTo(dst string, payload []byte) errno.Errno
	// RecvFrom returns the oldest queued payload and its sender
	// address without blocking, or EAGAIN when nothing is queued.
	RecvFrom() ([]byte, string, errno.Errno)
	Close()
}

// C is one simulated process's view of the C library.
type C struct {
	// Disp is the interposition point; the LFI runtime installs its
	// hook here. A fresh Dispatcher passes everything through.
	Disp *interpose.Dispatcher
	// Node names this process in distributed setups (PBFT replica ids);
	// distributed triggers see it on every intercepted call.
	Node string

	// Owner is an opaque backlink to the application wrapping this
	// process image; controller.Target.Recycle hooks use it to return
	// the whole app to a worker-local pool between runs.
	Owner any

	// Cov records the blocks the program executes (nil = not
	// measured). Reset clears it, so a recycled image starts each run
	// with no hits.
	Cov *coverage.Recorder

	// threadIDs allocates per-process thread ids (dense from 1), so
	// logs stay deterministic when independent runs execute in parallel.
	threadIDs atomic.Int64

	mu    sync.Mutex
	root  *inode
	fds   map[int]*fdesc
	nexfd int

	// Descriptor and file-inode pools, reclaimed by Reset (never on
	// Close, so nothing can observe a recycled object mid-run).
	fdPool   []*fdesc
	fdNext   int
	fileFree []*inode

	heap *Arena

	env map[string]string

	files    map[int64]*file // FILE* handles
	nextFile int64

	dirs    map[int64]*dirStream // DIR* handles
	nextDir int64

	mutexes   map[int64]*simMutex
	nextMutex int64

	net NetBackend

	xml *xmlLib

	vars map[string]func() int64
}

// New creates a process image with an empty filesystem, a heap of the
// given capacity in bytes, and no network backend.
func New(heapBytes int64) *C {
	c := &C{
		Disp:      &interpose.Dispatcher{},
		root:      newDir(),
		fds:       make(map[int]*fdesc),
		nexfd:     3, // 0,1,2 reserved like stdin/stdout/stderr
		heap:      NewArena(heapBytes),
		env:       make(map[string]string),
		files:     make(map[int64]*file),
		nextFile:  0x4000_0000,
		dirs:      make(map[int64]*dirStream),
		nextDir:   0x5000_0000,
		mutexes:   make(map[int64]*simMutex),
		nextMutex: 0x6000_0000,
	}
	return c
}

// SetNet installs the datagram transport used by socket calls.
func (c *C) SetNet(n NetBackend) { c.net = n }

// Reset returns the process image to its pristine state — the state
// right after New plus whatever fixtures SnapshotFS recorded — while
// retaining every reusable buffer (heap blocks, inodes, descriptor
// objects, map storage). A reset image is observationally identical to
// a fresh one: descriptor numbers restart at 3, every handle space
// restarts at its base, the heap hands out the same pointers, and the
// dispatcher's per-function call counters restart at zero, so a run on
// a recycled image is byte-for-byte the run a fresh image would give.
//
// Registered program variables survive (their getters capture the
// owning app, which is itself recycled), as do live Threads — the app
// resets those separately via Thread.Reset.
func (c *C) Reset() {
	c.Disp.ResetCounts()
	c.Cov.Reset()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.resetFS()
	c.heap.Reset()
	clear(c.env)
	clear(c.files)
	c.nextFile = 0x4000_0000
	clear(c.dirs)
	c.nextDir = 0x5000_0000
	// simMutex objects are never recycled: a crashed run can leave the
	// inner lock held (the double-unlock crash raises before the inner
	// unlock), so recycling one could deadlock the next run.
	clear(c.mutexes)
	c.nextMutex = 0x6000_0000
	if c.xml != nil {
		clear(c.xml.m)
		c.xml.next = 0x7000_0000
	}
}

// RegisterVar publishes a named program variable (a global like MySQL's
// thread_count or shutdown_in_progress) so that program state-based
// triggers can read it. In the paper the trigger reads the variable from
// the process image directly; here the program registers a getter.
func (c *C) RegisterVar(name string, get func() int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.vars == nil {
		c.vars = make(map[string]func() int64)
	}
	c.vars[name] = get
}

// ReadVar reads a registered program variable.
func (c *C) ReadVar(name string) (int64, bool) {
	c.mu.Lock()
	get, ok := c.vars[name]
	c.mu.Unlock()
	if !ok {
		return 0, false
	}
	return get(), true
}

// Heap exposes the allocator for tests and fault setup (e.g. forcing
// ENOMEM at a particular allocation).
func (c *C) Heap() *Arena { return c.heap }

// --- environment ------------------------------------------------------

// Setenv models setenv(3): returns 0 on success, -1/ENOMEM on (injected)
// failure. Real setenv can fail when the environment block cannot grow.
func (t *Thread) Setenv(name, value string) int64 {
	c := t.C
	return t.call(fnSetenv, []int64{int64(len(name)), int64(len(value))}, func() (int64, errno.Errno) {
		if name == "" {
			return -1, errno.EINVAL
		}
		c.mu.Lock()
		c.env[name] = value
		c.mu.Unlock()
		return 0, errno.OK
	})
}

// Getenv models getenv(3). It returns the value and whether it was set;
// getenv itself is not interposed (it cannot fail in the errno sense).
func (t *Thread) Getenv(name string) (string, bool) {
	c := t.C
	c.mu.Lock()
	defer c.mu.Unlock()
	v, ok := c.env[name]
	return v, ok
}

// Unsetenv models unsetenv(3).
func (t *Thread) Unsetenv(name string) int64 {
	c := t.C
	return t.call(fnUnsetenv, nil, func() (int64, errno.Errno) {
		if name == "" {
			return -1, errno.EINVAL
		}
		c.mu.Lock()
		delete(c.env, name)
		c.mu.Unlock()
		return 0, errno.OK
	})
}

// EnvSnapshot returns a copy of the environment, used by workloads to
// verify that external commands would run with a complete environment
// (the Git data-loss bug).
func (c *C) EnvSnapshot() map[string]string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]string, len(c.env))
	for k, v := range c.env {
		out[k] = v
	}
	return out
}

// --- fcntl ------------------------------------------------------------

// fcntl command values (Linux numbering).
const (
	F_GETFL = 3
	F_SETFL = 4
	F_GETLK = 5
	F_SETLK = 6
)

// O_NONBLOCK is the only status flag the simulation tracks.
const O_NONBLOCK = 0x800

// Fcntl models fcntl(2) for the GETFL/SETFL/GETLK/SETLK commands.
func (t *Thread) Fcntl(fd int64, cmd int64, arg int64) int64 {
	c := t.C
	return t.call(fnFcntl, []int64{fd, cmd, arg}, func() (int64, errno.Errno) {
		c.mu.Lock()
		defer c.mu.Unlock()
		d, ok := c.fds[int(fd)]
		if !ok {
			return -1, errno.EBADF
		}
		switch cmd {
		case F_GETFL:
			return d.flags, errno.OK
		case F_SETFL:
			d.flags = arg
			return 0, errno.OK
		case F_GETLK, F_SETLK:
			// The simulated filesystem has no contending processes,
			// so locks always succeed.
			return 0, errno.OK
		default:
			return -1, errno.EINVAL
		}
	})
}

// RawNonblocking reports whether fd has O_NONBLOCK set, bypassing the
// dispatcher. Triggers use raw accessors so that their own inspection
// calls are not themselves intercepted (the paper's triggers call fcntl
// from inside Eval for the same purpose).
func (c *C) RawNonblocking(fd int64) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	d, ok := c.fds[int(fd)]
	return ok && d.flags&O_NONBLOCK != 0
}
