package exec

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	osexec "os/exec"
	"sync"
)

// Pool is the subprocess backend: a fixed pool of worker processes,
// each driven by its own Remote client over the worker's stdin/stdout.
// The workers re-exec the current binary with EnvWorker set, so any
// program whose main (or TestMain) calls MaybeWorker is pool-capable
// with no separate worker executable.
//
// What the pool buys over Local is crash isolation: a workload panic
// that escapes the controller's crash monitor — a logic bug in the
// harness itself, not a simulated crash — kills one worker process, not
// the session. The dead worker is respawned, the lost slice of the
// batch is retried once on the fresh worker, and only a repeat failure
// surfaces as BackendError for the scheduler to requeue elsewhere.
type Pool struct {
	argv []string

	mu      sync.Mutex
	closed  bool
	workers []*Remote // one client per worker slot
}

// NewPool starts size worker subprocesses running argv (default: the
// current executable with EnvWorker set) and verifies each with a hello
// exchange. The returned pool must be Closed to reap the workers.
func NewPool(size int, argv ...string) (*Pool, error) {
	if size <= 0 {
		size = 1
	}
	if len(argv) == 0 {
		self, err := os.Executable()
		if err != nil {
			return nil, fmt.Errorf("exec: pool: %w", err)
		}
		argv = []string{self}
	}
	p := &Pool{argv: argv}
	for i := 0; i < size; i++ {
		w, err := p.spawn()
		if err != nil {
			p.Close()
			return nil, err
		}
		p.workers = append(p.workers, w)
	}
	return p, nil
}

// Info reports the pool's metadata: capacity is the worker count (each
// worker runs its slice sequentially; pool parallelism is process-level).
func (p *Pool) Info() Info {
	n := len(p.workers)
	return Info{Name: fmt.Sprintf("pool(%d)", n), Kind: KindPool, Capacity: n, Isolated: true}
}

// Close kills every worker process.
func (p *Pool) Close() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.closed = true
	for _, w := range p.workers {
		w.Close()
	}
	return nil
}

// Run scatters the batch in contiguous slices across the pool's
// workers and reassembles outcomes in scenario order. It returns the
// contiguous prefix of completed outcomes; a slice that failed twice
// leaves a gap, and everything from the gap on is reported unfinished
// via BackendError so the scheduler requeues it.
func (p *Pool) Run(ctx context.Context, b *Batch) ([]*Outcome, error) {
	n := len(b.Scenarios)
	if n == 0 {
		return nil, nil
	}
	chunk := (n + len(p.workers) - 1) / len(p.workers)
	type slice struct{ off, end int }
	var slices []slice
	for off := 0; off < n; off += chunk {
		slices = append(slices, slice{off, min(off+chunk, n)})
	}
	outs := make([]*Outcome, n)
	errs := make([]error, len(slices))
	var wg sync.WaitGroup
	for si, sl := range slices {
		wg.Add(1)
		go func(si int, sl slice) {
			defer wg.Done()
			// One retry on a respawned worker, resuming past whatever
			// the dead worker completed: the first failure may be a
			// crashed process; a second failure means the slice itself
			// is poison or the pool is going down. Workers re-exec this
			// binary, so sub-batches carry no Image to reconcile.
			off := sl.off
			var err error
			for attempt := 0; attempt < 2 && off < sl.end; attempt++ {
				w := p.worker(si)
				var got []*Outcome
				got, err = w.Run(ctx, &Batch{System: b.System, Seed: b.Seed, Coverage: b.Coverage, Scenarios: b.Scenarios[off:sl.end]})
				off += copy(outs[off:sl.end], got)
				if !IsBackendError(err) {
					break
				}
				p.respawn(si, w)
				if ctx.Err() != nil {
					break
				}
			}
			errs[si] = err
		}(si, sl)
	}
	wg.Wait()

	// Contiguous-prefix contract: stop at the first gap; a slice that
	// completed fully despite a flagged error (cancellation after a
	// drain) still counts.
	var err error
	end := n
	for si, sl := range slices {
		done := len(sliceDone(outs[sl.off:sl.end]))
		if sl.off+done < sl.end {
			end = sl.off + done
			if err = errs[si]; err == nil {
				err = ctx.Err()
			}
			break
		}
		if errs[si] != nil {
			err = errs[si]
		}
	}
	// A backend failure is the pool's, whichever worker it hit.
	var be *BackendError
	if errors.As(err, &be) {
		err = &BackendError{Backend: p.Info().Name, Err: be.Err}
	}
	done := outs[:end]
	if b.Observe != nil {
		for i, o := range done {
			b.Observe(i, o)
		}
	}
	return done, err
}

// sliceDone returns the contiguous completed prefix of one slice.
func sliceDone(outs []*Outcome) []*Outcome {
	for i, o := range outs {
		if o == nil {
			return outs[:i]
		}
	}
	return outs
}

// worker returns slot i's client.
func (p *Pool) worker(i int) *Remote {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.workers[i]
}

// respawn replaces slot i's (presumed dead) client with a fresh worker,
// unless a concurrent Run already did. On spawn failure the dead client
// stays in the slot, failing fast, and the next failure retries.
func (p *Pool) respawn(i int, dead *Remote) {
	dead.Close()
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed || p.workers[i] != dead {
		return
	}
	if w, err := p.spawn(); err == nil {
		p.workers[i] = w
	}
}

// spawn starts one worker subprocess and connects a client to it.
func (p *Pool) spawn() (*Remote, error) {
	cmd := osexec.Command(p.argv[0], p.argv[1:]...)
	cmd.Env = append(os.Environ(), EnvWorker+"=1")
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, fmt.Errorf("exec: pool: %w", err)
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, fmt.Errorf("exec: pool: %w", err)
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("exec: pool: %w", err)
	}
	return newRemote(fmt.Sprintf("pool worker %d", cmd.Process.Pid), &procConn{stdout, stdin, cmd})
}

// procConn is one worker subprocess as a protocol stream: reads come
// from its stdout, writes go to its stdin, and Close kills it.
type procConn struct {
	io.ReadCloser
	io.WriteCloser
	cmd *osexec.Cmd
}

func (c *procConn) Close() error {
	c.WriteCloser.Close()
	c.cmd.Process.Kill()
	return c.cmd.Wait() // also closes the stdout pipe
}
