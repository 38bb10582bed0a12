package exec

import (
	"fmt"
	"io"
	"os"
	osexec "os/exec"
)

// NewPool starts size worker subprocesses and returns them as size
// executors, pool(size)[0] … pool(size)[size-1], to join the session's
// Fleet like any other backend. The workers re-exec the current binary
// with EnvWorker set, so any program whose main (or TestMain) calls
// MaybeWorker is pool-capable with no separate worker executable. Each
// member is a Remote client over its worker's stdin/stdout, of kind
// KindPool, and carries a respawn function: when a member's transport
// fails, Fleet.Run starts a fresh worker in its slot.
//
// What a pool buys over Local is crash isolation: a workload panic
// that escapes the controller's crash monitor — a logic bug in the
// harness itself, not a simulated crash — kills one worker process, not
// the session. Every member must be Closed to reap its worker.
func NewPool(size int) ([]Executor, error) {
	if size <= 0 {
		size = 1
	}
	self, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("exec: pool: %w", err)
	}
	members := make([]Executor, 0, size)
	for i := 0; i < size; i++ {
		w, err := spawnWorker(self, fmt.Sprintf("pool(%d)[%d]", size, i))
		if err != nil {
			for _, m := range members {
				m.Close()
			}
			return nil, err
		}
		members = append(members, w)
	}
	return members, nil
}

// spawnWorker starts one worker subprocess of self and connects a
// client to it under the pool slot's name. The client's respawn
// function starts the slot's replacement the same way.
func spawnWorker(self, slot string) (*Remote, error) {
	cmd := osexec.Command(self)
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
	r, err := newRemote(fmt.Sprintf("%s pid %d", slot, cmd.Process.Pid), &procConn{stdout, stdin, cmd})
	if err != nil {
		return nil, err
	}
	r.name, r.kind = slot, KindPool
	r.respawn = func() (*Remote, error) { return spawnWorker(self, slot) }
	return r, nil
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
