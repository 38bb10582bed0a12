package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"os"
	osexec "os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// The benchmark's host is a small VM on a shared machine. Its speed
// drifts by 20–45% for minutes at a time, with no steal time to show
// for it, and CPU time inflates along with wall time, so neither a
// longer run nor CPU time averages it away. Every timed interval is
// therefore scaled by a reference: fixed work, in a process of its own,
// timed around the interval. A time is reported as it would read on a
// host where the reference takes its nominal time. The reference is
// benchmark code, so a change to the program moves the measured time
// and leaves the reference alone; its own process keeps the program's
// heap out of its garbage collection. README.md gives the spreads with
// and without scaling.

// The reference's median times on the 2-vCPU VM the bounds were
// measured on, so scaled times read close to wall times there:
// refNominal for the compute part, refWriteNominal for the write part.
const (
	refNominal      = 45 * time.Millisecond
	refWriteNominal = 9 * time.Millisecond
)

// refWork runs the reference once and returns its wall time. The
// compute part runs on each of GOMAXPROCS goroutines, as many as a
// campaign's workers: build a map of small slices, sort its keys and
// hash a buffer. Like a campaign it allocates, collects, chases
// pointers and computes. With dir set, the write part follows: the
// store's pattern of rewriting shard files through a temp file and a
// rename, in dir, which is then removed. A campaign that writes a store
// spends part of its time in the file system, which the compute part
// does not track.
func refWork(dir string) (time.Duration, error) {
	runtime.GC()
	n := runtime.GOMAXPROCS(0)
	keep := make([]map[int][]int, n)
	begin := time.Now()
	var wg sync.WaitGroup
	for k := 0; k < n; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			m := make(map[int][]int)
			for i := 0; i < 100000; i++ {
				m[i] = make([]int, 1+i%8)
			}
			keys := make([]int, 0, len(m))
			for key := range m {
				keys = append(keys, key)
			}
			sort.Ints(keys)
			buf := make([]byte, 1<<20)
			for i := 0; i < 2; i++ {
				h := sha256.Sum256(buf)
				buf[0] = h[0]
			}
			keep[k] = m
		}(k)
	}
	wg.Wait()
	if dir != "" {
		if err := refWrites(dir); err != nil {
			return 0, err
		}
	}
	return time.Since(begin), nil
}

// refWrites rewrites four 64 KB files ten times each through a temp
// file and a rename, then removes dir. dir lies in the run's temp dir,
// which goes on every return path, so an error may leave it behind.
func refWrites(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	buf := make([]byte, 64<<10)
	for round := 0; round < 10; round++ {
		for i := 0; i < 4; i++ {
			f, err := os.CreateTemp(dir, "shard.tmp*")
			if err != nil {
				return err
			}
			_, werr := f.Write(buf)
			if err := f.Close(); werr != nil || err != nil {
				return fmt.Errorf("ref writes: %v/%v", werr, err)
			}
			if err := os.Rename(f.Name(), filepath.Join(dir, fmt.Sprintf("shard%d.json", i))); err != nil {
				return err
			}
		}
	}
	return os.RemoveAll(dir)
}

// serveRef is the reference process: for each line it reads, it runs
// the reference once, its write part in dir unless dir is empty, and
// prints its time in nanoseconds. It returns at the end of its input.
func serveRef(dir string, in io.Reader, out io.Writer) error {
	sc := bufio.NewScanner(in)
	for sc.Scan() {
		d, err := refWork(dir)
		if err != nil {
			return err
		}
		if _, err := fmt.Fprintln(out, int64(d)); err != nil {
			return err
		}
	}
	return sc.Err()
}

// refClock times the reference in its own process.
type refClock struct {
	cmd     *osexec.Cmd
	in      io.WriteCloser
	out     *bufio.Reader
	nominal time.Duration
}

// startRef starts the reference process, with the write part in dir
// unless dir is empty. close stops it.
func startRef(ctx context.Context, dir string) (*refClock, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	nominal := refNominal
	if dir != "" {
		nominal += refWriteNominal
	}
	spec, err := json.Marshal(child{Mode: "ref", Dir: dir})
	if err != nil {
		return nil, err
	}
	cmd := osexec.CommandContext(ctx, self)
	cmd.Env = append(os.Environ(), childEnv+"="+string(spec))
	cmd.Stderr = os.Stderr
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("ref child: %w", err)
	}
	return &refClock{cmd: cmd, in: in, out: bufio.NewReader(out), nominal: nominal}, nil
}

// time runs the reference once and returns how long it took.
func (r *refClock) time() (time.Duration, error) {
	if _, err := io.WriteString(r.in, "\n"); err != nil {
		return 0, fmt.Errorf("ref child: %w", err)
	}
	line, err := r.out.ReadString('\n')
	if err != nil {
		return 0, fmt.Errorf("ref child: %w", err)
	}
	ns, err := strconv.ParseInt(strings.TrimSpace(line), 10, 64)
	if err != nil || ns <= 0 {
		return 0, fmt.Errorf("ref child printed %q", line)
	}
	return time.Duration(ns), nil
}

// close ends the reference process's input and waits until it exits.
func (r *refClock) close() error {
	r.in.Close() // the child sees the end of its input either way
	if err := r.cmd.Wait(); err != nil {
		return fmt.Errorf("ref child: %w", err)
	}
	return nil
}

// scale is d in seconds as it would read on a host where the
// reference, which took ref around d, takes its nominal time.
func (r *refClock) scale(d, ref time.Duration) float64 {
	return d.Seconds() * r.nominal.Seconds() / ref.Seconds()
}
