package exec

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"sync/atomic"

	"lfi/internal/fleetd"
	"lfi/internal/impact"
	"lfi/internal/system"
)

// This file is the worker side of the wire protocol: one listener
// entry, Serve (the TCP server behind `lfi serve`, with optional fleet
// registration), one connection loop, serveConn (which Serve runs per
// connection and pool workers run over stdio), and the self-re-exec
// hook that turns any binary calling MaybeWorker into a pool-capable
// worker.

// EnvWorker, when set in a process's environment, makes MaybeWorker
// take over the process as a stdio protocol worker (the pool backend's
// subprocess mode).
const EnvWorker = "LFI_EXEC_WORKER"

// MaybeWorker checks the pool worker's environment hook and, when it
// is set, serves the protocol over stdin/stdout on a pool of width 1
// (a pool's parallelism comes from having several workers) and exits
// the process. Call it first thing in main (cmd/lfi does) or TestMain:
// it is what lets the pool backend re-exec the current binary as its
// worker without a dedicated worker executable.
func MaybeWorker() {
	if os.Getenv(EnvWorker) == "" {
		return
	}
	err := serveConn(context.Background(), struct {
		io.Reader
		io.Writer
	}{os.Stdin, os.Stdout}, 1, nil)
	if err != nil && !errors.Is(err, io.EOF) {
		fmt.Fprintln(os.Stderr, "lfi exec worker:", err)
		os.Exit(1)
	}
	os.Exit(0)
}

// workerRegistration describes this process as a fleet worker: the
// registry record `lfi serve -register` announces, advertising the
// same systems and image versions the hello exchange does.
func workerRegistration(addr string, workers int) fleetd.Worker {
	return fleetd.Worker{
		Addr:     addr,
		Capacity: workers,
		Proto:    protoVersion,
		Systems:  system.Names(),
		Images:   workerImages(),
	}
}

// serveCounters aggregates a worker's lifetime execution counters for
// heartbeat reporting: batches and runs completed, and batches cut
// short by a cancel frame. All methods are safe for concurrent use.
type serveCounters struct {
	batches atomic.Int64
	runs    atomic.Int64
	cancels atomic.Int64
}

// stats snapshots the counters in the registry's heartbeat form.
func (c *serveCounters) stats() fleetd.WorkerStats {
	return fleetd.WorkerStats{
		Batches: c.batches.Load(),
		Runs:    c.runs.Load(),
		Cancels: c.cancels.Load(),
	}
}

// ServeOptions parametrizes Serve beyond the listener: the in-process
// pool width each connection's batches run on, an optional log sink,
// and optional fleet membership — the registry to self-register with
// and the dial-back address to announce there (empty: the listener's
// own address, which a wildcard or NAT'd bind needs to override).
type ServeOptions struct {
	Workers   int
	Log       io.Writer
	Registry  string
	Advertise string
}

// Serve accepts protocol connections on ln until ctx is cancelled and
// answers each with the connection loop — the engine behind
// `lfi serve`. Every batch a connection carries runs on an in-process
// pool of opts.Workers width. With opts.Registry set the worker
// self-registers there and heartbeats its execution counters until ctx
// ends, re-registering whenever the registry forgets it. Cancellation
// closes the listener and every active connection: a client mid-batch
// observes a dead worker and requeues (the same contract as a killed
// worker process).
func Serve(ctx context.Context, ln net.Listener, opts ServeOptions) error {
	if opts.Workers <= 0 {
		opts.Workers = 1
	}
	var counters *serveCounters
	if opts.Registry != "" {
		advertise := opts.Advertise
		if advertise == "" {
			advertise = ln.Addr().String()
		}
		counters = new(serveCounters)
		agent := fleetd.NewAgent(opts.Registry, workerRegistration(advertise, opts.Workers), counters.stats)
		agent.Log = opts.Log
		go agent.Run(ctx)
	}
	var (
		mu    sync.Mutex
		conns = make(map[net.Conn]bool)
		wg    sync.WaitGroup
	)
	stop := context.AfterFunc(ctx, func() {
		ln.Close()
		mu.Lock()
		defer mu.Unlock()
		for c := range conns {
			c.Close()
		}
	})
	defer stop()
	logf := func(format string, args ...any) {
		if opts.Log != nil {
			fmt.Fprintf(opts.Log, format+"\n", args...)
		}
	}
	for {
		conn, err := ln.Accept()
		if err != nil {
			wg.Wait()
			if ctx.Err() != nil {
				return ctx.Err()
			}
			return err
		}
		mu.Lock()
		conns[conn] = true
		mu.Unlock()
		logf("lfi serve: %s connected", conn.RemoteAddr())
		wg.Add(1)
		go func() {
			defer wg.Done()
			err := serveConn(ctx, conn, opts.Workers, counters)
			conn.Close()
			mu.Lock()
			delete(conns, conn)
			mu.Unlock()
			if err != nil && !errors.Is(err, io.EOF) && ctx.Err() == nil {
				logf("lfi serve: %s: %v", conn.RemoteAddr(), err)
			} else {
				logf("lfi serve: %s disconnected", conn.RemoteAddr())
			}
		}()
	}
}

// workerImages advertises the image version of every registered
// system, the impact.ImageVersion the explorer computes its own with. A
// client's fleet sends this worker only the batches of its own build.
func workerImages() map[string]string {
	ds := system.All()
	out := make(map[string]string, len(ds))
	for _, d := range ds {
		b, _ := d.Binary()
		out[d.Name] = impact.ImageVersion(b)
	}
	return out
}

// workerUniverses advertises the universeHash of every registered
// system's Blocks: a client routes a system here only when it is the
// fingerprint of its own.
func workerUniverses() map[string]string {
	ds := system.All()
	out := make(map[string]string, len(ds))
	for _, d := range ds {
		out[d.Name] = universeHash(d.Blocks)
	}
	return out
}

// serverConn is the stream a connection's executor goroutines and its
// read loop write frames to, one at a time under mu.
type serverConn struct {
	mu sync.Mutex
	w  io.Writer
}

// writeJSON writes one JSON frame.
func (sc *serverConn) writeJSON(v any) error {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	return writeFrame(sc.w, v)
}

// send writes one frame built behind a reserved header (newFrame).
func (sc *serverConn) send(frame []byte) error {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	return sendFrame(sc.w, frame)
}

// cancelledBatch is the in-band error a worker answers a cancelled run
// request with: the client that sent the cancel maps it back to its
// own ctx.Err(), anyone else treats it as a dead backend and requeues.
const cancelledBatch = "cancelled"

// pipelineQueueMax bounds how many run requests one connection may
// hold queued behind the executing batches. Clients pipeline far fewer
// (the explorer keeps two batches in flight); a client that exceeds the
// bound just blocks the connection's read loop — its own cancels
// included — until the queue drains, which only hurts itself.
const pipelineQueueMax = 64

// queuedRun is one run request awaiting one of the connection's
// executor goroutines, which decodes its payload when it takes it.
type queuedRun struct {
	id      uint64
	payload []byte
	ctx     context.Context
}

// serveConn is the connection loop: hello, then run requests, each
// batch executed on an in-process Local backend of the given width,
// with counters (nil outside a registered worker) tallying them. It
// returns io.EOF on clean client disconnect. Which systems the worker
// offers follows from which system packages the serving binary imports
// (cmd/lfi imports them all via the lfi facade). Run and cancel
// requests arrive as binary frames, hello and funcs as JSON — the
// first payload byte tells them apart.
//
// The loop splits into goroutines so pipelining and cancellation work:
// the read loop enqueues run requests (up to pipelineQueueMax deep) and
// handles control frames inline, while workers executor goroutines take
// batches from the queue in arrival order and run them side by side on
// the connection's one Local, whose width bounds the tests running at
// once across all of them. Every outcome depends only on its scenario
// and seed, so responses may finish out of order without changing one.
// A cancel frame cancels the named request's context whether it is
// executing or still queued; the cancelled batch answers with its
// completed prefix and the in-band "cancelled" error, so a client's
// Ctrl-C never waits for a batch to run out. The read loop reads
// through one buffered reader, and every frame leaves in one Write.
func serveConn(ctx context.Context, conn io.ReadWriter, workers int, counters *serveCounters) error {
	local := NewLocal(workers)
	sc := &serverConn{w: conn}
	var (
		cancelMu sync.Mutex
		cancels  = make(map[uint64]context.CancelFunc)
	)
	admit := func(id uint64) context.Context {
		rctx, rcancel := context.WithCancel(ctx)
		cancelMu.Lock()
		cancels[id] = rcancel
		cancelMu.Unlock()
		return rctx
	}
	retire := func(id uint64) {
		cancelMu.Lock()
		if c := cancels[id]; c != nil {
			c()
			delete(cancels, id)
		}
		cancelMu.Unlock()
	}

	// The executors, each encoding its responses into one reused frame
	// buffer. Their write errors are not surfaced separately: a broken
	// connection fails the read loop too, which is where the connection
	// error is reported.
	queue := make(chan queuedRun, pipelineQueueMax)
	var executors sync.WaitGroup
	for i := 0; i < workers; i++ {
		executors.Add(1)
		go func() {
			defer executors.Done()
			var (
				enc   respEncoder
				frame []byte
			)
			for qr := range queue {
				id, errStr, outs := serveRun(local, counters, qr)
				frame = enc.appendRunResponse(newFrame(frame), id, errStr, outs)
				_ = sc.send(frame)
				retire(qr.id)
			}
		}()
	}

	var readErr error
	fr := &frameReader{r: bufio.NewReader(conn)}
read:
	for {
		payload, err := fr.read()
		if err != nil {
			readErr = err
			break
		}
		switch {
		case isBinaryFrame(payload, frameRunReq):
			id, err := frameID(payload)
			if err != nil {
				readErr = err
				break read
			}
			queue <- queuedRun{id: id, payload: payload, ctx: admit(id)}
		case isBinaryFrame(payload, frameCancel):
			// Cancel an executing or queued request; unknown ids (the
			// response already shipped) are a harmless race.
			if id, err := frameID(payload); err == nil {
				cancelMu.Lock()
				if c := cancels[id]; c != nil {
					c()
				}
				cancelMu.Unlock()
			}
		default:
			var req request
			if err := json.Unmarshal(payload, &req); err != nil {
				readErr = fmt.Errorf("exec: unmarshal: %w", err)
				break read
			}
			switch req.Method {
			case "hello":
				resp := response{ID: req.ID, Hello: &helloInfo{
					Proto:     protoVersion,
					Capacity:  workers,
					Systems:   system.Names(),
					Images:    workerImages(),
					Universes: workerUniverses(),
				}}
				if err := sc.writeJSON(&resp); err != nil {
					readErr = err
					break read
				}
			case "funcs":
				resp := response{ID: req.ID}
				if d, ok := system.Lookup(req.System); ok {
					b, _ := d.Binary()
					resp.Funcs = impact.FuncHashes(b)
				} else {
					resp.Error = fmt.Sprintf("system %q not registered", req.System)
				}
				if err := sc.writeJSON(&resp); err != nil {
					readErr = err
					break read
				}
			default:
				resp := response{ID: req.ID, Error: fmt.Sprintf("unknown method %q", req.Method)}
				if err := sc.writeJSON(&resp); err != nil {
					readErr = err
					break read
				}
			}
		}
	}
	// Stop queued work before waiting it out: the client is gone, so
	// finishing its batches buys nothing.
	cancelMu.Lock()
	for _, c := range cancels {
		c()
	}
	cancelMu.Unlock()
	close(queue)
	executors.Wait()
	return readErr
}

// serveRun executes one queued run request and returns what its
// response carries.
func serveRun(local *Local, counters *serveCounters, qr queuedRun) (id uint64, errStr string, outs []*Outcome) {
	id, b, err := decodeRunRequest(qr.payload)
	if err == nil {
		outs, err = local.Run(qr.ctx, b)
		if counters != nil {
			counters.batches.Add(1)
			counters.runs.Add(int64(len(outs)))
		}
	}
	switch {
	case err == nil:
	case qr.ctx.Err() != nil && errors.Is(err, qr.ctx.Err()):
		errStr = cancelledBatch
		if counters != nil {
			counters.cancels.Add(1)
		}
	default:
		errStr = err.Error()
	}
	return id, errStr, outs
}
