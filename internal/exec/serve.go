package exec

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"strconv"
	"sync"
	"sync/atomic"

	"lfi/internal/coverage"
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

// EnvServe, when set to a TCP listen address, makes MaybeWorker take
// over the process as a serve worker on that address. It prints
// "listening <addr>" on stdout once bound — tests and scripts spawn
// workers on ":0" and read the chosen port back.
const EnvServe = "LFI_EXEC_SERVE"

// EnvWorkerJobs overrides a worker's in-process pool width (default 1
// for stdio workers: pool parallelism comes from having several).
const EnvWorkerJobs = "LFI_EXEC_WORKER_J"

// EnvRegister, when set to a fleet registry address alongside
// EnvServe, makes the serve worker self-register there and heartbeat
// until it exits — the subprocess form of `lfi serve -register`.
const EnvRegister = "LFI_EXEC_REGISTER"

// MaybeWorker checks the worker environment hooks and, when one is
// set, runs the corresponding protocol loop and exits the process.
// Call it first thing in main (cmd/lfi does) or TestMain: it is what
// lets the pool backend re-exec the current binary as its worker
// without a dedicated worker executable.
func MaybeWorker() {
	jobs := 1
	if j, err := strconv.Atoi(os.Getenv(EnvWorkerJobs)); err == nil && j > 0 {
		jobs = j
	}
	if os.Getenv(EnvWorker) != "" {
		err := serveConn(context.Background(), struct {
			io.Reader
			io.Writer
		}{os.Stdin, os.Stdout}, jobs, nil)
		if err != nil && !errors.Is(err, io.EOF) {
			fmt.Fprintln(os.Stderr, "lfi exec worker:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	if addr := os.Getenv(EnvServe); addr != "" {
		ln, err := net.Listen("tcp", addr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "lfi exec serve:", err)
			os.Exit(1)
		}
		fmt.Printf("listening %s\n", ln.Addr())
		ctx := context.Background()
		if err := Serve(ctx, ln, ServeOptions{Workers: jobs, Registry: os.Getenv(EnvRegister)}); err != nil && ctx.Err() == nil {
			fmt.Fprintln(os.Stderr, "lfi exec serve:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
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

// serverConn is what a connection's executor goroutines share: the
// stream they write responses to and the coverage-universe tags already
// sent on it, both behind mu. A tag is assigned as the response that
// carries it is written, so the first frame to go out with a tag is
// the one that carries its table inline.
type serverConn struct {
	mu      sync.Mutex
	w       io.Writer
	uniTags map[*coverage.Index]uint64
}

// writeJSON writes one JSON frame.
func (sc *serverConn) writeJSON(v any) error {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	return writeFrame(sc.w, v)
}

// respond encodes and writes a run response. The batch's universe (one
// system per batch, so at most one) goes inline the first time this
// connection sends it and by tag after that.
func (sc *serverConn) respond(id uint64, errStr string, outs []*Outcome) error {
	var idx *coverage.Index
	for _, o := range outs {
		if o.CovU != nil {
			idx = o.CovU
			break
		}
	}
	sc.mu.Lock()
	defer sc.mu.Unlock()
	var tag uint64
	var inline []string
	if idx != nil {
		var sent bool
		if tag, sent = sc.uniTags[idx]; !sent {
			if sc.uniTags == nil {
				sc.uniTags = make(map[*coverage.Index]uint64)
			}
			tag = uint64(len(sc.uniTags)) + 1
			sc.uniTags[idx] = tag
			inline = idx.IDs()
		}
	}
	return writeRawFrame(sc.w, encodeRunResponse(id, errStr, outs, tag, inline))
}

// cancelledBatch is the in-band error a worker answers a cancelled run
// request with: the client that sent the cancel maps it back to its
// own ctx.Err(), anyone else treats it as a dead backend and requeues.
const cancelledBatch = "cancelled"

// pipelineQueueMax bounds how many run requests one connection may
// hold queued behind the executing batches. Clients pipeline far fewer
// (Remote defaults to 4); a client that exceeds the bound just blocks
// the connection's read loop — its own cancels included — until the
// queue drains, which only hurts itself.
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
// Ctrl-C never waits for a batch to run out.
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

	// The executors. Their write errors are not surfaced separately: a
	// broken connection fails the read loop too, which is where the
	// connection error is reported.
	queue := make(chan queuedRun, pipelineQueueMax)
	var executors sync.WaitGroup
	for i := 0; i < workers; i++ {
		executors.Add(1)
		go func() {
			defer executors.Done()
			for qr := range queue {
				serveRun(local, sc, counters, qr)
				retire(qr.id)
			}
		}()
	}

	var readErr error
read:
	for {
		payload, err := readRawFrame(conn)
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
					Proto:    protoVersion,
					Capacity: workers,
					Systems:  system.Names(),
					Images:   workerImages(),
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

// serveRun executes one queued run request and writes its response.
func serveRun(local *Local, sc *serverConn, counters *serveCounters, qr queuedRun) {
	id, b, err := decodeRunRequest(qr.payload)
	var outs []*Outcome
	if err == nil {
		outs, err = local.Run(qr.ctx, b)
		if counters != nil {
			counters.batches.Add(1)
			counters.runs.Add(int64(len(outs)))
		}
	}
	var errStr string
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
	_ = sc.respond(id, errStr, outs) // a broken connection fails the read loop, which reports it
}
