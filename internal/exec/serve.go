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
	"strings"
	"sync"
	"sync/atomic"

	"lfi/internal/coverage"
	"lfi/internal/fleetd"
	"lfi/internal/impact"
	"lfi/internal/isa"
	"lfi/internal/scenario"
	"lfi/internal/system"
)

// This file is the worker side of the wire protocol: the TCP server
// behind `lfi serve`, the stdio loop pool workers run, and the
// self-re-exec hook that turns any binary calling MaybeWorker into a
// pool-capable worker.

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

// EnvPatch, when set to "system:function" alongside EnvServe, applies
// an inert one-function patch to that system's image before serving —
// a deliberately mixed-build worker for tests and smoke jobs: it
// executes identically but advertises a different image version and
// per-function fingerprints, exercising the reconciliation path.
const EnvPatch = "LFI_EXEC_PATCH"

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
		err := ServeConn(struct {
			io.Reader
			io.Writer
		}{os.Stdin, os.Stdout}, jobs)
		if err != nil && !errors.Is(err, io.EOF) {
			fmt.Fprintln(os.Stderr, "lfi exec worker:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	if addr := os.Getenv(EnvServe); addr != "" {
		if spec := os.Getenv(EnvPatch); spec != "" {
			if err := PatchWorkerSystem(spec); err != nil {
				fmt.Fprintln(os.Stderr, "lfi exec serve:", err)
				os.Exit(1)
			}
		}
		ln, err := net.Listen("tcp", addr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "lfi exec serve:", err)
			os.Exit(1)
		}
		fmt.Printf("listening %s\n", ln.Addr())
		opts := ServeOptions{Workers: jobs}
		ctx := context.Background()
		if reg := os.Getenv(EnvRegister); reg != "" {
			opts.Counters = new(ServeCounters)
			agent := fleetd.NewAgent(reg, WorkerRegistration(ln.Addr().String(), jobs), opts.Counters.Stats)
			go agent.Run(ctx)
		}
		if err := ServeWith(ctx, ln, opts); err != nil && ctx.Err() == nil {
			fmt.Fprintln(os.Stderr, "lfi exec serve:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
}

// PatchWorkerSystem replaces the registered system named in spec
// ("system:function") with a copy whose image carries the inert
// one-function patch of impact.PatchFunc. Execution is unchanged (the
// patch is behavior-preserving by construction), but the image hash
// and the function's fingerprint differ — this process now looks like
// a worker built from a different commit, which is exactly what the
// mixed-build reconciliation tests need.
func PatchWorkerSystem(spec string) error {
	name, fn, ok := strings.Cut(spec, ":")
	if !ok || name == "" || fn == "" {
		return fmt.Errorf("exec: patch spec %q: want system:function", spec)
	}
	d, ok := system.Lookup(name)
	if !ok {
		return fmt.Errorf("exec: patch: system %q not registered (have: %v)", name, system.Names())
	}
	orig := d.Binary
	b, _ := orig()
	if _, err := impact.PatchFunc(b, fn); err != nil {
		return fmt.Errorf("exec: patch %s: %w", spec, err)
	}
	nd := *d
	nd.Binary = func() (*isa.Binary, map[string]uint64) {
		b, offs := orig()
		pb, err := impact.PatchFunc(b, fn)
		if err != nil {
			return b, offs
		}
		return pb, offs
	}
	return system.Replace(&nd)
}

// WorkerRegistration describes this process as a fleet worker: the
// registry record `lfi serve -register` announces, advertising the
// same systems and image versions the hello exchange does.
func WorkerRegistration(addr string, workers int) fleetd.Worker {
	return fleetd.Worker{
		Addr:     addr,
		Capacity: workers,
		Proto:    protoVersion,
		Systems:  system.Names(),
		Images:   workerImages(),
	}
}

// ServeCounters aggregates a worker's lifetime execution counters for
// heartbeat reporting: batches and runs completed, and batches cut
// short by a cancel frame. All methods are safe for concurrent use.
type ServeCounters struct {
	batches atomic.Int64
	runs    atomic.Int64
	cancels atomic.Int64
}

// Stats snapshots the counters in the registry's heartbeat form.
func (c *ServeCounters) Stats() fleetd.WorkerStats {
	if c == nil {
		return fleetd.WorkerStats{}
	}
	return fleetd.WorkerStats{
		Batches: c.batches.Load(),
		Runs:    c.runs.Load(),
		Cancels: c.cancels.Load(),
	}
}

// ServeOptions parametrizes ServeWith beyond the listener: the
// in-process pool width each connection's batches run on, an optional
// log sink, and optional counters for heartbeat reporting.
type ServeOptions struct {
	Workers  int
	Log      io.Writer
	Counters *ServeCounters
}

// Serve accepts protocol connections on ln until ctx is cancelled and
// answers each with the connection loop — the engine behind
// `lfi serve`. See ServeWith for the full option set.
func Serve(ctx context.Context, ln net.Listener, workers int, logw io.Writer) error {
	return ServeWith(ctx, ln, ServeOptions{Workers: workers, Log: logw})
}

// ServeWith accepts protocol connections on ln until ctx is cancelled.
// Every batch a connection carries runs on an in-process pool of
// opts.Workers width. Cancellation closes the listener and every
// active connection: a client mid-batch observes a dead worker and
// requeues (the same contract as a killed worker process).
func ServeWith(ctx context.Context, ln net.Listener, opts ServeOptions) error {
	if opts.Workers <= 0 {
		opts.Workers = 1
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
			err := serveConn(ctx, conn, opts)
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
// system, computed exactly as the explorer computes its own
// (explore.ImageVersion): binary name + "@" + image hash. A client
// compares these against its build to detect a mixed-build worker.
func workerImages() map[string]string {
	ds := system.All()
	out := make(map[string]string, len(ds))
	for _, d := range ds {
		b, _ := d.Binary()
		out[d.Name] = b.Name + "@" + impact.ImageHash(b.Code)
	}
	return out
}

// scenarioCacheMax caps a connection's parsed-scenario cache; beyond it
// the cache is dropped wholesale (campaigns resend a bounded working
// set of scenario documents, and a fresh parse is always correct).
const scenarioCacheMax = 4096

// serverConn is the per-connection protocol state: the parsed-scenario
// cache (repeated batches reuse scenario — and therefore compiled-
// program — identity) and the coverage-universe tags already sent to
// this client. It is touched only by the connection's executor
// goroutine, so it needs no locking even under pipelining.
type serverConn struct {
	scenarios map[string]*scenario.Scenario // canonical XML -> parsed
	uniTags   map[*coverage.Index]uint64
	sent      map[uint64]bool
	nextTag   uint64
}

// parse resolves one canonical XML document, memoized per connection.
func (sc *serverConn) parse(doc string) (*scenario.Scenario, error) {
	if s, ok := sc.scenarios[doc]; ok {
		return s, nil
	}
	s, err := scenario.ParseString(doc)
	if err != nil {
		return nil, err
	}
	if sc.scenarios == nil || len(sc.scenarios) >= scenarioCacheMax {
		sc.scenarios = make(map[string]*scenario.Scenario)
	}
	sc.scenarios[doc] = s
	return s, nil
}

// universe assigns (or recalls) this connection's tag for a coverage
// universe and reports whether its ID table must still be sent inline.
func (sc *serverConn) universe(idx *coverage.Index) (tag uint64, inline []string) {
	if sc.uniTags == nil {
		sc.uniTags = make(map[*coverage.Index]uint64)
		sc.sent = make(map[uint64]bool)
	}
	tag, ok := sc.uniTags[idx]
	if !ok {
		sc.nextTag++
		tag = sc.nextTag
		sc.uniTags[idx] = tag
	}
	if !sc.sent[tag] {
		sc.sent[tag] = true
		return tag, idx.IDs()
	}
	return tag, nil
}

// cancelledBatch is the in-band error a worker answers a cancelled run
// request with: the client that sent the cancel maps it back to its
// own ctx.Err(), anyone else treats it as a dead backend and requeues.
const cancelledBatch = "cancelled"

// pipelineQueueMax bounds how many run requests one connection may
// hold queued behind the executing batch. Clients pipeline far fewer
// (Remote defaults to 4); a client that exceeds the bound just blocks
// the connection's read loop — its own cancels included — until the
// queue drains, which only hurts itself.
const pipelineQueueMax = 64

// queuedRun is one run request awaiting the connection's executor
// goroutine. The payload is decoded at execution time, so the read
// loop never touches serverConn state.
type queuedRun struct {
	id      uint64
	payload []byte
	ctx     context.Context
}

// ServeConn answers one protocol connection: hello, then run requests,
// each batch executed on an in-process Local backend of the given
// width. It returns io.EOF on clean client disconnect. Which systems
// the worker offers follows from which system packages the serving
// binary imports (cmd/lfi imports them all via the lfi facade).
func ServeConn(conn io.ReadWriter, workers int) error {
	return serveConn(context.Background(), conn, ServeOptions{Workers: workers})
}

// serveConn is the connection loop. Run and cancel requests arrive as
// binary frames, hello and funcs as JSON — the first payload byte
// tells them apart.
//
// The loop splits into two goroutines so pipelining and cancellation
// work: the read loop enqueues run requests (up to pipelineQueueMax
// deep) and handles control frames inline, while a single
// executor goroutine runs batches strictly in arrival order
// (determinism: same FIFO execution a sequential client got). A
// cancel frame cancels the named request's context whether it is
// executing or still queued; the cancelled batch answers with its
// completed prefix and the in-band "cancelled" error, so a client's
// Ctrl-C never waits for a batch to run out.
func serveConn(ctx context.Context, conn io.ReadWriter, opts ServeOptions) error {
	workers := opts.Workers
	if workers <= 0 {
		workers = 1
	}
	local := NewLocal(workers)
	sc := &serverConn{}
	var (
		writeMu  sync.Mutex
		cancelMu sync.Mutex
		cancels  = make(map[uint64]context.CancelFunc)
	)
	write := func(data []byte) error {
		writeMu.Lock()
		defer writeMu.Unlock()
		return writeRawFrame(conn, data)
	}
	writeJSON := func(v any) error {
		writeMu.Lock()
		defer writeMu.Unlock()
		return writeFrame(conn, v)
	}
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

	// The executor: batches run one at a time, FIFO. Its write errors
	// are not surfaced separately — a broken connection fails the read
	// loop too, which is where the connection error is reported.
	queue := make(chan queuedRun, pipelineQueueMax)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for qr := range queue {
			serveRun(local, sc, opts.Counters, qr, write)
			retire(qr.id)
		}
	}()

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
				if err := writeJSON(&resp); err != nil {
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
				if err := writeJSON(&resp); err != nil {
					readErr = err
					break read
				}
			default:
				resp := response{ID: req.ID, Error: fmt.Sprintf("unknown method %q", req.Method)}
				if err := writeJSON(&resp); err != nil {
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
	<-done
	return readErr
}

// serveRun executes one queued run request and writes its response.
func serveRun(local *Local, sc *serverConn, counters *ServeCounters, qr queuedRun, write func([]byte) error) {
	id, b, err := decodeRunRequest(qr.payload, sc.parse)
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
	var tag uint64
	var inline []string
	for _, o := range outs {
		if o.CovU != nil {
			// One system per batch, so one universe per response.
			tag, inline = sc.universe(o.CovU)
			break
		}
	}
	write(encodeRunResponse(id, errStr, outs, tag, inline))
}
