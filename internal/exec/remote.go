package exec

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"lfi/internal/coverage"
)

// Remote is the client side of the wire protocol: one connection to a
// protocol worker — a TCP connection to `lfi serve` (Dial), or a pool
// worker subprocess's stdin/stdout (Pool).
//
// The connection is **pipelined**: Run is safe for concurrent use and
// up to Pipeline() batches ride the wire at once, matched back to
// callers by request id through a single reader goroutine — the
// worker's input queue stays non-empty, so the round-trip latency is
// off the critical path. Cancellation sends a cancel frame and the
// worker answers promptly with the completed prefix; a drain grace
// survives only as the fallback for a wedged worker. A broken
// connection fails every in-flight batch with BackendError and marks
// the backend dead — the scheduler requeues the batches' runs
// elsewhere, so killing a worker loses no work.
type Remote struct {
	addr  string
	hello helloInfo

	// drainGrace bounds how long a cancelled Run keeps waiting for the
	// in-flight response before force-closing the connection. The
	// cancel frame makes the response arrive in batch-drain time
	// (milliseconds); the grace only catches a wedged worker.
	drainGrace time.Duration
	// pipeline is the in-flight batch budget Pipeline() advertises to
	// the fleet scheduler.
	pipeline int

	mu      sync.Mutex // request ids + pending-response registry
	nextID  uint64
	pending map[uint64]chan *response
	readErr error // reader's terminal error; set once under mu

	writeMu sync.Mutex // one frame writer at a time

	// universes is the per-connection coverage-universe table. Only
	// the reader goroutine touches it after the hello exchange.
	universes map[uint64]*coverage.Index

	funcsMu sync.Mutex
	funcs   map[string]map[string]string // system -> fingerprint cache

	// conn teardown has its own lock: a drain timeout must force-close
	// the connection while the reader is blocked in a read — closing
	// the stream is exactly what unblocks that read.
	connMu sync.Mutex
	conn   io.ReadWriteCloser

	readDone chan struct{}
}

// ProtoMismatchError reports a worker whose wire protocol version is
// not this client's. The fleet assembler treats it as "drop this
// worker", not "abort the campaign" — the worker just needs a rebuild.
type ProtoMismatchError struct {
	Addr string
	Got  int
}

// Error renders the mismatch with the remedy.
func (e *ProtoMismatchError) Error() string {
	return fmt.Sprintf("exec: remote %s: worker speaks proto v%d, need v%d — rebuild worker",
		e.Addr, e.Got, protoVersion)
}

// drainGraceTimeout is generous: a batch is at most a few hundred
// simulated runs, each of which completes in milliseconds.
const drainGraceTimeout = 30 * time.Second

// defaultPipeline is how many batches a connection keeps in flight:
// enough that the worker never idles waiting on the wire, few enough
// that a cancel loses little queued work.
const defaultPipeline = 4

// Dial connects to an `lfi serve` worker and performs the hello
// exchange, learning the worker's capacity, registered systems, and
// per-system image versions. A worker speaking any protocol version
// but this build's fails with ProtoMismatchError so fleet assembly can
// drop the worker and keep the campaign.
func Dial(addr string) (*Remote, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("exec: remote %s: %w", addr, err)
	}
	return newRemote(addr, conn)
}

// newRemote performs the hello exchange over conn and starts the
// reader. On failure conn is closed.
func newRemote(addr string, conn io.ReadWriteCloser) (*Remote, error) {
	r := &Remote{
		addr:       addr,
		conn:       conn,
		drainGrace: drainGraceTimeout,
		pipeline:   defaultPipeline,
		pending:    make(map[uint64]chan *response),
		universes:  make(map[uint64]*coverage.Index),
		readDone:   make(chan struct{}),
	}
	// Hello runs synchronously, before the reader demux starts.
	r.nextID = 1
	var resp response
	err := writeFrame(conn, &request{ID: 1, Method: "hello"})
	if err == nil {
		var payload []byte
		if payload, err = readRawFrame(conn); err == nil {
			err = json.Unmarshal(payload, &resp)
		}
	}
	switch {
	case err != nil:
		err = fmt.Errorf("exec: remote %s: hello: %w", addr, err)
	case resp.ID != 1 || resp.Hello == nil:
		err = fmt.Errorf("exec: remote %s: malformed hello response", addr)
	case resp.Hello.Proto != protoVersion:
		err = &ProtoMismatchError{Addr: addr, Got: resp.Hello.Proto}
	}
	if err != nil {
		conn.Close()
		return nil, err
	}
	r.hello = *resp.Hello
	go r.readLoop(conn)
	return r, nil
}

// SetPipeline overrides the in-flight batch budget (default 4). It
// only informs the scheduler via Pipeline(); Run itself accepts any
// number of concurrent callers.
func (r *Remote) SetPipeline(k int) {
	if k > 0 {
		r.pipeline = k
	}
}

// Pipeline reports how many batches this backend wants in flight at
// once.
func (r *Remote) Pipeline() int { return r.pipeline }

// Info reports the worker's advertised metadata. A remote worker is
// crash-isolated by construction: it is a different process on
// (possibly) a different machine.
func (r *Remote) Info() Info {
	return Info{Name: "remote(" + r.addr + ")", Kind: KindRemote, Capacity: r.hello.Capacity, Isolated: true}
}

// Systems returns the registered system names the worker advertised.
func (r *Remote) Systems() []string { return r.hello.Systems }

// ImageVersion reports the image version the worker advertised for a
// system ("" for a system it lacks).
func (r *Remote) ImageVersion(sys string) string { return r.hello.Images[sys] }

// FuncFingerprints fetches (and caches) the worker's per-function
// fingerprints for one system — the mixed-build reconciliation input:
// diffing them against the local build's fingerprints bounds what an
// image divergence can have touched.
func (r *Remote) FuncFingerprints(sys string) (map[string]string, error) {
	r.funcsMu.Lock()
	defer r.funcsMu.Unlock()
	if m, ok := r.funcs[sys]; ok {
		return m, nil
	}
	conn := r.liveConn()
	if conn == nil {
		return nil, fmt.Errorf("exec: remote %s: connection closed", r.addr)
	}
	id, ch, err := r.register()
	if err != nil {
		return nil, fmt.Errorf("exec: remote %s: funcs: %w", r.addr, err)
	}
	r.writeMu.Lock()
	werr := writeFrame(conn, &request{ID: id, Method: "funcs", System: sys})
	r.writeMu.Unlock()
	if werr != nil {
		r.abandon(id)
		r.Close()
		return nil, fmt.Errorf("exec: remote %s: funcs: %w", r.addr, werr)
	}
	resp := <-ch
	if resp == nil {
		return nil, fmt.Errorf("exec: remote %s: funcs: %w", r.addr, r.readError())
	}
	if resp.Error != "" {
		return nil, fmt.Errorf("exec: remote %s: funcs: %s", r.addr, resp.Error)
	}
	if r.funcs == nil {
		r.funcs = make(map[string]map[string]string)
	}
	r.funcs[sys] = resp.Funcs
	return resp.Funcs, nil
}

// Close shuts the connection down. It never waits on an in-flight
// call: closing the stream is what fails the reader's blocked read,
// which in turn fails every pending request.
func (r *Remote) Close() error {
	r.connMu.Lock()
	defer r.connMu.Unlock()
	if r.conn == nil {
		return nil
	}
	err := r.conn.Close()
	r.conn = nil
	return err
}

// liveConn snapshots the connection for one exchange.
func (r *Remote) liveConn() io.ReadWriteCloser {
	r.connMu.Lock()
	defer r.connMu.Unlock()
	return r.conn
}

// register allocates a request id and its response channel.
func (r *Remote) register() (uint64, chan *response, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.readErr != nil {
		return 0, nil, r.readErr
	}
	r.nextID++
	id := r.nextID
	ch := make(chan *response, 1)
	r.pending[id] = ch
	return id, ch, nil
}

// abandon forgets a request whose frame never made it out.
func (r *Remote) abandon(id uint64) {
	r.mu.Lock()
	delete(r.pending, id)
	r.mu.Unlock()
}

// readError reports why the reader stopped.
func (r *Remote) readError() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.readErr != nil {
		return r.readErr
	}
	return fmt.Errorf("connection closed")
}

// readLoop is the connection's single reader: it decodes every inbound
// frame (binary run responses against the shared universe table, JSON
// for the control methods) and hands it to the pending request it answers.
// On any failure it tears the connection down and fails every pending
// request — their callers surface BackendError and the scheduler
// requeues.
func (r *Remote) readLoop(conn io.Reader) {
	var err error
	for {
		var payload []byte
		payload, err = readRawFrame(conn)
		if err != nil {
			break
		}
		resp := new(response)
		if isBinaryFrame(payload, frameRunResp) {
			err = decodeRunResponse(payload, resp, r.universes)
		} else {
			err = json.Unmarshal(payload, resp)
		}
		if err != nil {
			break
		}
		r.mu.Lock()
		ch := r.pending[resp.ID]
		delete(r.pending, resp.ID)
		r.mu.Unlock()
		if ch == nil {
			err = fmt.Errorf("response id %d answers no in-flight request", resp.ID)
			break
		}
		ch <- resp
	}
	r.Close()
	r.mu.Lock()
	r.readErr = err
	for id, ch := range r.pending {
		delete(r.pending, id)
		close(ch)
	}
	r.mu.Unlock()
	close(r.readDone)
}

// Run ships the batch to the worker and waits for its outcomes; it is
// safe for concurrent use (the fleet pipelines several batches onto
// one connection). On cancellation it sends a cancel frame so the
// worker stops after its in-flight runs and answers with the completed
// prefix — returned with ctx.Err(), so the caller persists them
// exactly like a locally interrupted batch. A worker that does not
// answer within the drain grace is wedged and force-closed. Transport
// failures (a killed worker) come back as BackendError: requeue, don't
// retry here.
func (r *Remote) Run(ctx context.Context, b *Batch) ([]*Outcome, error) {
	conn := r.liveConn()
	if conn == nil {
		return nil, &BackendError{Backend: r.Info().Name, Err: fmt.Errorf("connection closed")}
	}
	id, ch, err := r.register()
	if err != nil {
		return nil, &BackendError{Backend: r.Info().Name, Err: err}
	}
	r.writeMu.Lock()
	err = writeRawFrame(conn, encodeRunRequest(id, b))
	r.writeMu.Unlock()
	if err != nil {
		r.abandon(id)
		r.Close()
		return nil, &BackendError{Backend: r.Info().Name, Err: err}
	}
	var resp *response
	cancelled := false
	select {
	case resp = <-ch:
	case <-ctx.Done():
		cancelled = true
		// Fast drain: the worker stops after in-flight runs and
		// answers with the prefix. A write failure just leaves us on
		// the grace path below.
		r.writeMu.Lock()
		writeRawFrame(conn, encodeCancel(id))
		r.writeMu.Unlock()
		t := time.NewTimer(r.drainGrace)
		select {
		case resp = <-ch:
			t.Stop()
		case <-t.C:
			r.Close()
			<-r.readDone // reader fails remaining pending requests
			return nil, &BackendError{Backend: r.Info().Name, Err: fmt.Errorf("cancelled and drain timed out")}
		}
	}
	if resp == nil {
		// Reader died and closed the channel: transport failure.
		return nil, &BackendError{Backend: r.Info().Name, Err: r.readError()}
	}
	outs := r.observed(b, resp.Outcomes)
	switch {
	case cancelled:
		if resp.Error != "" && resp.Error != cancelledBatch {
			return outs, fmt.Errorf("exec: remote %s: %s", r.addr, resp.Error)
		}
		return outs, ctx.Err()
	case resp.Error == cancelledBatch:
		// The worker cancelled without us asking (it is shutting
		// down): a backend failure with a salvageable prefix.
		return outs, &BackendError{Backend: r.Info().Name, Err: errors.New("worker cancelled batch")}
	case resp.Error != "":
		// A batch problem (unknown system, bad scenario, mid-batch run
		// error), not a backend one; the worker's completed prefix
		// still comes back for the caller to fold.
		return outs, fmt.Errorf("exec: remote %s: %s", r.addr, resp.Error)
	}
	return outs, nil
}

// observed caps outcomes at the batch length, tags them with the
// worker's image version when it differs from the batch's expected
// image (the mixed-build handshake), and streams them to the batch
// observer.
func (r *Remote) observed(b *Batch, outs []*Outcome) []*Outcome {
	if len(outs) > len(b.Scenarios) {
		outs = outs[:len(b.Scenarios)]
	}
	if img := r.hello.Images[b.System]; img != "" && b.Image != "" && img != b.Image {
		for _, o := range outs {
			o.Image = img
		}
	}
	if b.Observe != nil {
		for i, o := range outs {
			b.Observe(i, o)
		}
	}
	return outs
}
