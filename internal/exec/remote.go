package exec

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"lfi/internal/coverage"
	"lfi/internal/system"
)

// Remote is the client side of the wire protocol: one connection to a
// protocol worker — a TCP connection to `lfi serve` (Dial), or a pool
// worker subprocess's stdin/stdout (NewPool).
//
// The connection is **pipelined**: Run is safe for concurrent use, and
// every concurrent call's batch rides the wire at once, matched back to
// its caller by request id through a single reader goroutine. The
// depth comes from the callers — the explorer keeps two batches in
// flight, and Session callers may add more — so the worker's input
// queue stays non-empty and the round trip is off the critical path;
// a worker of width n runs up to n of the batches side by side,
// answering each as it finishes. Each batch is one frame, written with
// one Write, and the reader takes frames through one buffered reader
// that the hello exchange shares. Cancellation sends a cancel frame and
// the worker answers promptly with the completed prefix; a drain grace
// survives only as the fallback for a wedged worker. A broken
// connection fails every in-flight batch with BackendError and marks
// the backend dead — the scheduler requeues the batches' runs
// elsewhere, so killing a worker loses no work.
type Remote struct {
	addr  string
	name  string // Info().Name: remote(addr), or the pool slot
	kind  Kind
	hello helloInfo

	// systems is what the hello established per system the worker
	// advertised: the image ImageVersion reports, and the block universe
	// run responses' coverage is over. Read-only after the hello.
	systems map[string]helloSystem

	// respawn, set on pool members, starts a replacement worker under
	// the same name; the fleet calls it when this member's transport
	// fails (see Fleet.Run).
	respawn func() (*Remote, error)

	// drainGrace bounds how long a cancelled Run keeps waiting for the
	// in-flight response before force-closing the connection. The
	// cancel frame makes the response arrive in batch-drain time
	// (milliseconds); the grace only catches a wedged worker.
	drainGrace time.Duration
	// pipeline is what Pipeline() reports; nothing schedules by it.
	pipeline int

	mu      sync.Mutex // request ids + pending-response registry
	nextID  uint64
	pending map[uint64]call
	readErr error // reader's terminal error; set once under mu

	writeMu sync.Mutex // one frame writer at a time
	reqBuf  []byte     // the run request frame being written, under writeMu

	// conn teardown has its own lock: a drain timeout must force-close
	// the connection while the reader is blocked in a read — closing
	// the stream is exactly what unblocks that read.
	connMu sync.Mutex
	conn   io.ReadWriteCloser

	readDone chan struct{}
}

// helloSystem is one advertised system as the hello left it. blocks is
// this process's Descriptor.Blocks when the worker's universe of the
// system fingerprints the same, nil when it does not: then the worker
// runs another build of the system, and image names the mismatch, a
// value no batch image equals.
type helloSystem struct {
	image  string
	blocks *coverage.Index
}

// call is one in-flight request: where its response goes, and the
// universe a run response's coverage is decoded over.
type call struct {
	ch     chan *response
	blocks *coverage.Index
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

// defaultPipeline is what Pipeline() reports unless SetPipeline
// changed it.
//
// Deprecated: the fleet no longer reads it (see Remote.Pipeline).
const defaultPipeline = 4

// Dial connects to an `lfi serve` worker and performs the hello
// exchange, learning the worker's capacity, registered systems, and
// per-system image versions and block universes. A worker speaking any
// protocol version but this build's fails with ProtoMismatchError so
// fleet assembly can drop the worker and keep the campaign.
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
		name:       "remote(" + addr + ")",
		kind:       KindRemote,
		conn:       conn,
		drainGrace: drainGraceTimeout,
		pipeline:   defaultPipeline,
		pending:    make(map[uint64]call),
		readDone:   make(chan struct{}),
	}
	// Hello runs synchronously, before the reader demux starts, through
	// the reader the demux then takes over: bytes it read ahead of the
	// hello response belong to the frames after it.
	r.nextID = 1
	fr := &frameReader{r: bufio.NewReader(conn)}
	var resp response
	err := writeFrame(conn, &request{ID: 1, Method: "hello"})
	if err == nil {
		var payload []byte
		if payload, err = fr.read(); err == nil {
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
	r.systems = checkSystems(r.hello)
	go r.readLoop(fr)
	return r, nil
}

// checkSystems compares the worker's block universe of each system it
// advertises with this process's Blocks, once per connection.
func checkSystems(h helloInfo) map[string]helloSystem {
	out := make(map[string]helloSystem, len(h.Systems))
	for _, sys := range h.Systems {
		s := helloSystem{image: h.Images[sys]}
		theirs, ours := h.Universes[sys], "none"
		if d, ok := system.Lookup(sys); ok {
			if ours = universeHash(d.Blocks); ours == theirs {
				s.blocks = d.Blocks
			}
		}
		if s.blocks == nil {
			s.image = fmt.Sprintf("%s over block universe %s, not this build's %s", s.image, theirs, ours)
		}
		out[sys] = s
	}
	return out
}

// SetPipeline sets what Pipeline reports (default 4). Run accepts any
// number of concurrent callers regardless.
//
// Deprecated: the fleet no longer reads Pipeline; it sends each chunk
// of a batch as one Run call.
func (r *Remote) SetPipeline(k int) {
	if k > 0 {
		r.pipeline = k
	}
}

// Pipeline reports the value SetPipeline set.
//
// Deprecated: the fleet no longer reads it; the depth on a connection
// comes from concurrent Run callers. It stays while bench/trace.go's
// wrapper requires it beside ImageVersion.
func (r *Remote) Pipeline() int { return r.pipeline }

// Info reports the worker's advertised metadata. A remote worker is
// crash-isolated by construction: it is a different process on
// (possibly) a different machine.
func (r *Remote) Info() Info {
	return Info{Name: r.name, Kind: r.kind, Capacity: r.hello.Capacity, Isolated: true}
}

// ImageVersion reports the image version the worker advertised for a
// system ("" for a system it lacks). A Fleet sends the worker only the
// batches whose Image it equals, so for a system whose block universe
// is not this process's it reports the mismatch instead, which no
// batch image equals.
func (r *Remote) ImageVersion(sys string) string { return r.systems[sys].image }

// FuncFingerprints fetches the worker's per-function fingerprints for
// one system (the "funcs" method).
func (r *Remote) FuncFingerprints(sys string) (map[string]string, error) {
	conn := r.liveConn()
	if conn == nil {
		return nil, fmt.Errorf("exec: remote %s: connection closed", r.addr)
	}
	id, ch, err := r.register(nil)
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

// register allocates a request id and its response channel; blocks is
// the universe a run response's coverage is decoded over.
func (r *Remote) register(blocks *coverage.Index) (uint64, chan *response, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.readErr != nil {
		return 0, nil, r.readErr
	}
	r.nextID++
	id := r.nextID
	ch := make(chan *response, 1)
	r.pending[id] = call{ch: ch, blocks: blocks}
	return id, ch, nil
}

// claim takes the in-flight request a response answers off the
// registry.
func (r *Remote) claim(id uint64) (call, error) {
	r.mu.Lock()
	c, ok := r.pending[id]
	delete(r.pending, id)
	r.mu.Unlock()
	if !ok {
		return c, fmt.Errorf("response id %d answers no in-flight request", id)
	}
	return c, nil
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
// frame (binary run responses over the universe their request
// registered, JSON for the control methods) and hands it to the
// pending request it answers. On any failure, an undecodable frame or
// coverage outside the universe included, it tears the connection down
// and fails every pending request — their callers surface BackendError
// and the scheduler requeues.
func (r *Remote) readLoop(fr *frameReader) {
	var (
		err error
		c   call // claimed by the frame being read, until delivered
	)
	for {
		var payload []byte
		payload, err = fr.read()
		if err != nil {
			break
		}
		resp := new(response)
		if isBinaryFrame(payload, frameRunResp) {
			if resp.ID, err = frameID(payload); err == nil {
				if c, err = r.claim(resp.ID); err == nil {
					err = decodeRunResponse(payload, resp, c.blocks)
				}
			}
		} else if err = json.Unmarshal(payload, resp); err == nil {
			c, err = r.claim(resp.ID)
		}
		if err != nil {
			break
		}
		c.ch <- resp
		c = call{}
	}
	r.Close()
	r.mu.Lock()
	r.readErr = err
	if c.ch != nil {
		close(c.ch)
	}
	for id, c := range r.pending {
		delete(r.pending, id)
		close(c.ch)
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
	s, advertised := r.systems[b.System]
	if b.Coverage && advertised && s.blocks == nil {
		return nil, fmt.Errorf("exec: remote %s: no coverage of %s from a worker that runs it as %s", r.addr, b.System, s.image)
	}
	id, ch, err := r.register(s.blocks)
	if err != nil {
		return nil, &BackendError{Backend: r.Info().Name, Err: err}
	}
	r.writeMu.Lock()
	r.reqBuf = appendRunRequest(newFrame(r.reqBuf), id, b)
	err = sendFrame(conn, r.reqBuf)
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
		sendFrame(conn, appendCancel(newFrame(nil), id))
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

// observed caps outcomes at the batch length and streams them to the
// batch observer.
func (r *Remote) observed(b *Batch, outs []*Outcome) []*Outcome {
	if len(outs) > len(b.Scenarios) {
		outs = outs[:len(b.Scenarios)]
	}
	if b.Observe != nil {
		for i, o := range outs {
			b.Observe(i, o)
		}
	}
	return outs
}
