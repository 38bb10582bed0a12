package pbft

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"lfi/internal/coverage"
	"lfi/internal/libsim"
)

// Tunables, scaled down from the real system so experiments run in
// milliseconds instead of minutes.
const (
	recvTimeoutMs     = 2
	rebroadcastEvery  = 4 * time.Millisecond
	viewChangeTimeout = 150 * time.Millisecond
	checkpointEvery   = 8
)

// Build selects the replica build variant, mirroring §7.1's observation
// that one PBFT bug manifests only in the release build.
type Build int

const (
	// BuildDebug checks every send and halts with an error code as
	// soon as one fails (so the view-change bug never manifests).
	BuildDebug Build = iota
	// BuildRelease retries failed sends a bounded number of times and
	// otherwise ignores the failure; under sustained loss a replica
	// can record a commit quorum without the request content and
	// later crash in the view change — the Table 1 bug.
	BuildRelease
	// BuildPatched is the post-fix build used for performance
	// studies: like release, but a commit quorum is only recorded
	// once the request content is known.
	BuildPatched
)

// sendRetries bounds the release/patched builds' immediate resend of a
// failed sendto (PBFT's robust send layer).
const sendRetries = 8

// entry is the per-sequence-number protocol state.
type entry struct {
	digest   string
	client   string
	reqID    int64
	op       string
	hasReq   bool // request content known (pre-prepare received)
	prepares map[int]bool
	commits  map[int]bool
	prepared bool
	// committed means a 2f+1 commit quorum was observed; in the
	// release build this can happen without hasReq (the seeded bug).
	committed bool
	executed  bool
}

// Replica is one PBFT server.
type Replica struct {
	ID    int
	N, F  int
	Build Build

	C  *libsim.C
	Th *libsim.Thread
	fd int64

	mu         sync.Mutex
	view       int
	seqCounter int
	entries    map[int]*entry
	// pendingReqs caches request content received directly from
	// clients, keyed by digest, so protocol messages that carry only
	// a digest can be matched to their content (PBFT's request
	// dissemination).
	pendingReqs map[string]Msg
	execUpto    int
	state       []string
	lastReply   map[string]Msg // client -> cached reply
	vcVotes     map[int]map[int]bool
	inVC        bool
	vcView      int       // view change target
	vcStreak    int       // consecutive view changes without progress
	lastVCSent  time.Time // vote retransmission pacing
	pendingAt   time.Time // oldest unexecuted request observed at
	halted      bool
	executedN   int64
	// out is the scratch each outgoing message is encoded in (sends
	// come from one goroutine: the receive loop, or the harness's
	// PollOnce); Reset keeps it, and sendto copies the datagram out.
	out []byte

	// crash is stored atomically: the panic that carries it may be
	// raised while r.mu is held, so the recover path must not lock.
	crash atomic.Pointer[libsim.Crash]

	stop chan struct{}
	done chan struct{}
}

// NewReplica creates replica i of n=3f+1, bound to the shared network.
func NewReplica(id, f int, net libsim.NetBackend, build Build) *Replica {
	c := libsim.New(1 << 22)
	c.Node = fmt.Sprintf("R%d", id)
	c.SetNet(net)
	c.MustMkdirAll("/pbft")
	c.SnapshotFS()
	return &Replica{
		ID: id, N: 3*f + 1, F: f, Build: build,
		C:           c,
		Th:          c.NewThread("bft/simple-server", "main"),
		entries:     make(map[int]*entry),
		pendingReqs: make(map[string]Msg),
		lastReply:   make(map[string]Msg),
		vcVotes:     make(map[int]map[int]bool),
		stop:        make(chan struct{}),
		done:        make(chan struct{}),
	}
}

// Reset returns a replica that never ran its receive loop (the
// scripted harness drives it through Open and PollOnce) to the state
// NewReplica left it in: the image rewound to its staged filesystem
// (Reset keeps the coverage recorder, cleared), the main thread's
// stack unwound, and the protocol state emptied. r.mu is replaced, not
// unlocked: a crash raised while it was held leaves it locked.
func (r *Replica) Reset() {
	r.C.Reset()
	r.Th.Reset()
	r.fd = 0
	r.mu = sync.Mutex{}
	r.view, r.seqCounter = 0, 0
	clear(r.entries)
	clear(r.pendingReqs)
	r.execUpto = 0
	r.state = r.state[:0]
	clear(r.lastReply)
	clear(r.vcVotes)
	r.inVC, r.vcView, r.vcStreak = false, 0, 0
	r.lastVCSent, r.pendingAt = time.Time{}, time.Time{}
	r.halted = false
	r.executedN = 0
	r.crash.Store(nil)
}

// Blocks is the replica's coverage universe; blocks follow the
// rec.<siteLabel> convention of the application targets. Only the
// scripted harness gives a replica's image a recorder: live cluster
// replicas record nothing, so the view-change reproduction and the
// Figure 3 / DoS timing studies see the seed-identical hot path.
var Blocks = coverage.NewIndex([]coverage.Block{
	{ID: "main.request", LOC: 30},
	{ID: "main.preprepare", LOC: 25},
	{ID: "main.prepare", LOC: 15},
	{ID: "main.commit", LOC: 15},
	{ID: "main.exec", LOC: 20},
	{ID: "main.viewadopt", LOC: 25},
	{ID: "main.checkpoint", LOC: 12},
	{ID: "main.shutdown", LOC: 8},
	// Recovery arms: the receive-failure pacing, the robust-send retry
	// loop, and the tolerated periodic-checkpoint open failure.
	{ID: "rec.sv_recvfrom", LOC: 5, Recovery: true},
	{ID: "rec.sv_sendto", LOC: 6, Recovery: true},
	{ID: "rec.cp_fopen_ok", LOC: 3, Recovery: true},
})

// primary returns the primary replica id of a view.
func primary(view, n int) int { return view % n }

// isPrimary reports whether this replica leads its current view.
func (r *Replica) isPrimary() bool { return primary(r.view, r.N) == r.ID }

// Crash returns the crash that terminated the replica, if any.
func (r *Replica) Crash() *libsim.Crash { return r.crash.Load() }

// Halted reports whether the debug build stopped after a send failure.
func (r *Replica) Halted() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.halted
}

// Executed returns how many operations this replica has executed.
func (r *Replica) Executed() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.executedN
}

// State returns a copy of the executed operation log (for safety checks).
func (r *Replica) State() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]string(nil), r.state...)
}

// View returns the replica's current view.
func (r *Replica) View() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.view
}

// Open creates and binds the replica socket without starting the
// receive loop — the scripted harness drives receives itself.
func (r *Replica) Open() error {
	t := r.Th
	r.fd = t.Socket()
	if r.fd < 0 {
		return fmt.Errorf("pbft: replica %d: socket: %v", r.ID, t.Errno())
	}
	if t.Bind(r.fd, ReplicaAddr(r.ID)) < 0 {
		return fmt.Errorf("pbft: replica %d: bind: %v", r.ID, t.Errno())
	}
	return nil
}

// Start opens the socket and runs the replica loop in a goroutine.
func (r *Replica) Start() error {
	if err := r.Open(); err != nil {
		return err
	}
	go r.run()
	return nil
}

// PollOnce performs exactly one non-blocking receive and handles the
// message if one arrived. It reports whether a datagram was consumed;
// on a failed receive — injected or real — the caller owns the fate of
// whatever was on the wire (the scripted harness drops it, modelling a
// zero-depth socket buffer). Crashes raised while handling propagate to
// the caller, which is what the controller's monitor expects.
func (r *Replica) PollOnce(buf []byte) bool {
	var from string
	pop := r.at("svc_recv", "sv_recvfrom")
	n := r.Th.Recvfrom(r.fd, buf, &from, 0)
	pop()
	if n <= 0 {
		r.C.Cov.Hit("rec.sv_recvfrom")
		return false
	}
	if m, ok := DecodeMsg(buf[:n]); ok {
		r.handle(m)
	}
	return true
}

// Checkpoint writes one periodic checkpoint on demand (the checked
// fopen path the scripted harness exercises explicitly).
func (r *Replica) Checkpoint() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.writeCheckpointLocked()
}

// Stop terminates the loop and writes the shutdown checkpoint (which
// carries the unchecked-fopen bug).
func (r *Replica) Stop() {
	select {
	case <-r.stop:
	default:
		close(r.stop)
	}
	<-r.done
}

// run is the replica main loop: receive, process, retransmit, suspect.
func (r *Replica) run() {
	defer close(r.done)
	defer func() {
		if p := recover(); p != nil {
			if cr, ok := p.(*libsim.Crash); ok {
				r.crash.Store(cr)
				return
			}
			panic(p)
		}
	}()
	lastTick := time.Now()
	buf := make([]byte, 4096)
	recvFails := 0
	for {
		select {
		case <-r.stop:
			r.ShutdownCheckpoint()
			return
		default:
		}
		if r.Halted() {
			return
		}
		var from string
		pop := r.at("svc_recv", "sv_recvfrom")
		n := r.Th.Recvfrom(r.fd, buf, &from, recvTimeoutMs)
		pop()
		if n > 0 {
			recvFails = 0
			if m, ok := DecodeMsg(buf[:n]); ok {
				r.handle(m)
			}
		} else if n < 0 {
			// Defensive pacing: an instantly-failing receive (EINTR
			// storm) must not turn the loop into a busy spin that
			// starves the healthy replicas of CPU.
			r.C.Cov.Hit("rec.sv_recvfrom")
			recvFails++
			if recvFails >= 3 {
				time.Sleep(time.Millisecond)
			}
		}
		if time.Since(lastTick) >= rebroadcastEvery {
			lastTick = time.Now()
			r.tick()
		}
	}
}

// send transmits one message to a peer or client address. The debug
// build halts with an error code on the first send failure; the
// release and patched builds retry a bounded number of times and then
// give the message up — in the release build silently, which is the
// root of the view-change bug.
func (r *Replica) send(dst string, m Msg) {
	r.out = m.AppendTo(r.out[:0])
	payload := r.out
	attempts := 1
	if r.Build != BuildDebug {
		attempts = 1 + sendRetries
	}
	for i := 0; i < attempts; i++ {
		pop := r.at("svc_send", "sv_sendto")
		n := r.Th.Sendto(r.fd, payload, dst)
		pop()
		if n >= 0 {
			return
		}
		if i == 0 && attempts > 1 {
			r.C.Cov.Hit("rec.sv_sendto") // robust-send retry path entered
		}
	}
	if r.Build == BuildDebug {
		r.mu.Lock()
		r.halted = true
		r.mu.Unlock()
	}
}

// broadcast sends to every other replica.
func (r *Replica) broadcast(m Msg) {
	for i := 0; i < r.N; i++ {
		if i != r.ID {
			r.send(ReplicaAddr(i), m)
		}
	}
}

func (r *Replica) at(fn, label string) func() {
	_, offsets := Binary()
	return r.Th.Enter(ModuleServer, fn, offsets[label])
}

// getEntry returns (creating if needed) the protocol entry for seq.
func (r *Replica) getEntry(seq int) *entry {
	e, ok := r.entries[seq]
	if !ok {
		e = &entry{prepares: make(map[int]bool), commits: make(map[int]bool)}
		r.entries[seq] = e
	}
	return e
}

// fillContentLocked completes an entry whose digest is known but whose
// request content has not arrived, using the client-supplied request
// cache. The release build cannot repair slots that were already
// recorded as committed: its commit-log insert stored a dangling
// request pointer, and that is the seeded view-change bug.
func (r *Replica) fillContentLocked(e *entry) {
	if e.hasReq || e.digest == "" {
		return
	}
	if e.committed && r.Build == BuildRelease {
		return // corrupt slot; late content cannot fix it
	}
	req, ok := r.pendingReqs[e.digest]
	if !ok {
		return
	}
	e.client, e.reqID, e.op, e.hasReq = req.Client, req.ReqID, req.Op, true
}

// handle dispatches one received message. It takes the replica lock for
// state mutation and releases it around network sends.
func (r *Replica) handle(m Msg) {
	switch m.Type {
	case TypeRequest:
		r.onRequest(m)
	case TypePrePrepare:
		r.onPrePrepare(m)
	case TypePrepare:
		r.onPrepare(m)
	case TypeCommit:
		r.onCommit(m)
	case TypeViewChange:
		r.onViewChange(m)
	case TypeNewView:
		r.onNewView(m)
	}
}

func (r *Replica) onRequest(m Msg) {
	r.C.Cov.Hit("main.request")
	r.mu.Lock()
	// Duplicate of an executed request: resend the cached reply.
	if rep, ok := r.lastReply[m.Client]; ok && rep.ReqID == m.ReqID {
		r.mu.Unlock()
		r.send(m.Client, rep)
		return
	}
	d := digest(m.Client, m.ReqID, m.Op)
	// Cache the content so digest-only protocol messages can be
	// matched to it; repair entries already waiting for this digest.
	r.pendingReqs[d] = m
	for _, e := range r.entries {
		r.fillContentLocked(e)
	}
	if !r.isPrimary() {
		// Backup: remember that work is pending so the view-change
		// timer runs; the client also retransmits to the primary.
		if r.pendingAt.IsZero() {
			r.pendingAt = time.Now()
		}
		r.mu.Unlock()
		return
	}
	// Primary: assign the next sequence number, unless this request
	// is already in flight.
	for _, e := range r.entries {
		if e.digest == d && !e.executed {
			r.mu.Unlock()
			return // already proposed
		}
	}
	r.seqCounter++
	seq := r.seqCounter
	e := r.getEntry(seq)
	e.digest, e.client, e.reqID, e.op, e.hasReq = d, m.Client, m.ReqID, m.Op, true
	if r.pendingAt.IsZero() {
		r.pendingAt = time.Now()
	}
	pp := Msg{Type: TypePrePrepare, View: r.view, Seq: seq, Replica: r.ID,
		Client: m.Client, ReqID: m.ReqID, Op: m.Op, Digest: d}
	e.prepares[r.ID] = true
	r.mu.Unlock()
	r.broadcast(pp)
}

func (r *Replica) onPrePrepare(m Msg) {
	r.C.Cov.Hit("main.preprepare")
	r.mu.Lock()
	// A pre-prepare from the primary of a HIGHER view implies that a
	// quorum already moved there; adopt it (new-view semantics
	// folded in, which keeps views from skewing apart under loss).
	if m.View > r.view && m.Replica == primary(m.View, r.N) {
		r.adoptViewLocked(m.View)
	}
	if m.View != r.view || m.Replica != primary(r.view, r.N) {
		r.mu.Unlock()
		return
	}
	e := r.getEntry(m.Seq)
	if e.hasReq && e.digest != m.Digest {
		r.mu.Unlock()
		return // conflicting pre-prepare; ignore
	}
	e.digest, e.client, e.reqID, e.op, e.hasReq = m.Digest, m.Client, m.ReqID, m.Op, true
	e.prepares[m.Replica] = true
	e.prepares[r.ID] = true
	if r.pendingAt.IsZero() {
		r.pendingAt = time.Now()
	}
	p := Msg{Type: TypePrepare, View: r.view, Seq: m.Seq, Replica: r.ID, Digest: m.Digest}
	r.mu.Unlock()
	r.broadcast(p)
	r.checkQuorums(m.Seq)
}

func (r *Replica) onPrepare(m Msg) {
	r.C.Cov.Hit("main.prepare")
	r.mu.Lock()
	// Prepares are matched by (seq, digest) rather than exact view:
	// under benign loss a peer may lag one view behind, and its
	// prepare for the same digest is still evidence of agreement.
	e := r.getEntry(m.Seq)
	if e.hasReq && m.Digest != "" && e.digest != m.Digest {
		r.mu.Unlock()
		return
	}
	if e.digest == "" {
		e.digest = m.Digest
	}
	r.fillContentLocked(e)
	e.prepares[m.Replica] = true
	r.mu.Unlock()
	r.checkQuorums(m.Seq)
}

func (r *Replica) onCommit(m Msg) {
	r.C.Cov.Hit("main.commit")
	r.mu.Lock()
	e := r.getEntry(m.Seq)
	if e.digest == "" {
		e.digest = m.Digest
	}
	r.fillContentLocked(e)
	e.commits[m.Replica] = true
	r.mu.Unlock()
	r.checkQuorums(m.Seq)
}

// checkQuorums advances the entry through prepared/committed/executed.
func (r *Replica) checkQuorums(seq int) {
	r.mu.Lock()
	e := r.getEntry(seq)
	// prepared: pre-prepare + 2f matching prepares.
	if !e.prepared && e.hasReq && len(e.prepares) >= 2*r.F {
		e.prepared = true
		e.commits[r.ID] = true
		c := Msg{Type: TypeCommit, View: r.view, Seq: seq, Replica: r.ID, Digest: e.digest}
		r.mu.Unlock()
		r.broadcast(c)
		r.mu.Lock()
	}
	// committed: 2f+1 commits. The release build records this even
	// without the request content (messages were lost and the send
	// failures went unchecked) — the latent view-change bug. The
	// debug and patched builds require the content.
	if !e.committed && len(e.commits) >= 2*r.F+1 {
		if e.hasReq || r.Build == BuildRelease {
			e.committed = true
		}
	}
	r.executeReady()
	r.mu.Unlock()
}

// executeReady executes committed entries in sequence order (caller
// holds the lock).
func (r *Replica) executeReady() {
	for {
		e, ok := r.entries[r.execUpto+1]
		if !ok || !e.committed || !e.hasReq || e.executed {
			return
		}
		r.execUpto++
		e.executed = true
		r.executedN++
		r.C.Cov.Hit("main.exec")
		r.vcStreak = 0 // progress: reset the view-change backoff
		r.state = append(r.state, e.op)
		rep := Msg{Type: TypeReply, View: r.view, Seq: r.execUpto, Replica: r.ID,
			Client: e.client, ReqID: e.reqID, Result: "ok:" + e.op}
		r.lastReply[e.client] = rep
		r.pendingAt = time.Time{} // progress made
		if r.executedN%checkpointEvery == 0 {
			r.writeCheckpointLocked()
		}
		client := e.client
		r.mu.Unlock()
		r.send(client, rep)
		r.mu.Lock()
	}
}

// tick retransmits protocol messages for stalled entries and starts a
// view change when no progress happens for too long.
func (r *Replica) tick() {
	r.mu.Lock()
	var resend []Msg
	for seq, e := range r.entries {
		if e.executed {
			continue
		}
		switch {
		case e.prepared:
			resend = append(resend, Msg{Type: TypeCommit, View: r.view, Seq: seq, Replica: r.ID, Digest: e.digest})
		case e.hasReq && r.isPrimary():
			resend = append(resend, Msg{Type: TypePrePrepare, View: r.view, Seq: seq, Replica: r.ID,
				Client: e.client, ReqID: e.reqID, Op: e.op, Digest: e.digest})
		case e.hasReq:
			resend = append(resend, Msg{Type: TypePrepare, View: r.view, Seq: seq, Replica: r.ID, Digest: e.digest})
		}
	}
	// Exponential backoff on consecutive view changes (as in PBFT):
	// without it, high message loss makes operation latency exceed
	// the base timeout and reconfiguration preempts every operation.
	streak := r.vcStreak
	if streak > 4 {
		streak = 4
	}
	vcTimeout := viewChangeTimeout << streak
	stalled := !r.pendingAt.IsZero() && time.Since(r.pendingAt) > vcTimeout
	var vc Msg
	sendVC := false
	if stalled {
		if !r.inVC {
			r.inVC = true
			r.vcView = r.view + 1
			votes := r.vcVotes[r.vcView]
			if votes == nil {
				votes = make(map[int]bool)
				r.vcVotes[r.vcView] = votes
			}
			votes[r.ID] = true
		}
		// Retransmit the vote while stalled: under message loss a
		// single VIEW-CHANGE broadcast may never reach a quorum.
		if time.Since(r.lastVCSent) > viewChangeTimeout/2 {
			r.lastVCSent = time.Now()
			vc = Msg{Type: TypeViewChange, View: r.vcView, Replica: r.ID}
			sendVC = true
		}
	}
	r.mu.Unlock()
	for _, m := range resend {
		r.broadcast(m)
	}
	if sendVC {
		r.broadcast(vc)
	}
}

func (r *Replica) onViewChange(m Msg) {
	r.mu.Lock()
	if m.View <= r.view {
		r.mu.Unlock()
		return
	}
	votes := r.vcVotes[m.View]
	if votes == nil {
		votes = make(map[int]bool)
		r.vcVotes[m.View] = votes
	}
	votes[m.Replica] = true
	// Echo our own vote once someone else suspects (f+1 rule folded in).
	if !votes[r.ID] && len(votes) >= r.F+1 {
		votes[r.ID] = true
		vc := Msg{Type: TypeViewChange, View: m.View, Replica: r.ID}
		r.mu.Unlock()
		r.broadcast(vc)
		r.mu.Lock()
	}
	if len(votes) >= 2*r.F+1 && m.View > r.view {
		r.enterViewLocked(m.View)
	}
	r.mu.Unlock()
}

// enterViewLocked moves to a new view; the new primary announces it and
// re-proposes unexecuted-but-known requests. This is where the release
// build dereferences committed-but-contentless messages (Table 1).
// adoptViewLocked moves to view v by any path (vote quorum, NEW-VIEW,
// or a higher-view pre-prepare). Every view entry summarizes the
// replica's committed prefix — the material of its view-change
// certificate. Accessing a committed message whose content never
// arrived is the seeded segfault; it can only happen in the release
// build (see fillContentLocked).
func (r *Replica) adoptViewLocked(v int) {
	r.C.Cov.Hit("main.viewadopt")
	r.view = v
	r.inVC = false
	r.vcStreak++
	r.pendingAt = time.Time{}
	// Adopt the highest known sequence number so new proposals never
	// collide with earlier views' assignments.
	if m := r.seqCounterMaxLocked(); m > r.seqCounter {
		r.seqCounter = m
	}
	for seq := 1; seq <= r.seqCounterMaxLocked(); seq++ {
		e, ok := r.entries[seq]
		if !ok || !e.committed {
			continue
		}
		if !e.hasReq {
			r.Th.RaiseCrash(libsim.Segfault,
				"view change: access to committed message seq=%d with no content", seq)
		}
	}
}

func (r *Replica) enterViewLocked(v int) {
	r.adoptViewLocked(v)
	if primary(v, r.N) != r.ID {
		return
	}
	nv := Msg{Type: TypeNewView, View: v, Replica: r.ID}
	r.mu.Unlock()
	r.broadcast(nv)
	r.mu.Lock()
	// Re-propose pending requests under the new view.
	for seq, e := range r.entries {
		if e.hasReq && !e.executed {
			pp := Msg{Type: TypePrePrepare, View: v, Seq: seq, Replica: r.ID,
				Client: e.client, ReqID: e.reqID, Op: e.op, Digest: e.digest}
			r.mu.Unlock()
			r.broadcast(pp)
			r.mu.Lock()
		}
	}
}

func (r *Replica) seqCounterMaxLocked() int {
	maxSeq := 0
	for seq := range r.entries {
		if seq > maxSeq {
			maxSeq = seq
		}
	}
	return maxSeq
}

func (r *Replica) onNewView(m Msg) {
	r.mu.Lock()
	if m.View > r.view && m.Replica == primary(m.View, r.N) {
		r.adoptViewLocked(m.View)
	}
	r.mu.Unlock()
}

// writeCheckpointLocked persists periodic checkpoints (checked path).
func (r *Replica) writeCheckpointLocked() {
	t := r.Th
	r.C.Cov.Hit("main.checkpoint")
	pop := r.at("checkpoint", "cp_fopen_ok")
	fp := t.Fopen(fmt.Sprintf("/pbft/ckpt-%d", r.execUpto), "w")
	pop()
	if fp == 0 {
		r.C.Cov.Hit("rec.cp_fopen_ok")
		return // periodic checkpoint failure is tolerated
	}
	pop = r.at("checkpoint", "cp_fwrite_ok")
	t.Fwrite([]byte(fmt.Sprintf("ckpt %d ops=%d", r.execUpto, r.executedN)), fp)
	pop()
	t.Fclose(fp)
}

// ShutdownCheckpoint is the replica's exit path: it writes a final
// checkpoint WITHOUT checking that the file opened — the Table 1 PBFT
// bug (fwrite through a NULL FILE*). The receive loop calls it on
// stop; the scripted harness calls it directly so the crash propagates
// to the controller's monitor.
func (r *Replica) ShutdownCheckpoint() {
	t := r.Th
	r.C.Cov.Hit("main.shutdown")
	pop := r.at("shutdown", "sd_fopen")
	fp := t.Fopen("/pbft/checkpoint-final", "w")
	pop()
	// BUG: fp not checked.
	pop = r.at("shutdown", "sd_fwrite")
	t.Fwrite([]byte(fmt.Sprintf("final ckpt ops=%d", r.Executed())), fp)
	pop()
	t.Fclose(fp)
}
