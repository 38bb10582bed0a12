package lfi

// Fleet service mode: the session side of the fleetd registry.
//
// WithFleet turns worker wiring inside out. Instead of the user handing
// the session a host:port list (WithExecutors + DialExecutor), workers
// announce *themselves* to a registry (`lfi serve -register`), and the
// session discovers the live set at construction, follows it for the
// whole campaign — workers that join mid-run are dialed and added,
// workers the registry evicts on missed heartbeats are retired so no
// new batch lands on them — and publishes exploration progress back so
// `lfi fleet status` shows the campaign next to the worker throughput.

import (
	"context"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"time"

	"lfi/internal/exec"
	"lfi/internal/explore"
	"lfi/internal/fleetd"
)

// WithFleet connects the session to a fleetd registry (host:port or
// URL): execution backends are discovered from the registry's live
// worker set instead of being listed by hand, kept in sync with it for
// the session's lifetime, and campaign progress is published back.
// Combines with WithExecutors: explicit backends stay, and mixing in
// NewLocalExecutor (what `lfi explore -fleet` does unless -no-local)
// keeps the campaign running when every registered worker runs a
// different build, since a worker only gets the batches of systems it
// runs as this build's image. With no explicit executors the fleet starts
// empty and consists solely of discovered workers. Discovery failure
// at construction is an error; a registry that dies mid-run only stops
// the sync, never the campaign.
func WithFleet(registry string) SessionOption {
	return func(s *Session) error {
		if registry == "" {
			return fmt.Errorf("lfi: WithFleet: empty registry address")
		}
		s.fleetReg = registry
		return nil
	}
}

// fleetWatch keeps the session's executor fleet synchronized with the
// registry's live worker set. The dialed map is owned by the sync
// goroutine after construction (the initial sync runs in NewSession,
// before the goroutine starts).
type fleetWatch struct {
	registry string
	fleet    *exec.Fleet
	log      func(format string, args ...any)
	dialed   map[string]string // registration ID -> worker addr, currently dialed
	stop     chan struct{}
	done     chan struct{}
}

// execName is the fleet backend name a worker address dials to — must
// match exec.Remote.Info().Name so Retire hits the right backend.
func execName(addr string) string { return "remote(" + addr + ")" }

// sync reconciles the fleet against one registry snapshot: dial and add
// registrations we do not have, retire workers the registry no longer
// lists. Registrations are keyed by ID, not address: a worker that
// restarts at the same address registers afresh under a new ID, so it
// is dialed again and Fleet.Add swaps it in for its dead predecessor
// (same name), clearing the dead mark its last BackendError left.
func (w *fleetWatch) sync(workers []fleetd.Worker) (added, retired int) {
	live := make(map[string]bool, len(workers))
	liveAddr := make(map[string]bool, len(workers))
	for _, rec := range workers {
		live[rec.ID], liveAddr[rec.Addr] = true, true
		if _, ok := w.dialed[rec.ID]; ok {
			continue
		}
		r, err := exec.Dial(rec.Addr)
		if err != nil {
			// A mismatched build needs a rebuild, not a retry; anything
			// else (worker died between heartbeat and dial) will be
			// evicted by the registry shortly. Either way: skip, log.
			w.log("lfi: fleet: skipping worker %s: %v", rec.Addr, err)
			continue
		}
		w.fleet.Add(r)
		w.dialed[rec.ID] = rec.Addr
		added++
	}
	for id, addr := range w.dialed {
		if live[id] {
			continue
		}
		delete(w.dialed, id)
		// A re-registration at the same address was swapped in above;
		// retiring the shared name would kill it.
		if !liveAddr[addr] {
			w.fleet.Retire(execName(addr))
			retired++
		}
	}
	return added, retired
}

// run polls the registry at the heartbeat cadence until stopped.
func (w *fleetWatch) run(interval time.Duration) {
	defer close(w.done)
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-w.stop:
			return
		case <-t.C:
		}
		workers, err := fleetd.Workers(w.registry)
		if err != nil {
			continue // registry unreachable: keep the current fleet
		}
		added, retired := w.sync(workers)
		if added+retired > 0 {
			w.log("lfi: fleet: %d worker(s) joined, %d evicted (fleet now %d dialed)",
				added, retired, len(w.dialed))
		}
	}
}

// close stops the sync goroutine and waits for it.
func (w *fleetWatch) close() {
	close(w.stop)
	<-w.done
}

// fleetPublisher forwards explorer status snapshots to the registry's
// campaign endpoint, rate-limited to one POST per second — a dropped
// intermediate snapshot is superseded by the next one, and flush posts
// the last one. Publishes are fire-and-forget: status is observability,
// never control flow.
type fleetPublisher struct {
	registry string
	session  string
	inflight sync.WaitGroup // asynchronous POSTs not yet answered

	mu      sync.Mutex
	last    time.Time
	systems map[string]fleetd.SystemStatus
}

func newFleetPublisher(registry string) *fleetPublisher {
	host, _ := os.Hostname()
	return &fleetPublisher{
		registry: registry,
		session:  fmt.Sprintf("%s/%d", host, os.Getpid()),
		systems:  make(map[string]fleetd.SystemStatus),
	}
}

// publish is the explore.Config.Status hook.
func (p *fleetPublisher) publish(u explore.StatusUpdate) {
	p.mu.Lock()
	p.systems[u.System] = fleetd.SystemStatus{
		Executed:       u.Executed,
		Replayed:       u.Replayed,
		Bugs:           u.Bugs,
		Covered:        u.Covered,
		RecoveryBlocks: u.RecoveryBlocks,
		GainPerRun:     u.GainPerRun,
	}
	if time.Since(p.last) < time.Second {
		p.mu.Unlock()
		return
	}
	p.last = time.Now()
	c := p.snapshot()
	p.mu.Unlock()
	p.inflight.Add(1)
	go func() {
		defer p.inflight.Done()
		fleetd.PublishCampaign(p.registry, c)
	}()
}

// flush posts the latest snapshot synchronously once every asynchronous
// POST has been answered, so a stale snapshot cannot land after it and
// a process exiting right after the campaign cannot lose it.
func (p *fleetPublisher) flush() {
	p.inflight.Wait()
	p.mu.Lock()
	c := p.snapshot()
	p.mu.Unlock()
	fleetd.PublishCampaign(p.registry, c)
}

// snapshot copies the per-system statuses into a campaign report; the
// caller holds p.mu.
func (p *fleetPublisher) snapshot() fleetd.CampaignStatus {
	c := fleetd.CampaignStatus{Session: p.session, Systems: make(map[string]fleetd.SystemStatus, len(p.systems))}
	for k, v := range p.systems {
		c.Systems[k] = v
	}
	return c
}

// initFleet runs WithFleet's discovery during NewSession: fetch the
// live worker set, dial every worker, and start the sync goroutine.
// Called after the executor fleet exists.
func (s *Session) initFleet() error {
	workers, err := fleetd.Workers(s.fleetReg)
	if err != nil {
		return fmt.Errorf("lfi: WithFleet(%q): discovering workers: %w", s.fleetReg, err)
	}
	w := &fleetWatch{
		registry: s.fleetReg,
		fleet:    s.fleet,
		dialed:   make(map[string]string),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	w.log = func(format string, args ...any) {
		if s.log != nil {
			fmt.Fprintf(s.log, format+"\n", args...)
		}
	}
	added, _ := w.sync(workers)
	w.log("lfi: fleet: registry %s: %d worker(s) discovered, %d dialed", s.fleetReg, len(workers), added)
	go w.run(fleetd.DefaultHeartbeat)
	s.fleetWatcher = w
	s.publisher = newFleetPublisher(s.fleetReg)
	return nil
}

// FleetStatus fetches the registry's merged status document — workers,
// throughput, and the latest published campaign snapshot (the engine
// behind `lfi fleet status`).
func FleetStatus(registry string) (*FleetStatusDoc, error) {
	return fleetd.FetchStatus(registry)
}

// Fleet service types, re-exported for status consumers.
type (
	// FleetStatusDoc is the registry's full status document.
	FleetStatusDoc = fleetd.Status
	// FleetWorker is one registered worker's record.
	FleetWorker = fleetd.Worker
	// FleetCampaignStatus is a coordinator's published progress.
	FleetCampaignStatus = fleetd.CampaignStatus
)

// NewFleetRegistry builds a fleetd registry server (an http.Handler;
// serve it with its Serve method) — the engine behind
// `lfi fleet registry`. Zero heartbeat/miss take the defaults.
var NewFleetRegistry = fleetd.NewServer

// Registry timing defaults, re-exported for flag defaults and tests.
const (
	// DefaultFleetHeartbeat is the interval a registry assigns workers.
	DefaultFleetHeartbeat = fleetd.DefaultHeartbeat
	// DefaultFleetMiss is how many silent intervals cost a worker its
	// registration.
	DefaultFleetMiss = fleetd.DefaultMiss
)

// ServeRegistered is ServeExecutor plus fleet membership: when registry
// is non-empty the worker self-registers there and heartbeats its
// execution counters until ctx ends, re-registering whenever the
// registry forgets it — the engine behind `lfi serve -register`.
// advertise overrides the announced dial-back address (needed when the
// listener is bound to a wildcard or NAT'd interface); empty means the
// listener's own address. Both entry points are the one exec.Serve.
func ServeRegistered(ctx context.Context, ln net.Listener, workers int, logw io.Writer, registry, advertise string) error {
	return exec.Serve(ctx, ln, exec.ServeOptions{Workers: workers, Log: logw, Registry: registry, Advertise: advertise})
}
