// Package fleetd is the fleet coordinator: the registry that turns a
// pile of `lfi serve` processes into a discoverable, observable
// exploration cluster.
//
// The moving parts:
//
//   - workers self-register (`lfi serve -register host:port`) and
//     heartbeat at the interval the registry assigns; a worker that
//     misses enough heartbeats is evicted — in-flight batches on it
//     fail over through the exec.Fleet requeue path, so eviction is
//     about not *dispatching* to the dead, never about losing work;
//   - coordinators (`lfi explore -fleet host:port`) fetch the live
//     worker set instead of being handed host:port lists, watch it
//     for joins and evictions mid-campaign, and publish campaign
//     progress back;
//   - `lfi fleet status` (or any HTTP client — the endpoints are
//     plain JSON over GET/POST) reads the merged picture: per-worker
//     throughput derived from heartbeat counter deltas, plus the
//     coordinator's outcomes-folded / coverage-frontier / gain-per-run
//     snapshot.
//
// The package deliberately knows nothing about the wire protocol or
// the exec layer: it moves registration records and status documents,
// nothing else, so the registry can run anywhere a net.Listener does.
package fleetd

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"
)

// WorkerStats are a worker's lifetime execution counters, reported
// cumulatively in every heartbeat; the registry derives throughput
// from successive deltas so workers need no clocks or windows.
type WorkerStats struct {
	Batches int64 `json:"batches"`
	Runs    int64 `json:"runs"`
	Cancels int64 `json:"cancels"`
}

// Worker is one registered worker's record: what it announced at
// registration plus what the registry has observed since.
type Worker struct {
	ID       string            `json:"id,omitempty"`
	Addr     string            `json:"addr"`
	Capacity int               `json:"capacity,omitempty"`
	Proto    int               `json:"proto,omitempty"`
	Systems  []string          `json:"systems,omitempty"`
	Images   map[string]string `json:"images,omitempty"`

	Registered time.Time   `json:"registered,omitempty"`
	LastSeen   time.Time   `json:"last_seen,omitempty"`
	Stats      WorkerStats `json:"stats"`
	// RunsPerSec is the registry's EWMA over heartbeat counter deltas.
	RunsPerSec float64 `json:"runs_per_sec,omitempty"`
}

// SystemStatus is one system's slice of a coordinator's campaign
// report: outcomes folded, the coverage frontier, and the gain-per-run
// EWMA driving the explorer's scheduling.
type SystemStatus struct {
	Executed       int     `json:"executed"`
	Replayed       int     `json:"replayed"`
	Bugs           int     `json:"bugs"`
	Covered        int     `json:"covered"`
	RecoveryBlocks int     `json:"recovery_blocks"`
	GainPerRun     float64 `json:"gain_per_run"`
}

// CampaignStatus is the coordinator's progress report, replaced
// wholesale on every publish.
type CampaignStatus struct {
	Session string                  `json:"session,omitempty"`
	Systems map[string]SystemStatus `json:"systems"`
	Updated time.Time               `json:"updated,omitempty"` // stamped by the registry
}

// Status is the registry's full picture, served at /v1/status.
type Status struct {
	Now         time.Time       `json:"now"`
	HeartbeatMS int64           `json:"heartbeat_ms"`
	Evicted     int64           `json:"evicted"`
	Workers     []Worker        `json:"workers"`
	Campaign    *CampaignStatus `json:"campaign,omitempty"`
}

// DefaultHeartbeat is the interval the registry assigns workers unless
// configured otherwise; DefaultMiss is how many intervals of silence
// cost a worker its registration. Short on purpose: eviction only
// gates *new* dispatches, so the sole cost of a false positive is a
// worker re-registering.
const (
	DefaultHeartbeat = 2 * time.Second
	DefaultMiss      = 3
)

// workerState pairs the public record with the delta baseline the
// throughput EWMA needs.
type workerState struct {
	w           Worker
	lastStats   WorkerStats
	lastStatsAt time.Time
}

// ewmaAlpha matches the fleet's speed smoothing: converge in a few
// observations without whipsawing on one noisy heartbeat.
const ewmaAlpha = 0.4

// Server is the registry. It is an http.Handler; Serve wires it to a
// listener with context shutdown. All state is in memory: a restarted
// registry comes back empty and the workers' heartbeat loops re-register
// within one interval.
type Server struct {
	heartbeat time.Duration
	miss      int
	now       func() time.Time // injectable for tests

	mu       sync.Mutex
	nextID   int
	workers  map[string]*workerState
	campaign *CampaignStatus
	evicted  int64
}

// NewServer builds a registry with the given heartbeat interval and
// miss budget (zero values take the defaults).
func NewServer(heartbeat time.Duration, miss int) *Server {
	if heartbeat <= 0 {
		heartbeat = DefaultHeartbeat
	}
	if miss <= 0 {
		miss = DefaultMiss
	}
	return &Server{
		heartbeat: heartbeat,
		miss:      miss,
		now:       time.Now,
		workers:   make(map[string]*workerState),
	}
}

// Serve answers registry requests on ln until ctx is cancelled.
func (s *Server) Serve(ctx context.Context, ln net.Listener, logw io.Writer) error {
	srv := &http.Server{Handler: s}
	if logw != nil {
		srv.ErrorLog = nil
	}
	done := make(chan struct{})
	go func() {
		select {
		case <-ctx.Done():
			srv.Close()
		case <-done:
		}
	}()
	err := srv.Serve(ln)
	close(done)
	if ctx.Err() != nil {
		return ctx.Err()
	}
	return err
}

// sweep evicts workers whose last heartbeat is older than the miss
// horizon. Callers hold s.mu.
func (s *Server) sweep() {
	horizon := s.now().Add(-time.Duration(s.miss) * s.heartbeat)
	for id, ws := range s.workers {
		if ws.w.LastSeen.Before(horizon) {
			delete(s.workers, id)
			s.evicted++
		}
	}
}

// ServeHTTP routes the registry's five endpoints.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch r.URL.Path {
	case "/v1/register":
		s.handleRegister(w, r)
	case "/v1/heartbeat":
		s.handleHeartbeat(w, r)
	case "/v1/workers":
		s.handleWorkers(w, r)
	case "/v1/campaign":
		s.handleCampaign(w, r)
	case "/v1/status":
		s.handleStatus(w, r)
	default:
		http.Error(w, "unknown endpoint", http.StatusNotFound)
	}
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

// registerReply is what a worker gets back: its assigned id and the
// heartbeat interval the registry expects.
type registerReply struct {
	ID          string `json:"id"`
	HeartbeatMS int64  `json:"heartbeat_ms"`
}

func (s *Server) handleRegister(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return
	}
	var rec Worker
	if err := json.NewDecoder(r.Body).Decode(&rec); err != nil || rec.Addr == "" {
		http.Error(w, "malformed registration", http.StatusBadRequest)
		return
	}
	now := s.now()
	s.mu.Lock()
	s.sweep()
	// One record per worker address: a re-registering worker (registry
	// restart, missed heartbeats) replaces its old self rather than
	// appearing twice.
	for id, ws := range s.workers {
		if ws.w.Addr == rec.Addr {
			delete(s.workers, id)
		}
	}
	s.nextID++
	rec.ID = fmt.Sprintf("w%d", s.nextID)
	rec.Registered, rec.LastSeen = now, now
	s.workers[rec.ID] = &workerState{w: rec, lastStats: rec.Stats, lastStatsAt: now}
	s.mu.Unlock()
	writeJSON(w, registerReply{ID: rec.ID, HeartbeatMS: s.heartbeat.Milliseconds()})
}

// heartbeatMsg is a worker's periodic proof of life plus counters.
type heartbeatMsg struct {
	ID    string      `json:"id"`
	Stats WorkerStats `json:"stats"`
}

func (s *Server) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return
	}
	var hb heartbeatMsg
	if err := json.NewDecoder(r.Body).Decode(&hb); err != nil || hb.ID == "" {
		http.Error(w, "malformed heartbeat", http.StatusBadRequest)
		return
	}
	now := s.now()
	s.mu.Lock()
	s.sweep()
	ws, ok := s.workers[hb.ID]
	if !ok {
		s.mu.Unlock()
		// 404 tells the worker its registration is gone (evicted, or
		// the registry restarted): re-register, don't retry.
		http.Error(w, "unknown worker", http.StatusNotFound)
		return
	}
	if dt := now.Sub(ws.lastStatsAt).Seconds(); dt > 0 {
		delta := hb.Stats.Runs - ws.lastStats.Runs
		if delta >= 0 {
			obs := float64(delta) / dt
			if ws.w.RunsPerSec > 0 {
				obs = ewmaAlpha*obs + (1-ewmaAlpha)*ws.w.RunsPerSec
			}
			ws.w.RunsPerSec = obs
		}
	}
	ws.lastStats, ws.lastStatsAt = hb.Stats, now
	ws.w.Stats, ws.w.LastSeen = hb.Stats, now
	s.mu.Unlock()
	w.WriteHeader(http.StatusNoContent)
}

// workersReply lists the live worker set.
type workersReply struct {
	Workers []Worker `json:"workers"`
}

func (s *Server) handleWorkers(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	s.sweep()
	out := s.liveLocked()
	s.mu.Unlock()
	writeJSON(w, workersReply{Workers: out})
}

// liveLocked snapshots the live workers, stably ordered by id.
func (s *Server) liveLocked() []Worker {
	out := make([]Worker, 0, len(s.workers))
	for _, ws := range s.workers {
		out = append(out, ws.w)
	}
	for i := 1; i < len(out); i++ { // insertion sort: the set is tiny
		for j := i; j > 0 && out[j-1].Registered.After(out[j].Registered); j-- {
			out[j-1], out[j] = out[j], out[j-1]
		}
	}
	return out
}

func (s *Server) handleCampaign(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return
	}
	var c CampaignStatus
	if err := json.NewDecoder(r.Body).Decode(&c); err != nil {
		http.Error(w, "malformed campaign status", http.StatusBadRequest)
		return
	}
	c.Updated = s.now()
	s.mu.Lock()
	s.campaign = &c
	s.mu.Unlock()
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	s.sweep()
	st := Status{
		Now:         s.now(),
		HeartbeatMS: s.heartbeat.Milliseconds(),
		Evicted:     s.evicted,
		Workers:     s.liveLocked(),
		Campaign:    s.campaign,
	}
	s.mu.Unlock()
	writeJSON(w, st)
}
