package main

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"lfi"
)

// span is one timed interval of the traced pass: a campaign, a layer
// probe, or one executor Run call under either.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Name   string `json:"name"`
	System string `json:"system,omitempty"`
	Tests  int    `json:"tests,omitempty"`
	Start  int64  `json:"start_ns"` // since the tracer started
	End    int64  `json:"end_ns"`
}

func (s *span) duration() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. Campaign and probe
// spans are top level; exec.run spans, recorded from the fleet's
// dispatch goroutines, are children of whichever top-level span is open.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []*span
	cur   atomic.Int64 // ID of the open top-level span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// begin opens a top-level span.
func (t *tracer) begin(name string) *span {
	t.mu.Lock()
	s := &span{ID: len(t.spans) + 1, Name: name, Start: t.now()}
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	t.cur.Store(int64(s.ID))
	return s
}

func (t *tracer) end(s *span) {
	t.mu.Lock()
	s.End = t.now()
	t.mu.Unlock()
}

func (t *tracer) child(name, system string, tests int, start, end int64) {
	t.mu.Lock()
	t.spans = append(t.spans, &span{ID: len(t.spans) + 1, Parent: int(t.cur.Load()), Name: name,
		System: system, Tests: tests, Start: start, End: end})
	t.mu.Unlock()
}

// busy returns the union of the exec.run intervals under s, clipped to
// s, and how many there were. It is a union, not a sum: a remote
// backend keeps up to four batches in flight at once.
func (t *tracer) busy(s *span) (time.Duration, int) {
	type iv struct{ a, b int64 }
	var ivs []iv
	t.mu.Lock()
	for _, c := range t.spans {
		if c.Parent == s.ID && c.Name == "exec.run" {
			ivs = append(ivs, iv{max(c.Start, s.Start), min(c.End, s.End)})
		}
	}
	t.mu.Unlock()
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, reach int64
	for _, v := range ivs {
		if v.a < reach {
			v.a = reach
		}
		if v.b > v.a {
			total += v.b - v.a
			reach = v.b
		}
	}
	return time.Duration(total), len(ivs)
}

// The optional executor methods the fleet scheduler looks for. A
// wrapper must have exactly the wrapped backend's set: a Local that
// gained Pipeline, or a Remote that lost it, would be scheduled
// differently and the traced run would measure another campaign.
type (
	pipeliner interface{ Pipeline() int }
	imaged    interface {
		ImageVersion(sys string) string
		FuncFingerprints(sys string) (map[string]string, error)
	}
)

// tracedExec records every Run of the wrapped backend as an exec.run span.
type tracedExec struct {
	lfi.Executor
	t *tracer
}

func (e *tracedExec) Run(ctx context.Context, b *lfi.ExecBatch) ([]*lfi.ExecOutcome, error) {
	start := e.t.now()
	outs, err := e.Executor.Run(ctx, b)
	e.t.child("exec.run", b.System, len(b.Scenarios), start, e.t.now())
	return outs, err
}

// tracedRemote is tracedExec for a backend with the optional methods.
type tracedRemote struct {
	*tracedExec
	pipeliner
	imaged
}

// wrap returns e with its Run calls traced and its optional methods kept.
func (t *tracer) wrap(e lfi.Executor) lfi.Executor {
	te := &tracedExec{Executor: e, t: t}
	p, isP := e.(pipeliner)
	im, isIm := e.(imaged)
	switch {
	case isP && isIm:
		return &tracedRemote{te, p, im}
	case !isP && !isIm:
		return te
	}
	panic(fmt.Sprintf("bench: no traced wrapper for %s: it has only some of the optional executor methods", e.Info().Name))
}
