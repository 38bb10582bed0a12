package main

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"lfi"
	"lfi/internal/controller"
	"lfi/internal/explore"
	"lfi/internal/impact"
	"lfi/internal/netsim"
)

// Layer probes: fixed work, timed from outside through each layer's
// public functions, so a change inside a layer shows up here whichever
// workload is running. Each probe runs probeRounds times and reports
// the median round; each sits in a span of its own.
const (
	probeRounds    = 15
	probeTests     = 32 // tests per system in the exec and controller probes
	probeBatch     = 16 // the explorer's default scheduling batch
	probeEndpoints = 64
)

type prober struct {
	ctx    context.Context
	seed   int64
	rounds int
	tr     *tracer
	tmp    string
	layers map[string]float64

	systems []*lfi.System
	cfgs    []explore.Config
	cands   [][]*explore.Candidate
}

// run runs every probe. remote selects which backend's exec timings are
// reported as the workload's own; warm is the converged store the store
// probe copies.
func (p *prober) run(remote bool, warm string) error {
	p.systems = lfi.Systems()
	for _, sys := range p.systems {
		cfg := explore.ConfigForSystem(sys)
		cands := explore.Generate(cfg)
		if len(cands) == 0 {
			return fmt.Errorf("probes: %s has no candidates", sys.Name)
		}
		p.cfgs = append(p.cfgs, cfg)
		p.cands = append(p.cands, cands)
	}
	if err := p.execProbe(remote); err != nil {
		return err
	}
	if err := p.controllerProbe(); err != nil {
		return err
	}
	p.netsimProbe()
	if err := p.exploreProbe(); err != nil {
		return err
	}
	return p.storeProbe(warm)
}

// repeat runs f p.rounds times and returns the median of each value it
// reports.
func (p *prober) repeat(f func() ([]float64, error)) ([]float64, error) {
	var cols [][]float64
	for r := 0; r < p.rounds; r++ {
		vals, err := f()
		if err != nil {
			return nil, err
		}
		if cols == nil {
			cols = make([][]float64, len(vals))
		}
		for i, v := range vals {
			cols[i] = append(cols[i], v)
		}
	}
	out := make([]float64, len(cols))
	for i, c := range cols {
		out[i] = median(c)
	}
	return out, nil
}

// execProbe times each system's first probeTests candidates, in batches
// of the explorer's size, on a local backend and on a loopback remote
// one, alternating the two system by system so drift affects both
// alike. The difference is what the wire costs per test.
func (p *prober) execProbe(remote bool) error {
	sp := p.tr.begin("probe.exec")
	defer p.tr.end(sp)
	addr, stop, err := serve()
	if err != nil {
		return err
	}
	defer stop()
	rem, err := lfi.DialExecutor(addr)
	if err != nil {
		return err
	}
	defer rem.Close()
	backends := []lfi.Executor{p.tr.wrap(lfi.NewLocalExecutor(runtime.GOMAXPROCS(0))), p.tr.wrap(rem)}
	own := boolInt(remote) // index of the workload's own backend

	batches := make([][]*lfi.ExecBatch, len(p.systems))
	tests := make([]int, len(p.systems))
	for i, sys := range p.systems {
		tests[i] = min(probeTests, len(p.cands[i]))
		for off := 0; off < tests[i]; off += probeBatch {
			b := &lfi.ExecBatch{System: sys.Name, Seed: p.seed, Coverage: true}
			for _, c := range p.cands[i][off:min(off+probeBatch, tests[i])] {
				b.Scenarios = append(b.Scenarios, c.Scenario)
			}
			batches[i] = append(batches[i], b)
		}
	}
	var batchMs []float64
	// Per round: µs per test for each system on each backend, then the
	// test-weighted wire tax.
	vals, err := p.repeat(func() ([]float64, error) {
		var out []float64
		var tax float64
		total := 0
		for i, sys := range p.systems {
			var us [2]float64
			for k, e := range backends {
				var d time.Duration
				for _, b := range batches[i] {
					begin := time.Now()
					outs, err := e.Run(p.ctx, b)
					bd := time.Since(begin)
					if err != nil {
						return nil, fmt.Errorf("exec probe: %s on %s: %w", sys.Name, e.Info().Name, err)
					}
					if len(outs) != len(b.Scenarios) {
						return nil, fmt.Errorf("exec probe: %s on %s: %d of %d outcomes", sys.Name, e.Info().Name, len(outs), len(b.Scenarios))
					}
					d += bd
					if k == own {
						batchMs = append(batchMs, ms(bd))
					}
				}
				us[k] = d.Seconds() * 1e6 / float64(tests[i])
			}
			out = append(out, us[own])
			tax += float64(tests[i]) * (us[1] - us[0])
			total += tests[i]
		}
		return append(out, tax/float64(total)), nil
	})
	if err != nil {
		return err
	}
	for i, sys := range p.systems {
		p.layers["exec.test_us."+sys.Name] = vals[i]
	}
	p.layers["wire.tax_us_per_test"] = vals[len(p.systems)]
	p.layers["exec.batch_ms_p50"] = percentile(batchMs, 50)
	p.layers["exec.batch_ms_p95"] = percentile(batchMs, 95)
	return nil
}

// controllerProbe times controller.RunOne on one goroutine, round-robin over
// each system's candidates, and the bytes each run allocates.
func (p *prober) controllerProbe() error {
	sp := p.tr.begin("probe.controller")
	defer p.tr.end(sp)
	for i, sys := range p.systems {
		tgt, cands := sys.Target(), p.cands[i]
		vals, err := p.repeat(func() ([]float64, error) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			begin := time.Now()
			for k := 0; k < probeTests; k++ {
				if _, err := controller.RunOne(tgt, cands[k%len(cands)].Scenario, lfi.RuntimeSeed(p.seed)); err != nil {
					return nil, fmt.Errorf("controller probe: %s: %w", sys.Name, err)
				}
			}
			d := time.Since(begin)
			runtime.ReadMemStats(&after)
			return []float64{d.Seconds() * 1e6 / probeTests, float64(after.TotalAlloc-before.TotalAlloc) / 1024 / probeTests}, nil
		})
		if err != nil {
			return err
		}
		p.layers["controller.run_us."+sys.Name] = vals[0]
		p.layers["controller.alloc_kb."+sys.Name] = vals[1]
	}
	return nil
}

// netsimProbe times building a simulated network endpoint, which every
// distributed-system run does once per node.
func (p *prober) netsimProbe() {
	sp := p.tr.begin("probe.netsim")
	defer p.tr.end(sp)
	eps := make([]any, probeEndpoints)
	vals, _ := p.repeat(func() ([]float64, error) { // building endpoints cannot fail
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		begin := time.Now()
		for k := range eps {
			eps[k] = netsim.New().NewEndpoint()
		}
		d := time.Since(begin)
		runtime.ReadMemStats(&after)
		clear(eps)
		return []float64{d.Seconds() * 1e6 / probeEndpoints, float64(after.TotalAlloc-before.TotalAlloc) / 1024 / probeEndpoints}, nil
	})
	p.layers["netsim.endpoint_us"] = vals[0]
	p.layers["netsim.endpoint_kb"] = vals[1]
}

// exploreProbe times candidate generation and the whole-program lint of
// every system, the per-system analyses a campaign starts with.
func (p *prober) exploreProbe() error {
	sp := p.tr.begin("probe.explore")
	defer p.tr.end(sp)
	vals, err := p.repeat(func() ([]float64, error) {
		var gen, lint time.Duration
		for _, cfg := range p.cfgs {
			begin := time.Now()
			explore.Generate(cfg)
			gen += time.Since(begin)
			begin = time.Now()
			if _, err := explore.Lint(cfg); err != nil {
				return nil, fmt.Errorf("lint probe: %s: %w", cfg.System, err)
			}
			lint += time.Since(begin)
		}
		return []float64{ms(gen), ms(lint)}, nil
	})
	if err != nil {
		return err
	}
	total := 0
	for _, c := range p.cands {
		total += len(c)
	}
	p.layers["explore.generate_ms"] = vals[0]
	p.layers["explore.candidates"] = float64(total)
	p.layers["callgraph.lint_ms"] = vals[1]
	return nil
}

// storeProbe times loading every system's store, and re-putting the
// generated candidates' entries and flushing, on a copy of the warm
// store, so no campaign ever reads a store the probe rewrote.
func (p *prober) storeProbe(warm string) error {
	sp := p.tr.begin("probe.store")
	defer p.tr.end(sp)
	dir := filepath.Join(p.tmp, "probe-store")
	if err := copyDir(warm, dir); err != nil {
		return err
	}
	size, err := diskBytes(dir)
	if err != nil {
		return err
	}
	// A candidate's store key is its scenario hash at its code region's
	// hash, as the explorer computes it.
	keys := make([][]string, len(p.systems))
	images := make([]string, len(p.systems))
	for i, cfg := range p.cfgs {
		h := impact.NewHasher(cfg.Binary)
		for _, c := range p.cands[i] {
			keys[i] = append(keys[i], c.Hash+"@"+h.Region(c.Caller))
		}
		images[i] = explore.ImageVersion(cfg.Binary)
	}
	vals, err := p.repeat(func() ([]float64, error) {
		var load, flush time.Duration
		entries, hits := 0, 0
		for i, sys := range p.systems {
			begin := time.Now()
			st, err := explore.LoadStore(dir, sys.Name, images[i])
			load += time.Since(begin)
			if err != nil {
				return nil, fmt.Errorf("store probe: %w", err)
			}
			entries += st.Stats().Entries
			for _, k := range keys[i] {
				if e, ok := st.Lookup(k); ok {
					st.Put(k, e)
					hits++
				}
			}
			begin = time.Now()
			if err := st.FlushDirty(); err != nil {
				return nil, fmt.Errorf("store probe: %w", err)
			}
			flush += time.Since(begin)
		}
		if hits == 0 {
			return nil, fmt.Errorf("store probe: no generated candidate found in the warm store")
		}
		return []float64{ms(load), ms(flush), float64(entries)}, nil
	})
	if err != nil {
		return err
	}
	p.layers["store.load_ms"] = vals[0]
	p.layers["store.flush_ms"] = vals[1]
	p.layers["store.entries"] = vals[2]
	p.layers["store.disk_mb"] = float64(size) / mb
	return nil
}
