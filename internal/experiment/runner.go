package experiment

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"thermbal/internal/scenario"
	"thermbal/internal/sim"
	"thermbal/internal/thermal"
)

// Runner executes independent experiment runs across a bounded worker
// pool. The zero value is ready to use and sizes the pool to
// runtime.GOMAXPROCS(0). Runs are constructed deterministically per
// index and results are collected in input order, so the outcome is
// identical for any worker count.
type Runner struct {
	// Workers bounds the pool; <= 0 selects GOMAXPROCS.
	Workers int
}

func (r Runner) workers() int {
	if r.Workers > 0 {
		return r.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// ForEach invokes fn(ctx, i) for every i in [0, n) across the pool and
// waits for completion. The first error (lowest index when several fail
// concurrently) cancels the context handed to the remaining calls and
// is returned; tasks not yet started are skipped. With no task error,
// the parent context's error is returned if it was cancelled mid-run.
func (r Runner) ForEach(ctx context.Context, n int, fn func(ctx context.Context, i int) error) error {
	if n <= 0 {
		return ctx.Err()
	}
	w := r.workers()
	if w > n {
		w = n
	}
	ctx, cancel := context.WithCancel(ctx)
	var (
		next    atomic.Int64
		wg      sync.WaitGroup
		mu      sync.Mutex
		errIdx  = -1
		firstEr error
	)
	next.Store(-1)
	for k := 0; k < w; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1))
				if i >= n || ctx.Err() != nil {
					return
				}
				if err := fn(ctx, i); err != nil {
					mu.Lock()
					if errIdx < 0 || i < errIdx {
						errIdx, firstEr = i, err
					}
					mu.Unlock()
					cancel()
					return
				}
			}
		}()
	}
	wg.Wait()
	parentErr := ctx.Err()
	cancel()
	if firstEr != nil {
		return firstEr
	}
	return parentErr
}

// collect maps every input through fn in parallel, preserving order.
func collect[T, R any](ctx context.Context, r Runner, in []T, fn func(context.Context, T) (R, error)) ([]R, error) {
	out := make([]R, len(in))
	err := r.ForEach(ctx, len(in), func(ctx context.Context, i int) error {
		v, err := fn(ctx, in[i])
		if err != nil {
			return err
		}
		out[i] = v
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// RunAll executes every configuration across the pool and returns the
// summaries in input order. Each run builds its own platform, graph and
// policy, so results are independent of scheduling and worker count.
func RunAll(ctx context.Context, r Runner, cfgs []RunConfig) ([]sim.Result, error) {
	return collect(ctx, r, cfgs, func(ctx context.Context, rc RunConfig) (sim.Result, error) {
		if err := ctx.Err(); err != nil {
			return sim.Result{}, err
		}
		res, _, err := Run(rc)
		return res, err
	})
}

// Options bundles the knobs shared by the multi-run experiment helpers:
// the worker pool, the thermal integrator and the scenario applied to
// every run.
type Options struct {
	Runner
	// Thermal selects the integration scheme for each run's RC network
	// (zero value = explicit Euler).
	Thermal thermal.Config
	// Scenario is the resolved scenario (a catalogue entry or one made
	// by scenario.FromSpec) the sweep-style helpers (Sweep and the
	// comparison runs built on RunAll) simulate; nil = "sdr-radio", the
	// paper's benchmark. Paper-specific artifacts — Table2, Fig2, the
	// ablations and the scale study — are defined on their own
	// workloads and ignore this field.
	Scenario *scenario.Scenario
}
