package experiment

import "thermbal/internal/sim"

// RunUncached is Run with the warm-up simulated in place rather than
// restored: the fresh run a restored one must equal.
func RunUncached(rc RunConfig) (sim.Result, *sim.Engine, error) { return run(rc, nil) }

// WarmupCache is a private warm-up cache, so a test counts only its
// own hits and misses.
type WarmupCache = warmupCache

// NewWarmupCache returns an empty cache with the given byte budget.
func NewWarmupCache(budget int) *WarmupCache { return newWarmupCache(budget) }

// Run is experiment.Run through c.
func (c *warmupCache) Run(rc RunConfig) (sim.Result, *sim.Engine, error) { return run(rc, c) }

// Stats reports c's counters.
func (c *warmupCache) Stats() WarmupStats { return c.stats() }
