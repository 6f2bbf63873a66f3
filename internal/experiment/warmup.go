package experiment

import (
	"container/list"
	"sync"
	"sync/atomic"

	"thermbal/internal/migrate"
	"thermbal/internal/sim"
	"thermbal/internal/thermal"
)

// WarmupCacheBudget is the byte budget of the process-wide warm-up
// checkpoint cache. A checkpoint (Checkpoint.Bytes) is under 1 KiB on
// the paper's 3-core die and about 34 KiB on manycore-256, so the
// budget holds every warm-up of a paper sweep, a scenario matrix or a
// service's working set many times over. Least recently used
// checkpoints are evicted past it; one larger than the whole budget is
// used by the runs waiting on it and then dropped.
//
// The cache belongs to the process, not to one RunAll call, because
// not every sweep is one call: the service executes a /matrix or job
// sweep cell by cell, each under its own result key, and the cells of
// one scenario share a warm-up. Runs that share no warm-up key only pay
// a checkpoint per key (see warmupKey).
const WarmupCacheBudget = 4 << 20

// warmups is the cache every untraced Run goes through.
var warmups = newWarmupCache(WarmupCacheBudget)

// warmupKey is every input the engine's state at WarmupEnd depends on.
// Policy name and arguments, the threshold δ and the measurement window
// are left out: the engine consults the policy and collects metrics
// only from PolicyStartS = MeasureStartS on, after the fork.
type warmupKey struct {
	// scenario is the content hash of the scenario's spec.
	scenario   string
	pkg        PackageSel
	queueCap   int
	mech       migrate.Mechanism
	thermal    thermal.Config
	noFastPath bool
	// fork is the tick the warm-up ends at: the last sensor boundary
	// before the policy starts.
	fork int64
}

// warmupEntry is one key's warm-up: in flight until ready is closed,
// then cp (nil when the warm-up failed) is immutable.
type warmupEntry struct {
	key   warmupKey
	ready chan struct{}
	cp    *sim.Checkpoint
	bytes int
	elem  *list.Element // position in the LRU list once published
}

// warmupCache holds warm-up checkpoints by key within a byte budget.
// Concurrent misses on one key run the warm-up once: the first caller
// simulates it, the others wait and restore its checkpoint.
type warmupCache struct {
	budget int

	mu      sync.Mutex
	entries map[warmupKey]*warmupEntry
	lru     *list.List // published entries, most recently used first
	bytes   int

	hits, misses, evictions atomic.Int64
}

func newWarmupCache(budget int) *warmupCache {
	return &warmupCache{budget: budget, entries: map[warmupKey]*warmupEntry{}, lru: list.New()}
}

// WarmupStats are the warm-up checkpoint cache's counters.
type WarmupStats struct {
	// Hits counts runs that restored a checkpoint instead of
	// simulating their warm-up; Misses those that simulated it.
	Hits, Misses int64
	// Evictions counts checkpoints dropped to stay within the budget.
	Evictions int64
	// Bytes is what the cached checkpoints hold now.
	Bytes int
}

// WarmupCacheStats reports the process-wide warm-up checkpoint cache.
func WarmupCacheStats() WarmupStats { return warmups.stats() }

func (c *warmupCache) stats() WarmupStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return WarmupStats{Hits: c.hits.Load(), Misses: c.misses.Load(), Evictions: c.evictions.Load(), Bytes: c.bytes}
}

// warm brings the freshly built engine e to tick k.fork: it restores
// the checkpoint cached under k, or simulates the warm-up and caches
// the checkpoint it ends in. Either way the engine then stands at the
// same state with the same Profile. A nil cache always simulates.
func (c *warmupCache) warm(k warmupKey, e *sim.Engine) error {
	if c == nil || k.fork <= 0 {
		return e.RunTo(k.fork)
	}
	c.mu.Lock()
	ent, ok := c.entries[k]
	if !ok {
		ent = &warmupEntry{key: k, ready: make(chan struct{})}
		c.entries[k] = ent
		c.mu.Unlock()
		c.misses.Add(1)
		// Publish even if the engine panics, so waiters never hang.
		var cp *sim.Checkpoint
		defer func() { c.publish(ent, cp) }()
		if err := e.RunTo(k.fork); err != nil {
			return err
		}
		var err error
		cp, err = e.Checkpoint()
		return err
	}
	if ent.elem != nil {
		c.lru.MoveToFront(ent.elem)
	}
	c.mu.Unlock()
	<-ent.ready
	if ent.cp == nil {
		// The leader's warm-up failed; this run reports its own error.
		c.misses.Add(1)
		return e.RunTo(k.fork)
	}
	c.hits.Add(1)
	return e.Restore(ent.cp)
}

// publish completes ent's flight with cp and caches it within the
// budget, evicting the least recently used checkpoints.
func (c *warmupCache) publish(ent *warmupEntry, cp *sim.Checkpoint) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ent.cp = cp
	close(ent.ready)
	if cp != nil {
		ent.bytes = cp.Bytes() + len(ent.key.scenario)
	}
	if cp == nil || ent.bytes > c.budget {
		delete(c.entries, ent.key)
		return
	}
	ent.elem = c.lru.PushFront(ent)
	c.bytes += ent.bytes
	for c.bytes > c.budget {
		old := c.lru.Remove(c.lru.Back()).(*warmupEntry)
		delete(c.entries, old.key)
		c.bytes -= old.bytes
		c.evictions.Add(1)
	}
}
