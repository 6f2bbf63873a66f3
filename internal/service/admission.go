package service

import (
	"context"
	"fmt"
	"math"
	"net"
	"net/http"
	"sync"
	"time"

	"thermbal/internal/request"
)

// Admission control: the server's deliberate overload behavior.
//
// Three mechanisms, layered in the order a request meets them:
//
//  1. Per-tenant token-bucket quotas (429 + Retry-After). Checked at
//     the front of every costed handler (/run, /matrix, POST /jobs),
//     before the body is even decoded, so one tenant's flood cannot
//     crowd out the others' share of anything — decode CPU included.
//
//  2. Load shedding by estimated simulated-seconds cost (503 +
//     Retry-After). The unit of capacity is simulated seconds, not
//     request count: a manycore sweep cell and a half-second sdr-radio
//     probe are wildly different amounts of work, so a flat queue
//     bound either over-admits sweeps or starves probes. Every piece
//     of work that would actually execute reserves its estimated cost
//     against a bounded pending budget; cache and store hits reserve
//     nothing and are never shed.
//
//  3. Priority classes on the execution slots. Interactive work (sync
//     /run and the cells of a sync /matrix) acquires a freed MaxSims
//     slot ahead of bulk work (async job runs and matrix-job cells),
//     FIFO within each class, so a queued catalogue sweep cannot
//     starve the request a human is waiting on.
//
// Every overload refusal carries a Retry-After header: quota denials
// compute it exactly (time until the bucket refills one token), shed
// decisions estimate it from the pending backlog.

// Execution priority classes, highest first. The spellings in
// prioNames are the /stats and /metrics label values.
const (
	prioInteractive = iota
	prioBulk
	numPriorities
)

var prioNames = [numPriorities]string{"interactive", "bulk"}

// execClass describes one execution's admission parameters: the slot
// priority it queues at and the estimated simulated-seconds cost it
// must reserve before executing. cost 0 means the work is already
// accounted for (a matrix job reserves its whole sweep at submit, so
// its cells ride that reservation) or free (nothing to reserve).
type execClass struct {
	prio int
	cost float64
}

// prioSlots is the MaxSims execution semaphore with priority classes:
// a bounded count of slots plus one FIFO waiter queue per class. A
// freed slot always goes to the highest non-empty class, so
// interactive waiters overtake any amount of queued bulk work while
// work within one class stays fair.
type prioSlots struct {
	mu      sync.Mutex
	free    int
	waiters [numPriorities][]chan struct{}
}

func newPrioSlots(n int) *prioSlots { return &prioSlots{free: n} }

// acquire takes one slot at the given priority, blocking until one
// frees or ctx is done. Grants are handed off directly (the releasing
// goroutine picks the successor), so a freed slot can never be stolen
// by a later, lower-priority arrival.
func (p *prioSlots) acquire(ctx context.Context, prio int) error {
	p.mu.Lock()
	if p.free > 0 {
		p.free--
		p.mu.Unlock()
		return nil
	}
	ch := make(chan struct{})
	p.waiters[prio] = append(p.waiters[prio], ch)
	p.mu.Unlock()
	select {
	case <-ch:
		return nil
	case <-ctx.Done():
		p.mu.Lock()
		removed := p.removeLocked(prio, ch)
		p.mu.Unlock()
		if !removed {
			// The grant raced the cancellation: release had already
			// handed this waiter the slot. Pass it on.
			p.release()
		}
		return ctx.Err()
	}
}

// removeLocked unlinks a cancelled waiter; false means release already
// granted it the slot.
func (p *prioSlots) removeLocked(prio int, ch chan struct{}) bool {
	for i, w := range p.waiters[prio] {
		if w == ch {
			p.waiters[prio] = append(p.waiters[prio][:i], p.waiters[prio][i+1:]...)
			return true
		}
	}
	return false
}

// release frees one slot, handing it to the oldest waiter of the
// highest non-empty class.
func (p *prioSlots) release() {
	p.mu.Lock()
	for prio := 0; prio < numPriorities; prio++ {
		if len(p.waiters[prio]) > 0 {
			ch := p.waiters[prio][0]
			p.waiters[prio] = p.waiters[prio][1:]
			p.mu.Unlock()
			close(ch)
			return
		}
	}
	p.free++
	p.mu.Unlock()
}

// depths snapshots the per-class waiter counts and the free slots (the
// /stats exec-queue block and the /metrics depth gauges).
func (p *prioSlots) depths() (waiting [numPriorities]int, free int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for prio := range p.waiters {
		waiting[prio] = len(p.waiters[prio])
	}
	return waiting, p.free
}

// sweepCost is a sweep's estimated simulated seconds: every cell's
// warmup + measure phases, summed. The sync /matrix endpoint bounds it
// like /run bounds a single request, and admission reserves it.
func sweepCost(cells []request.Cell) float64 {
	var total float64
	for _, c := range cells {
		total += c.Request.WarmupS + c.Request.MeasureS
	}
	return total
}

// costBudget bounds the total estimated simulated seconds of work
// admitted but not yet finished. It replaces a flat "how many things
// are queued" cap with "how much work is queued": admission compares
// the request's cost against the remaining budget.
type costBudget struct {
	mu      sync.Mutex
	max     float64 // 0 disables the bound
	pending float64
}

// admit reserves cost against the budget; false means the caller must
// shed. An idle budget (nothing pending) always admits, whatever the
// cost — otherwise a single job larger than the whole budget could
// never run at all; the bound's job is to limit the backlog, not the
// maximum job size.
func (b *costBudget) admit(cost float64) bool {
	if b.max <= 0 || cost <= 0 {
		if cost > 0 {
			b.mu.Lock()
			b.pending += cost
			b.mu.Unlock()
		}
		return true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.pending > 0 && b.pending+cost > b.max {
		return false
	}
	b.pending += cost
	return true
}

// forceReserve reserves cost unconditionally, even past the bound.
// Journal-recovered jobs use it: a previous process already admitted
// them, so refusing now would strand durable work — but their cost
// still counts against the budget new arrivals see.
func (b *costBudget) forceReserve(cost float64) {
	if cost <= 0 {
		return
	}
	b.mu.Lock()
	b.pending += cost
	b.mu.Unlock()
}

// release returns a finished (or failed) piece of work's reservation.
func (b *costBudget) release(cost float64) {
	if cost <= 0 {
		return
	}
	b.mu.Lock()
	b.pending -= cost
	if b.pending < 0 {
		b.pending = 0
	}
	b.mu.Unlock()
}

// pendingSimS snapshots the reserved backlog.
func (b *costBudget) pendingSimS() float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.pending
}

// shedRetryAfter estimates how long a shed caller should back off: the
// pending backlog divided by a rough drain rate. The engine typically
// simulates tens of times faster than real time per execution slot
// (see BENCH_*.json: manycore runs ~12x, small scenarios far faster),
// so the estimate uses a conservative 20x per slot and clamps to
// [1s, 60s]. It is a hint, not a promise — the point is that every
// 503 tells the client something better than "immediately hammer me
// again".
func shedRetryAfter(pendingSimS float64, maxSims int) time.Duration {
	if maxSims < 1 {
		maxSims = 1
	}
	drainPerSec := 20 * float64(maxSims)
	s := math.Ceil(pendingSimS / drainPerSec)
	if s < 1 {
		s = 1
	}
	if s > 60 {
		s = 60
	}
	return time.Duration(s) * time.Second
}

// shedError is the typed refusal the execute ladder returns when the
// cost budget is exhausted; the handlers map it to 503 + Retry-After.
type shedError struct {
	retryAfter time.Duration
}

func (e *shedError) Error() string {
	return fmt.Sprintf("pending work exceeds the simulated-seconds budget; retry in %s", e.retryAfter)
}

// tokenBucket is one tenant's refilling budget.
type tokenBucket struct {
	tokens float64
	last   time.Time
}

// tenantQuotas is the per-tenant token-bucket table. Buckets refill at
// rps tokens per second up to burst; each admitted request spends one
// token. Tenants are created on first sight and pruned once their
// bucket has refilled completely (a full bucket is indistinguishable
// from a brand-new one, so dropping it loses nothing).
type tenantQuotas struct {
	mu        sync.Mutex
	rps       float64
	burst     float64
	m         map[string]*tokenBucket
	denied    int64
	now       func() time.Time // test seam
	maxBucket int              // prune scan threshold
}

func newTenantQuotas(rps, burst float64) *tenantQuotas {
	if burst < 1 {
		burst = math.Max(1, math.Ceil(2*rps))
	}
	return &tenantQuotas{
		rps:       rps,
		burst:     burst,
		m:         map[string]*tokenBucket{},
		now:       time.Now,
		maxBucket: 4096,
	}
}

// take spends one token from tenant's bucket. ok=false means the
// tenant is over quota; retryAfter is the exact time until the bucket
// holds one token again.
func (q *tenantQuotas) take(tenant string) (ok bool, retryAfter time.Duration) {
	now := q.now()
	q.mu.Lock()
	defer q.mu.Unlock()
	b := q.m[tenant]
	if b == nil {
		if len(q.m) >= q.maxBucket {
			q.pruneLocked(now)
		}
		b = &tokenBucket{tokens: q.burst, last: now}
		q.m[tenant] = b
	} else {
		b.tokens = math.Min(q.burst, b.tokens+q.rps*now.Sub(b.last).Seconds())
		b.last = now
	}
	if b.tokens >= 1 {
		b.tokens--
		return true, 0
	}
	q.denied++
	need := (1 - b.tokens) / q.rps
	return false, time.Duration(math.Ceil(need * float64(time.Second)))
}

// pruneLocked drops every bucket that has refilled to burst — tenants
// idle long enough that forgetting them changes nothing.
func (q *tenantQuotas) pruneLocked(now time.Time) {
	for tenant, b := range q.m {
		if math.Min(q.burst, b.tokens+q.rps*now.Sub(b.last).Seconds()) >= q.burst {
			delete(q.m, tenant)
		}
	}
}

// stats snapshots the tenant count and cumulative denials.
func (q *tenantQuotas) stats() (tenants int, denied int64) {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.m), q.denied
}

// tenantOf identifies the requesting tenant: the configured header
// when present, else the remote IP (port stripped, so one host's
// ephemeral ports share a bucket).
func (s *Server) tenantOf(r *http.Request) string {
	if t := r.Header.Get(s.cfg.TenantHeader); t != "" {
		return t
	}
	if host, _, err := net.SplitHostPort(r.RemoteAddr); err == nil {
		return host
	}
	return r.RemoteAddr
}

// Shed reasons, indexed for the /stats and /metrics counters.
const (
	shedCost = iota
	shedQueueFull
	numShedReasons
)

var shedReasonNames = [numShedReasons]string{"cost", "queue_full"}

// checkQuota enforces the per-tenant quota at the front of a costed
// handler. It writes the 429 itself and reports whether the request
// may proceed.
func (s *Server) checkQuota(w http.ResponseWriter, r *http.Request) bool {
	if s.quota == nil {
		return true
	}
	tenant := s.tenantOf(r)
	ok, retryAfter := s.quota.take(tenant)
	if ok {
		return true
	}
	setRetryAfter(w, retryAfter)
	writeError(w, http.StatusTooManyRequests,
		fmt.Errorf("tenant %q over quota (%g req/s, burst %g); retry in %s",
			tenant, s.quota.rps, s.quota.burst, retryAfter))
	return false
}

// setRetryAfter stamps the integer-seconds Retry-After header (ceil,
// minimum 1: a zero would invite an immediate identical retry).
func setRetryAfter(w http.ResponseWriter, d time.Duration) {
	secs := int64(math.Ceil(d.Seconds()))
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", fmt.Sprintf("%d", secs))
}
