package policy

import (
	"math"
	"sort"
)

// Defaults for BalancerParams.
const (
	// DefaultMinInterval throttles policy-issued migrations; the master
	// daemon evaluates the slave daemons' statistics on this period.
	DefaultMinInterval = 0.30
	// DefaultTopK bounds the task subset considered on each core.
	DefaultTopK = 3
	// DefaultMaxFreezeS is the QoS budget: migrations predicted to
	// freeze a task longer than this are filtered out.
	DefaultMaxFreezeS = 0.25
)

// BalancerParams configures the balancer.
type BalancerParams struct {
	// Delta is the half-width of the allowed temperature band around
	// the mean (°C). The paper sweeps 2..5 and operates at 3.
	Delta float64
	// MinInterval is the minimum time between issued migrations (s).
	MinInterval float64
	// TopK is the number of highest-load tasks considered per core.
	TopK int
	// MaxFreezeS rejects migrations whose estimated freeze exceeds it.
	MaxFreezeS float64
}

// Balancer is the paper's contribution: the migration-based thermal
// balancing policy (Section 3), a MiGra-inspired algorithm that keeps
// every core's temperature inside a band of ±Delta around the current
// mean chip temperature by exchanging tasks between a hot and a cold
// core.
//
// The algorithm has two phases (Section 3.1):
//
//  1. Candidate selection. A destination core is eligible to exchange
//     workload with the source only if all three conditions hold:
//
//     - thermal opposition: (t_src − t_mean)·(t_dst − t_mean) < 0
//     - frequency opposition: (f_src − f_mean)·(f_dst − f_mean) < 0
//     - no extra power: (f_src² + f_dst²)_before ≥ (f_src² + f_dst²)_after
//
//  2. Task-set selection. An exhaustive search over task subsets is
//     impractical, so only the few highest-load tasks are considered
//     (the effect of migrating a task on balance decreases with its
//     load). The final target minimises the Eq. 1 cost:
//
//     cost(tgt) = (Σ C_src,i + Σ C_tgt,j) / (t_tgt − t_mean)²
//
//     i.e. data moved times expected re-trigger frequency — a colder
//     target needs re-balancing later, so it divides the cost more.
//
// Migration costs are estimated through the middleware (MiGra's request
// filtering): a move whose predicted freeze time exceeds the QoS budget
// is rejected.
//
// The balancer carries trigger state (last issue time), so one instance
// drives one run.
type Balancer struct {
	p         BalancerParams
	lastIssue float64
}

// NewBalancer creates a balancer, applying defaults for zero fields.
// Delta must be positive.
func NewBalancer(p BalancerParams) *Balancer {
	if p.Delta <= 0 {
		panic("policy: Balancer requires a positive Delta")
	}
	if p.MinInterval <= 0 {
		p.MinInterval = DefaultMinInterval
	}
	if p.TopK <= 0 {
		p.TopK = DefaultTopK
	}
	if p.MaxFreezeS <= 0 {
		p.MaxFreezeS = DefaultMaxFreezeS
	}
	return &Balancer{p: p, lastIssue: math.Inf(-1)}
}

// Name implements Policy.
func (b *Balancer) Name() string { return "thermal-balance" }

// Decide implements Policy.
func (b *Balancer) Decide(s *Snapshot) []Action {
	// One exchange at a time, between exactly two processors
	// (Section 3.1), and rate-limited by the daemon period.
	if s.MigrationsPending > 0 {
		return nil
	}
	if s.Time-b.lastIssue < b.p.MinInterval {
		return nil
	}

	mean := s.MeanTemp
	src, dstFixed, ok := b.trigger(s, mean)
	if !ok {
		return nil
	}

	best, ok := b.selectMove(s, mean, src, dstFixed)
	if !ok {
		return nil
	}
	b.lastIssue = s.Time
	return []Action{Migrate{Task: best.task, Dst: best.dst}}
}

// trigger finds the threshold crossing. For a hot trigger it returns
// (hotCore, -1); for a cold trigger (coldCore's partner is chosen later)
// it returns (-1, coldCore). ok is false when every core is in band.
func (b *Balancer) trigger(s *Snapshot, mean float64) (src, dst int, ok bool) {
	hot, cold := -1, -1
	for c := 0; c < s.NumCores(); c++ {
		if !s.Powered[c] {
			continue
		}
		t := s.Temp[c]
		if t > mean+b.p.Delta && (hot < 0 || t > s.Temp[hot]) {
			hot = c
		}
		if t < mean-b.p.Delta && (cold < 0 || t < s.Temp[cold]) {
			cold = c
		}
	}
	switch {
	case hot >= 0:
		return hot, -1, true
	case cold >= 0:
		return -1, cold, true
	default:
		return -1, -1, false
	}
}

// move is a fully specified candidate migration.
type move struct {
	task int
	src  int
	dst  int
	cost float64 // Eq. 1 value
}

// selectMove enumerates eligible (pair, task) combinations and returns
// the Eq. 1 minimiser. When src < 0 the trigger was cold: dstFixed is
// the cold core and the partner (source of tasks) is searched among hot
// cores; otherwise src is the hot core and destinations are searched.
func (b *Balancer) selectMove(s *Snapshot, mean float64, src, dstFixed int) (move, bool) {
	best := move{cost: math.Inf(1), task: -1}
	consider := func(from, to int) {
		if from == to || !s.Powered[from] || !s.Powered[to] {
			return
		}
		// Condition 1: thermal opposition — tasks flow from the side of
		// the mean the trigger core sits on to the opposite side.
		if (s.Temp[from]-mean)*(s.Temp[to]-mean) >= 0 {
			return
		}
		if s.Temp[from] <= s.Temp[to] {
			return // heat must flow downhill: source hotter than target
		}
		// Condition 2: frequency opposition. The source must be the
		// fast side: a core that is hot but already running slow is
		// glowing with residual heat, not generating it — shedding its
		// load would only thrash (its temperature falls by itself).
		if s.Freq[from] <= s.MeanFreq || s.Freq[to] >= s.MeanFreq {
			return
		}
		ti, bytes, ok := b.pickTask(s, from, to)
		if !ok {
			return
		}
		// Eq. 1: moved data over squared distance of the target from
		// the mean. The task set here is a single task from the source
		// side (Σ C_tgt is empty for a one-way move).
		d := s.Temp[to] - mean
		cost := bytes / (d * d)
		if cost < best.cost {
			best = move{task: ti, src: from, dst: to, cost: cost}
		}
	}
	if src >= 0 {
		for c := 0; c < s.NumCores(); c++ {
			consider(src, c)
		}
	} else {
		for c := 0; c < s.NumCores(); c++ {
			consider(c, dstFixed)
		}
	}
	return best, best.task >= 0
}

// pickTask chooses which task to move from core `from` to core `to`:
// among the TopK highest-load migratable tasks, the one whose move best
// equalises the two FSE loads, subject to the power condition and the
// freeze-cost filter.
func (b *Balancer) pickTask(s *Snapshot, from, to int) (ti int, bytes float64, ok bool) {
	cands := make([]TaskView, 0, 8)
	for _, tv := range s.Tasks {
		if tv.Core == from && !tv.Migrating {
			cands = append(cands, tv)
		}
	}
	if len(cands) == 0 {
		return -1, 0, false
	}
	// Highest loads first; stable tiebreak on index for determinism.
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].FSE != cands[j].FSE {
			return cands[i].FSE > cands[j].FSE
		}
		return cands[i].Index < cands[j].Index
	})
	if len(cands) > b.p.TopK {
		cands = cands[:b.p.TopK]
	}

	loadFrom := s.FSEOn(from)
	loadTo := s.FSEOn(to)
	fBefore := float64(sq(s.Freq[from])) + float64(sq(s.Freq[to]))

	// Note on selection: with DVFS a hot→cold move usually *swaps* the
	// load imbalance rather than shrinking it (the paper's Figure 1:
	// task B bounces between the cores and the time-averaged load
	// equalises), so we do not require each move to reduce the
	// instantaneous imbalance. Among admissible tasks we prefer the
	// lowest post-move power (condition 3 objective) and break ties on
	// the smallest post-move load imbalance.
	bestIdx, bestBytes := -1, 0.0
	bestPow, bestImb := math.Inf(1), math.Inf(1)
	for _, tv := range cands {
		newFrom := loadFrom - tv.FSE
		newTo := loadTo + tv.FSE
		// Condition 3: total switching power must not increase
		// (f² is the DVFS power proxy; V scales with f).
		fAfter := float64(sq(s.LevelFor(newFrom))) + float64(sq(s.LevelFor(newTo)))
		if fAfter > fBefore+1e-6 {
			continue
		}
		// MiGra cost filter: predicted freeze within the QoS budget.
		if s.EstimateFreeze != nil && s.EstimateFreeze(tv.Index) > b.p.MaxFreezeS {
			continue
		}
		imb := math.Abs(newFrom - newTo)
		if fAfter < bestPow-1e-6 || (math.Abs(fAfter-bestPow) <= 1e-6 && imb < bestImb) {
			bestPow = fAfter
			bestImb = imb
			bestIdx = tv.Index
			bestBytes = tv.StateBytes
		}
	}
	if bestIdx < 0 {
		return -1, 0, false
	}
	return bestIdx, bestBytes, true
}

func sq(x float64) float64 { return x * x }

// Compile-time interface check.
var _ Policy = (*Balancer)(nil)
