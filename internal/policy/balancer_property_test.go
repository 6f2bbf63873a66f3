package policy

import (
	"math"
	"math/rand"
	"testing"
)

// randomSnapshot builds a syntactically valid snapshot with randomized
// temperatures, frequencies and placements.
func randomSnapshot(rng *rand.Rand) *Snapshot {
	n := 2 + rng.Intn(4) // 2..5 cores
	nt := 1 + rng.Intn(8)
	levels := []float64{133e6, 266e6, 533e6}
	s := &Snapshot{
		Time:    rng.Float64() * 100,
		Temp:    make([]float64, n),
		Freq:    make([]float64, n),
		Powered: make([]bool, n),
		Tasks:   make([]TaskView, nt),
		LevelFor: func(fse float64) float64 {
			need := fse * 533e6
			for _, f := range levels {
				if f >= need-1e-3 {
					return f
				}
			}
			return 533e6
		},
	}
	var sumT, sumF float64
	for c := 0; c < n; c++ {
		s.Temp[c] = 40 + rng.Float64()*40
		s.Freq[c] = levels[rng.Intn(len(levels))]
		s.Powered[c] = rng.Float64() > 0.1
		if !s.Powered[c] {
			s.Freq[c] = 0
		}
		sumT += s.Temp[c]
		sumF += s.Freq[c]
	}
	s.MeanTemp = sumT / float64(n)
	s.MeanFreq = sumF / float64(n)
	for i := 0; i < nt; i++ {
		s.Tasks[i] = TaskView{
			Index:      i,
			Name:       string(rune('A' + i)),
			Core:       rng.Intn(n),
			FSE:        0.02 + rng.Float64()*0.6,
			StateBytes: 64 << 10,
			Migrating:  rng.Float64() < 0.15,
		}
	}
	if rng.Float64() < 0.2 {
		s.MigrationsPending = 1
	}
	return s
}

// Property: every action the balancer emits is well-formed and satisfies
// the paper's three conditions plus the never-while-pending invariant.
func TestBalancerActionsAlwaysValid(t *testing.T) {
	rng := rand.New(rand.NewSource(20080310)) // DATE'08 week, fixed seed
	for trial := 0; trial < 5000; trial++ {
		s := randomSnapshot(rng)
		b := NewBalancer(BalancerParams{Delta: 1 + rng.Float64()*5})
		acts := b.Decide(s)
		if len(acts) == 0 {
			continue
		}
		if s.MigrationsPending > 0 {
			t.Fatalf("trial %d: acted with migration pending", trial)
		}
		if len(acts) != 1 {
			t.Fatalf("trial %d: %d actions, want at most 1 (two processors at a time)", trial, len(acts))
		}
		mg, ok := acts[0].(Migrate)
		if !ok {
			t.Fatalf("trial %d: unexpected action type %T", trial, acts[0])
		}
		if mg.Task < 0 || mg.Task >= len(s.Tasks) {
			t.Fatalf("trial %d: bogus task %d", trial, mg.Task)
		}
		tv := s.Tasks[mg.Task]
		if tv.Migrating {
			t.Fatalf("trial %d: selected already-migrating task", trial)
		}
		src := tv.Core
		dst := mg.Dst
		if dst < 0 || dst >= s.NumCores() || dst == src {
			t.Fatalf("trial %d: bogus destination %d (src %d)", trial, dst, src)
		}
		if !s.Powered[src] || !s.Powered[dst] {
			t.Fatalf("trial %d: involved unpowered core", trial)
		}
		mean := s.MeanTemp
		// Condition 1: thermal opposition, heat flowing downhill.
		if (s.Temp[src]-mean)*(s.Temp[dst]-mean) >= 0 || s.Temp[src] <= s.Temp[dst] {
			t.Fatalf("trial %d: thermal condition violated: src %.1f dst %.1f mean %.1f",
				trial, s.Temp[src], s.Temp[dst], mean)
		}
		// Condition 2: source fast, destination slow.
		if s.Freq[src] <= s.MeanFreq || s.Freq[dst] >= s.MeanFreq {
			t.Fatalf("trial %d: frequency condition violated: src %.0f dst %.0f mean %.0f",
				trial, s.Freq[src], s.Freq[dst], s.MeanFreq)
		}
		// Condition 3: power must not increase.
		before := s.Freq[src]*s.Freq[src] + s.Freq[dst]*s.Freq[dst]
		newSrc := s.LevelFor(s.FSEOn(src) - tv.FSE)
		newDst := s.LevelFor(s.FSEOn(dst) + tv.FSE)
		after := newSrc*newSrc + newDst*newDst
		if after > before+1e-3 {
			t.Fatalf("trial %d: power condition violated: before %g after %g", trial, before, after)
		}
		// The trigger actually existed: some core was out of band.
		out := false
		for c := 0; c < s.NumCores(); c++ {
			if s.Powered[c] && math.Abs(s.Temp[c]-mean) > b.p.Delta {
				out = true
			}
		}
		if !out {
			t.Fatalf("trial %d: migrated while all cores in band", trial)
		}
	}
}

// Property: the balancer is pure modulo its rate-limit state — two fresh
// instances decide identically on the same snapshot.
func TestBalancerPureDecision(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 500; trial++ {
		s := randomSnapshot(rng)
		a1 := NewBalancer(BalancerParams{Delta: 3}).Decide(s)
		a2 := NewBalancer(BalancerParams{Delta: 3}).Decide(s)
		if len(a1) != len(a2) {
			t.Fatalf("trial %d: decision count differs", trial)
		}
		for i := range a1 {
			if a1[i] != a2[i] {
				t.Fatalf("trial %d: decisions differ: %v vs %v", trial, a1[i], a2[i])
			}
		}
	}
}
