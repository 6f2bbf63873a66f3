package experiment_test

// Warm-up checkpoints: a run that restores its warm-up must be the run
// that simulated it — same document bytes, same Profile — in any order,
// concurrently, and for any scenario.

import (
	"fmt"
	"math/rand/v2"
	"sync"
	"testing"

	"thermbal/internal/experiment"
	"thermbal/internal/policy"
	"thermbal/internal/request"
	"thermbal/internal/scenario"
	"thermbal/internal/sim"
)

// outcome is what a run shows its callers.
type outcome struct {
	doc  string
	prof sim.Profile
}

type runFunc func(experiment.RunConfig) (sim.Result, *sim.Engine, error)

// cell canonicalizes req as the service does, then applies the engine
// knob requests cannot spell.
func cell(t testing.TB, req request.Request, noFastPath bool) (request.Request, experiment.RunConfig) {
	t.Helper()
	canon, rc, err := request.Canonicalize(req)
	if err != nil {
		t.Fatal(err)
	}
	rc.NoFastPath = noFastPath
	return canon, rc
}

func runCell(t testing.TB, run runFunc, canon request.Request, rc experiment.RunConfig) outcome {
	t.Helper()
	res, e, err := run(rc)
	if err != nil {
		t.Fatal(err)
	}
	doc, err := request.EncodeDoc(request.NewRunDoc(canon, res))
	if err != nil {
		t.Fatal(err)
	}
	return outcome{doc: string(doc), prof: e.Profile()}
}

func requireSame(t testing.TB, what string, fresh, restored outcome) {
	t.Helper()
	if fresh.doc != restored.doc {
		t.Fatalf("%s: documents differ:\n fresh:    %s\n restored: %s", what, fresh.doc, restored.doc)
	}
	if fresh.prof != restored.prof {
		t.Fatalf("%s: profiles differ:\n fresh:    %+v\n restored: %+v", what, fresh.prof, restored.prof)
	}
}

// Every builtin × every registered policy × both integrators × fast
// path on and off: each policy's run restores the checkpoint another
// policy's run left and equals the run that simulated its warm-up.
func TestWarmupRestoreEquivalence(t *testing.T) {
	policies := policy.Names()
	for _, sc := range scenario.Names() {
		for _, ig := range []string{"euler", "expm"} {
			for _, noFast := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/%s/nofast=%v", sc, ig, noFast), func(t *testing.T) {
					c := experiment.NewWarmupCache(experiment.WarmupCacheBudget)
					mk := func(pol string) (request.Request, experiment.RunConfig) {
						return cell(t, request.Request{Scenario: sc, Policy: pol, Delta: 3,
							WarmupS: 0.12, MeasureS: 0.1, Integrator: ig}, noFast)
					}
					pc, prc := mk(policies[len(policies)-1])
					runCell(t, c.Run, pc, prc)
					for _, pol := range policies {
						canon, rc := mk(pol)
						requireSame(t, pol, runCell(t, experiment.RunUncached, canon, rc), runCell(t, c.Run, canon, rc))
					}
					if st := c.Stats(); st.Misses != 1 || st.Hits != int64(len(policies)) {
						t.Fatalf("cache %+v, want 1 miss and %d hits", st, len(policies))
					}
				})
			}
		}
	}
}

// One checkpoint serves sibling runs (every policy × δ) restored all at
// once on an empty cache — the warm-up runs once — and again in a
// shuffled order.
func TestWarmupSiblingsShuffledAndConcurrent(t *testing.T) {
	type sib struct {
		canon request.Request
		rc    experiment.RunConfig
		fresh outcome
	}
	var sibs []sib
	for _, pol := range policy.Names() {
		for _, d := range experiment.Deltas {
			canon, rc := cell(t, request.Request{Scenario: "sdr-radio", Policy: pol, Delta: d,
				Package: "high-performance", WarmupS: 2, MeasureS: 1}, false)
			sibs = append(sibs, sib{canon, rc, runCell(t, experiment.RunUncached, canon, rc)})
		}
	}
	c := experiment.NewWarmupCache(experiment.WarmupCacheBudget)
	type ran struct {
		res sim.Result
		e   *sim.Engine
		err error
	}
	done := make([]ran, len(sibs))
	var wg sync.WaitGroup
	for i := range sibs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := &done[i]
			r.res, r.e, r.err = c.Run(sibs[i].rc)
		}()
	}
	wg.Wait()
	if st := c.Stats(); st.Misses != 1 || st.Hits != int64(len(sibs)-1) {
		t.Fatalf("concurrent siblings: cache %+v, want 1 miss and %d hits", st, len(sibs)-1)
	}
	for i, s := range sibs {
		r := done[i]
		got := runCell(t, func(experiment.RunConfig) (sim.Result, *sim.Engine, error) { return r.res, r.e, r.err }, s.canon, s.rc)
		requireSame(t, fmt.Sprintf("concurrent %s δ=%g", s.canon.Policy, s.canon.Delta), s.fresh, got)
	}
	for _, i := range rand.New(rand.NewPCG(1, 2)).Perm(len(sibs)) {
		s := sibs[i]
		requireSame(t, fmt.Sprintf("shuffled %s δ=%g", s.canon.Policy, s.canon.Delta), s.fresh, runCell(t, c.Run, s.canon, s.rc))
	}
	if st := c.Stats(); st.Misses != 1 {
		t.Fatalf("shuffled siblings re-simulated the warm-up: %+v", st)
	}
}

// Windows that are not whole ticks: the fork splits the run in absolute
// ticks, so hit, miss and uncached runs all end at the tick nearest
// WarmupS+MeasureS, as one engine call would.
func TestWarmupNonAlignedWindows(t *testing.T) {
	canon, rc := cell(t, request.Request{Scenario: "sdr-radio", Policy: "thermal-balance", Delta: 3,
		WarmupS: 1.00003, MeasureS: 2.00003}, false)
	_, e, err := experiment.RunUncached(rc)
	if err != nil {
		t.Fatal(err)
	}
	if e.Ticks() != 30_001 {
		t.Fatalf("run ended at tick %d, want 30001 (3.00006 s)", e.Ticks())
	}
	fresh := runCell(t, experiment.RunUncached, canon, rc)
	c := experiment.NewWarmupCache(experiment.WarmupCacheBudget)
	requireSame(t, "miss", fresh, runCell(t, c.Run, canon, rc))
	requireSame(t, "hit", fresh, runCell(t, c.Run, canon, rc))
	if st := c.Stats(); st.Hits != 1 {
		t.Fatalf("cache %+v, want 1 hit", st)
	}
}

// bursty-sdr is a serve-cold scenario whose modulator used to keep its
// phase in a closure: a restored run must still equal a fresh one, with
// the fork past the first phase flip and the run across the next.
func TestWarmupRestoreBurstySDR(t *testing.T) {
	c := experiment.NewWarmupCache(experiment.WarmupCacheBudget)
	mk := func(pol string) (request.Request, experiment.RunConfig) {
		return cell(t, request.Request{Scenario: "bursty-sdr", Policy: pol, Delta: 2,
			WarmupS: 4.5, MeasureS: 4}, false)
	}
	pc, prc := mk("stop-go")
	runCell(t, c.Run, pc, prc)
	canon, rc := mk("thermal-balance")
	requireSame(t, "bursty-sdr", runCell(t, experiment.RunUncached, canon, rc), runCell(t, c.Run, canon, rc))
	if st := c.Stats(); st.Hits != 1 {
		t.Fatalf("cache %+v, want 1 hit", st)
	}
}

// A traced run records its warm-up's timeline, which no checkpoint
// holds: it simulates the warm-up even when its key is cached, leaves
// the cache alone, and reports the run a restored untraced one does.
func TestWarmupTracedRunSimulates(t *testing.T) {
	canon, rc := cell(t, request.Request{Scenario: "sdr-radio", Policy: "thermal-balance", Delta: 3,
		WarmupS: 0.5137, MeasureS: 0.2}, false)
	runCell(t, experiment.Run, canon, rc)
	restored := runCell(t, experiment.Run, canon, rc)
	before := experiment.WarmupCacheStats()
	rc.Trace = true
	res, e, err := experiment.Run(rc)
	if err != nil {
		t.Fatal(err)
	}
	if after := experiment.WarmupCacheStats(); after.Hits != before.Hits || after.Misses != before.Misses {
		t.Errorf("traced run used the cache: %+v, then %+v", before, after)
	}
	if s := e.Recorder().Samples(); len(s) == 0 || s[0].Time >= rc.WarmupS {
		t.Fatal("traced run's timeline does not cover its warm-up")
	}
	traced := runCell(t, func(experiment.RunConfig) (sim.Result, *sim.Engine, error) { return res, e, nil }, canon, rc)
	requireSame(t, "traced", restored, traced)
}

// The byte budget evicts the least recently used checkpoint, and a
// checkpoint larger than the whole budget is never kept.
func TestWarmupCacheBudget(t *testing.T) {
	mk := func(pkg string) experiment.RunConfig {
		_, rc := cell(t, request.Request{Scenario: "sdr-radio", Policy: "energy-balance",
			Package: pkg, WarmupS: 0.5, MeasureS: 0.1}, false)
		return rc
	}
	mobile, hp := mk("mobile"), mk("high-performance")
	size := func(rc experiment.RunConfig) int {
		c := experiment.NewWarmupCache(1 << 30)
		if _, _, err := c.Run(rc); err != nil {
			t.Fatal(err)
		}
		return c.Stats().Bytes
	}
	a, b := size(mobile), size(hp)
	if a <= 0 || b <= 0 {
		t.Fatalf("checkpoint sizes %d and %d", a, b)
	}
	run := func(c *experiment.WarmupCache, rc experiment.RunConfig) {
		if _, _, err := c.Run(rc); err != nil {
			t.Fatal(err)
		}
	}
	c := experiment.NewWarmupCache(a + b - 1)
	run(c, mobile)
	run(c, hp)
	if st := c.Stats(); st.Evictions != 1 || st.Bytes != b {
		t.Fatalf("after two keys over budget: %+v, want 1 eviction holding %d bytes", st, b)
	}
	run(c, hp)
	run(c, mobile)
	if st := c.Stats(); st.Hits != 1 || st.Misses != 3 || st.Evictions != 2 {
		t.Fatalf("after re-running both: %+v, want 1 hit, 3 misses, 2 evictions", st)
	}
	small := experiment.NewWarmupCache(a - 1)
	run(small, mobile)
	run(small, mobile)
	if st := small.Stats(); st.Hits != 0 || st.Misses != 2 || st.Bytes != 0 {
		t.Fatalf("over-budget checkpoint: %+v, want 2 misses and nothing kept", st)
	}
}

// FuzzWarmupCheckpoint runs generated workloads through a restored
// warm-up: the run must be bit-identical to the one that simulated it.
func FuzzWarmupCheckpoint(f *testing.F) {
	for _, seed := range []int64{1, 7, 42} {
		f.Add(seed, uint8(seed))
	}
	policies := policy.Names()
	f.Fuzz(func(t *testing.T, seed int64, knobs uint8) {
		sp := scenario.Generate(seed)
		ig := []string{"euler", "expm"}[knobs%2]
		pol := policies[int(knobs/2)%len(policies)]
		mk := func(pol string) (request.Request, experiment.RunConfig) {
			return cell(t, request.Request{Spec: &sp, Policy: pol, Delta: 2,
				WarmupS: 0.2, MeasureS: 0.1, Integrator: ig}, false)
		}
		c := experiment.NewWarmupCache(experiment.WarmupCacheBudget)
		pc, prc := mk(policies[(int(knobs/2)+1)%len(policies)])
		runCell(t, c.Run, pc, prc)
		canon, rc := mk(pol)
		requireSame(t, sp.Name, runCell(t, experiment.RunUncached, canon, rc), runCell(t, c.Run, canon, rc))
		if st := c.Stats(); st.Hits != 1 {
			t.Fatalf("cache %+v, want 1 hit", st)
		}
	})
}
