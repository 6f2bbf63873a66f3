package experiment

import (
	"context"
	"errors"
	"reflect"
	"sync/atomic"
	"testing"

	"thermbal/internal/thermal"
)

func TestForEachRunsEveryIndex(t *testing.T) {
	for _, workers := range []int{1, 4, 16} {
		out := make([]int, 50)
		err := Runner{Workers: workers}.ForEach(context.Background(), len(out), func(_ context.Context, i int) error {
			out[i] = i * i
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d", workers, i, v)
			}
		}
	}
}

func TestForEachZeroTasks(t *testing.T) {
	if err := (Runner{}).ForEach(context.Background(), 0, nil); err != nil {
		t.Fatal(err)
	}
}

func TestForEachCancellationMidSweep(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var executed atomic.Int32
	err := Runner{Workers: 1}.ForEach(ctx, 100, func(_ context.Context, i int) error {
		executed.Add(1)
		if i == 3 {
			cancel() // external cancellation mid-run
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := executed.Load(); n < 4 || n >= 100 {
		t.Fatalf("executed %d tasks; cancellation did not stop the sweep", n)
	}
}

func TestForEachErrorPropagation(t *testing.T) {
	sentinel := errors.New("run 5 exploded")
	var executed atomic.Int32
	err := Runner{Workers: 1}.ForEach(context.Background(), 100, func(_ context.Context, i int) error {
		executed.Add(1)
		if i == 5 {
			return sentinel
		}
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want sentinel", err)
	}
	if n := executed.Load(); n != 6 {
		t.Fatalf("executed %d tasks after error with 1 worker, want 6", n)
	}
}

func TestForEachReturnsLowestIndexError(t *testing.T) {
	early := errors.New("early")
	late := errors.New("late")
	// Serial execution: index 2 fails first and must win even though
	// index 7 would also fail.
	err := Runner{Workers: 1}.ForEach(context.Background(), 10, func(_ context.Context, i int) error {
		switch i {
		case 2:
			return early
		case 7:
			return late
		}
		return nil
	})
	if !errors.Is(err, early) {
		t.Fatalf("err = %v, want the lowest-index error", err)
	}
}

func TestRunAllPropagatesRunError(t *testing.T) {
	cfgs := []RunConfig{
		{PolicyName: energyBalance, Package: Mobile, Delta: -1}, // invalid: fails fast
	}
	_, err := RunAll(context.Background(), Runner{Workers: 2}, cfgs)
	if err == nil {
		t.Fatal("RunAll accepted a failing run")
	}
}

// The acceptance gate of the parallel refactor: identical results for
// any worker count. Short windows keep the test fast; the runs still
// exercise migration, Stop&Go gating and both packages.
func TestRunAllDeterministicAcrossWorkerCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation runs")
	}
	cfgs := []RunConfig{
		{PolicyName: energyBalance, Package: Mobile, WarmupS: 1, MeasureS: 2},
		{PolicyName: stopGo, Delta: 2, Package: Mobile, WarmupS: 1, MeasureS: 2},
		{PolicyName: thermalBalance, Delta: 3, Package: Mobile, WarmupS: 1, MeasureS: 2},
		{PolicyName: thermalBalance, Delta: 3, Package: HighPerf, WarmupS: 1, MeasureS: 2},
	}
	serial, err := RunAll(context.Background(), Runner{Workers: 1}, cfgs)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := RunAll(context.Background(), Runner{Workers: 8}, cfgs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("results differ across worker counts:\n serial: %+v\n parallel: %+v", serial, parallel)
	}
}

func TestFig2DeterministicAcrossWorkerCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("migration simulation")
	}
	sizes := []int{16, 64}
	one, err := Fig2(context.Background(), Options{Runner: Runner{Workers: 1}}, sizes)
	if err != nil {
		t.Fatal(err)
	}
	many, err := Fig2(context.Background(), Options{Runner: Runner{Workers: 4}}, sizes)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(one, many) {
		t.Fatalf("Fig2 differs across worker counts:\n%v\n%v", one, many)
	}
}

// The integrator option must reach the runs: expm results differ from
// Euler's only within integration tolerance, so the headline metric
// stays close while the scheme actually switches.
func TestOptionsThermalReachesRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation runs")
	}
	base := RunConfig{PolicyName: energyBalance, Package: Mobile, WarmupS: 1, MeasureS: 1}
	euler, _, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	rc := base
	rc.Thermal = thermal.Expm
	expm, _, err := Run(rc)
	if err != nil {
		t.Fatal(err)
	}
	if euler.PooledStdDev == expm.PooledStdDev {
		t.Error("expm run is bit-identical to Euler's: the scheme never reached the engine")
	}
	if d := euler.PooledStdDev - expm.PooledStdDev; d > 0.05 || d < -0.05 {
		t.Errorf("euler std %.4f vs expm std %.4f — schemes diverge beyond tolerance", euler.PooledStdDev, expm.PooledStdDev)
	}
}
