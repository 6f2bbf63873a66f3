package sim_test

// Checkpoint bytes are pinned: any change to what a checkpoint holds or
// how it is encoded shows here first. Restore refusals that need a
// hand-made state are exercised through the engine's public API.

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"

	"thermbal/internal/bus"
	"thermbal/internal/migrate"
	"thermbal/internal/policy"
	"thermbal/internal/scenario"
	"thermbal/internal/sim"
	"thermbal/internal/thermal"
)

// warmupEngine builds sc as experiment.Run does for a warm-up of
// warmupS seconds.
func warmupEngine(t *testing.T, sc scenario.Scenario, pkg thermal.Package, ig thermal.Scheme, warmupS float64) *sim.Engine {
	t.Helper()
	inst, err := sc.Instantiate(scenario.Options{Package: pkg})
	if err != nil {
		t.Fatal(err)
	}
	pol, err := policy.New(sc.DefaultPolicy, policy.Args{Delta: sc.DefaultDelta})
	if err != nil {
		t.Fatal(err)
	}
	e, err := sim.New(sim.Config{PolicyStartS: warmupS, MeasureStartS: warmupS,
		Thermal: ig, Modulate: inst.Modulate}, inst.Platform, inst.Graph, pol)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func lookup(t *testing.T, name string) scenario.Scenario {
	t.Helper()
	sc, err := scenario.Lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

func digest(cp *sim.Checkpoint) string {
	sum := sha256.Sum256(cp.Data())
	return fmt.Sprintf("%d %s", len(cp.Data()), hex.EncodeToString(sum[:]))
}

// midRunTick is a tick of the scripted sdr-radio run (replication) at
// which a migration is transferring: its context is in flight on the
// bus.
const midRunTick = 5030

// midRun is the scripted sdr-radio engine at midRunTick.
func midRun(t *testing.T) *sim.Engine {
	t.Helper()
	e := buildScripted(t, "sdr-radio", sim.Config{PolicyStartS: 0.3, MeasureStartS: 0.2})
	runTo(t, e, midRunTick)
	return e
}

// transferring returns the index of a task whose migration is in its
// transfer phase.
func transferring(t *testing.T, e *sim.Engine) int {
	t.Helper()
	for ti := range e.Graph().NumTasks() {
		if mg, ok := e.Migrations().Pending(ti); ok && mg.Phase == migrate.Transferring && e.Platform().Bus.Active() > 0 {
			return ti
		}
	}
	t.Fatalf("no migration is transferring at tick %d", e.Ticks())
	return -1
}

// Length and SHA-256 of the checkpoint at WarmupEnd for the
// warm-ups the benchmark and the paper sweep share, a generated
// workload, and a mid-run state holding a transferring migration.
func TestCheckpointBytesGolden(t *testing.T) {
	gen, err := scenario.FromSpec(scenario.Generate(7))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		e    func(*testing.T) *sim.Engine
		want string
	}{
		{"sdr-radio/mobile", func(t *testing.T) *sim.Engine {
			return warmupEngine(t, lookup(t, "sdr-radio"), thermal.MobileEmbedded(), thermal.Euler, 12.5)
		}, "629 a1430889cad4acfc658d34e7b54c6bf451d0dcd50688240f69ff7ae5c53f1196"},
		{"sdr-radio/highperf", func(t *testing.T) *sim.Engine {
			return warmupEngine(t, lookup(t, "sdr-radio"), thermal.HighPerformance(), thermal.Euler, 12.5)
		}, "631 9e372493040a174f05e6fa8ff4dd936ce4b8f6a75cb973b1e36d804dd659fd78"},
		{"bursty-sdr", func(t *testing.T) *sim.Engine {
			return warmupEngine(t, lookup(t, "bursty-sdr"), thermal.MobileEmbedded(), thermal.Euler, 4.5)
		}, "625 0b82d308d17e408b623b5e8a12d58a73fca179ece0118438acec665c138d35d5"},
		{"manycore-64/expm", func(t *testing.T) *sim.Engine {
			return warmupEngine(t, lookup(t, "manycore-64"), thermal.MobileEmbedded(), thermal.Expm, 1)
		}, "7918 7eec699dd0d64847c9970206b9e278c1eb96c1d9664543c3ba4cefbc7ae2d5bb"},
		{"generated-7", func(t *testing.T) *sim.Engine {
			return warmupEngine(t, gen, thermal.MobileEmbedded(), thermal.Euler, 0.2)
		}, "2039 02655244383d49446bd25ce62a77c7db89c52b14c6feff4f5b7543d37213a715"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := tc.e(t)
			runTo(t, e, e.WarmupEnd())
			if got := digest(checkpoint(t, e)); got != tc.want {
				t.Errorf("checkpoint %s, want %s", got, tc.want)
			}
		})
	}
	t.Run("mid-run", func(t *testing.T) {
		e := midRun(t)
		transferring(t, e)
		if got, want := digest(checkpoint(t, e)), "801 6351ee57c7730dc76ef627cacd84413b495713b956e55a5b5b135ca3b0447a6a"; got != want {
			t.Errorf("checkpoint %s, want %s", got, want)
		}
	})
}

// Restore refuses a queue holding more frames than the restored
// queue's capacity.
func TestRestoreRefusesQueueOverCapacity(t *testing.T) {
	sc := lookup(t, "sdr-radio")
	build := func(queueCap int) *sim.Engine {
		inst, err := sc.Instantiate(scenario.Options{QueueCap: queueCap})
		if err != nil {
			t.Fatal(err)
		}
		e, err := sim.New(sim.Config{}, inst.Platform, inst.Graph, scriptedPolicy{})
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	src := build(0)
	full := func() bool {
		for q := range src.Graph().NumQueues() {
			if src.Graph().Queue(q).Len() > 2 {
				return true
			}
		}
		return false
	}
	for !full() {
		if src.Ticks() > 100_000 {
			t.Fatal("no queue ever held more than 2 frames")
		}
		runTo(t, src, src.Ticks()+10)
	}
	err := build(2).Restore(checkpoint(t, src))
	if err == nil || !strings.Contains(err.Error(), "capacity 2") {
		t.Fatalf("restoring onto 2-frame queues: %v", err)
	}
}

// Restore refuses a migration of a task the restored graph lacks.
func TestRestoreRefusesMigrationTaskOutOfRange(t *testing.T) {
	e := midRun(t)
	mg, _ := e.Migrations().Pending(transferring(t, e))
	mg.TaskIdx = 99
	err := midRun(t).Restore(checkpoint(t, e))
	if err == nil || !strings.Contains(err.Error(), "task 99") {
		t.Fatalf("restoring a migration of task 99: %v", err)
	}
}

// Restore refuses a migration whose unfinished transfer is not in
// flight on the restored bus.
func TestRestoreRefusesTransferNotOnBus(t *testing.T) {
	e := midRun(t)
	transferring(t, e)
	e.Platform().Bus = bus.New()
	err := midRun(t).Restore(checkpoint(t, e))
	if err == nil || !strings.Contains(err.Error(), "not in flight") {
		t.Fatalf("restoring a transfer missing from the bus: %v", err)
	}
}
