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
		Thermal: thermal.Config{Scheme: ig}, Modulate: inst.Modulate}, inst.Platform, inst.Graph, pol)
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
		}, "887 0930f3382a5234d477c57d38dcd6cbebf5185d1e80969c4866acb79ccd945f12"},
		{"sdr-radio/highperf", func(t *testing.T) *sim.Engine {
			return warmupEngine(t, lookup(t, "sdr-radio"), thermal.HighPerformance(), thermal.Euler, 12.5)
		}, "889 7775afa360d615475285efd92c5e0f33f4fd8d334b967a3d1e88a23837d2fb2c"},
		{"bursty-sdr", func(t *testing.T) *sim.Engine {
			return warmupEngine(t, lookup(t, "bursty-sdr"), thermal.MobileEmbedded(), thermal.Euler, 4.5)
		}, "891 9ec0bbb8f03119f6efd9b8eff2051de663a2d200d2b203cfa87a37f13916cc27"},
		{"manycore-64/expm", func(t *testing.T) *sim.Engine {
			return warmupEngine(t, lookup(t, "manycore-64"), thermal.MobileEmbedded(), thermal.Expm, 1)
		}, "10082 fea1edad93d7f2e2ada81960cb5b5b55c468513f67cd3233d43669b3a2f0d2ad"},
		{"generated-7", func(t *testing.T) *sim.Engine {
			return warmupEngine(t, gen, thermal.MobileEmbedded(), thermal.Euler, 0.2)
		}, "2587 1e9f36fa833efa5b97f180f14f22383f23304856fa8145069ca2d67f687532e1"},
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
		if got, want := digest(checkpoint(t, e)), "1197 44e920de0469c5c1b88e88625d9f506df068b672aa6b55992d5001361868d1fc"; got != want {
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
	e.Platform().Bus = bus.New(bus.Params{})
	err := midRun(t).Restore(checkpoint(t, e))
	if err == nil || !strings.Contains(err.Error(), "not in flight") {
		t.Fatalf("restoring a transfer missing from the bus: %v", err)
	}
}
