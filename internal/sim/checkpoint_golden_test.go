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
		}, "640 6d3c7de14a7c4e2398d8aed58850e060245590ce0fb1d70a7c7bb7957179174b"},
		{"sdr-radio/highperf", func(t *testing.T) *sim.Engine {
			return warmupEngine(t, lookup(t, "sdr-radio"), thermal.HighPerformance(), thermal.Euler, 12.5)
		}, "642 9e46b01a3c9c0ac9b26c55d8c3992eb8d4e9a073dbe3969f722d0f86d31aa349"},
		{"bursty-sdr", func(t *testing.T) *sim.Engine {
			return warmupEngine(t, lookup(t, "bursty-sdr"), thermal.MobileEmbedded(), thermal.Euler, 4.5)
		}, "636 2972784bd594a09c1822093377922b47ba0b3e6c185102b7a9958f34566c4ee8"},
		{"manycore-64/expm", func(t *testing.T) *sim.Engine {
			return warmupEngine(t, lookup(t, "manycore-64"), thermal.MobileEmbedded(), thermal.Expm, 1)
		}, "7929 a1b4bd7014e6ef634075b32f349998aebd32085f3adb87cfb844216e84f5e036"},
		{"generated-7", func(t *testing.T) *sim.Engine {
			return warmupEngine(t, gen, thermal.MobileEmbedded(), thermal.Euler, 0.2)
		}, "2050 bd1aee692e55309388eacb0b75a68882f50bfed5fca238561c1a4d8dcca99037"},
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
		if got, want := digest(checkpoint(t, e)), "812 dc2aa3152b2f69c18187eee1c9ef6c75dc3ccd98c785fef57b06925fd0960d80"; got != want {
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
