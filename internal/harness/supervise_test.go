package harness

import (
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"

	"vrsim/internal/core"
	"vrsim/internal/cpu"
	"vrsim/internal/isa"
	"vrsim/internal/mem"
	"vrsim/internal/workloads"
)

// panicPrefetcher crashes on the first access it observes — a stand-in for
// any bug deep inside the memory system.
type panicPrefetcher struct{}

func (panicPrefetcher) OnAccess(h *mem.Hierarchy, ev mem.AccessEvent) {
	panic("prefetcher exploded")
}

func TestRunSupervisedSetupRejection(t *testing.T) {
	w := workloads.MicroStream(256)
	cases := []struct {
		name   string
		mutate func(rc *RunConfig)
		want   error
	}{
		{"cpu", func(rc *RunConfig) { rc.CPU.ROBSize = 0 }, cpu.ErrBadConfig},
		{"cpu-fu", func(rc *RunConfig) { rc.CPU.FUCount[1] = 0 }, cpu.ErrBadConfig},
		{"cpu-latency", func(rc *RunConfig) { rc.CPU.FULatency[isa.FUIntALU] = math.MaxUint64 - 2 }, cpu.ErrBadConfig},
		{"mem", func(rc *RunConfig) { rc.Mem.L1SizeBytes = 3 * 64 }, mem.ErrBadConfig},
		{"core", func(rc *RunConfig) { rc.VR.VectorLength = 0 }, core.ErrBadConfig},
		{"faults", func(rc *RunConfig) { rc.Faults.LatencySpikeProb = 2 }, mem.ErrBadConfig},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rc := DefaultRunConfig(TechVR)
			tc.mutate(&rc)
			_, err := RunSupervised(w, rc)
			if !errors.Is(err, tc.want) {
				t.Fatalf("err = %v, want %v", err, tc.want)
			}
			var re *RunError
			if !errors.As(err, &re) {
				t.Fatalf("err = %T, want *RunError", err)
			}
			if re.Phase != "setup" || re.Snapshot != nil || re.Stack != nil {
				t.Fatalf("setup rejection = %+v: want phase setup, no snapshot/stack", re)
			}
		})
	}
	// Unknown techniques are rejected before construction, too.
	if _, err := RunSupervised(w, RunConfig{Tech: "warp-drive"}); err == nil {
		t.Fatal("unknown technique accepted")
	}
}

func TestSupervisedRecoversPanic(t *testing.T) {
	rc := DefaultRunConfig(TechOoO)
	rc.MaxBudget = 20_000
	in, err := newInstance(workloads.MicroStream(512), rc)
	if err != nil {
		t.Fatal(err)
	}
	in.hier.SetPrefetcher(panicPrefetcher{})
	_, err = supervised(in)
	var re *RunError
	if err == nil || !errors.As(err, &re) {
		t.Fatalf("err = %v, want *RunError", err)
	}
	if re.Phase != "run" {
		t.Errorf("phase = %q, want run", re.Phase)
	}
	if re.Stack == nil {
		t.Error("recovered panic must carry the stack")
	}
	if re.Snapshot == nil {
		t.Fatal("recovered panic must carry a machine snapshot")
	}
	if !strings.Contains(err.Error(), "prefetcher exploded") {
		t.Errorf("error %q does not name the panic", err)
	}
	if !strings.Contains(err.Error(), "rob=") {
		t.Errorf("error %q does not render the snapshot", err)
	}
}

func TestRunSupervisedRecoversInjectedPanic(t *testing.T) {
	rc := DefaultRunConfig(TechOoO)
	rc.MaxBudget = 50_000
	rc.Faults = mem.FaultConfig{Seed: 1, PanicAfter: 100}
	_, err := RunSupervised(workloads.MicroChase(2048, 4000), rc)
	var re *RunError
	if err == nil || !errors.As(err, &re) {
		t.Fatalf("err = %v, want *RunError", err)
	}
	if re.Phase != "run" || re.Stack == nil || re.Snapshot == nil {
		t.Fatalf("recovered fault = %+v: want run phase with stack and snapshot", re)
	}
}

// TestWatchdogCatchesHang injects an unbounded-latency memory access and
// requires the forward-progress watchdog — not the 2B-cycle MaxCycles
// backstop — to abort the run with a typed, snapshot-carrying error.
func TestWatchdogCatchesHang(t *testing.T) {
	rc := DefaultRunConfig(TechOoO)
	rc.MaxBudget = 50_000
	rc.WatchdogCycles = 10_000
	rc.Faults = mem.FaultConfig{Seed: 1, HangAfter: 3}
	_, err := RunSupervised(workloads.MicroChase(2048, 4000), rc)
	if !errors.Is(err, ErrNoProgress) {
		t.Fatalf("err = %v, want ErrNoProgress", err)
	}
	var re *RunError
	if !errors.As(err, &re) {
		t.Fatalf("err = %T, want *RunError", err)
	}
	if re.Snapshot == nil {
		t.Fatal("watchdog abort must carry a snapshot")
	}
	if re.Stack != nil {
		t.Error("watchdog abort is not a panic; no stack expected")
	}
	if re.Snapshot.Cycle > 2*rc.WatchdogCycles+re.Snapshot.Committed*100 {
		t.Errorf("watchdog fired late: snapshot %s", re.Snapshot)
	}
}

// TestFaultInjectionDeterministic: the same seed must produce the same
// faults and therefore a bit-identical Result.
func TestFaultInjectionDeterministic(t *testing.T) {
	runOnce := func() Result {
		t.Helper()
		rc := DefaultRunConfig(TechVR)
		rc.MaxBudget = 30_000
		rc.Faults = mem.FaultConfig{
			Seed:               7,
			LatencySpikeProb:   0.2,
			LatencySpikeCycles: 400,
			DropPrefetchProb:   0.3,
			MSHRStarveProb:     0.1,
			MSHRStarveCycles:   100,
		}
		r, err := RunSupervised(workloads.MicroStream(4096), rc)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	r1, r2 := runOnce(), runOnce()
	if !reflect.DeepEqual(r1, r2) {
		t.Errorf("same seed, different results:\n%+v\n%+v", r1, r2)
	}
	if r1.Faults.LatencySpikes+r1.Faults.PrefetchDrops+r1.Faults.MSHRStarves == 0 {
		t.Error("no faults delivered; the determinism check is vacuous")
	}
}

// TestExperimentDegradesGracefully: with per-cell injectors set to crash on
// the Nth demand access, an experiment completes, renders ERR for exactly
// the cell that crashed, and keeps real numbers for the rest. At this
// budget a camel cell sees ~2.0K demand accesses and an hj2 cell ~3.2K, so
// PanicAfter=2500 fires in hj2's baseline cell alone (its dependent VR
// cell is skipped, not failed) and camel's row survives.
func TestExperimentDegradesGracefully(t *testing.T) {
	opt := Options{
		MaxBudget: 20_000,
		Workloads: []string{"camel", "hj2"},
		Faults:    mem.FaultConfig{Seed: 1, PanicAfter: 2500},
	}
	tab, err := ExpF9MLP(opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Errors) != 1 {
		t.Fatalf("errors = %v, want exactly one", tab.Errors)
	}
	if !strings.Contains(tab.Errors[0], "panic") || !strings.Contains(tab.Errors[0], "cycle=") {
		t.Errorf("error entry %q lacks panic cause or snapshot", tab.Errors[0])
	}
	var errRows, okRows int
	for _, row := range tab.Rows {
		if row[1] == errCell {
			errRows++
		} else {
			okRows++
		}
	}
	if errRows != 1 || okRows != 1 {
		t.Errorf("rows = %v: want one ERR row and one surviving row", tab.Rows)
	}
	if !strings.Contains(tab.String(), "errors (1 cells failed") {
		t.Errorf("rendered table lacks the error summary:\n%s", tab.String())
	}
}

// TestRunMatchesRunSupervisedOnSuccess: supervision must be invisible when
// nothing goes wrong.
func TestRunMatchesRunSupervisedOnSuccess(t *testing.T) {
	rc := DefaultRunConfig(TechVR)
	rc.MaxBudget = 20_000
	r1, err := Run(workloads.MicroStream(2048), rc)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := RunSupervised(workloads.MicroStream(2048), rc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r1, r2) {
		t.Errorf("Run and RunSupervised disagree:\n%+v\n%+v", r1, r2)
	}
}
