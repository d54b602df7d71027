package harness

import (
	"testing"

	"vrsim/internal/workloads"
)

// TestSteadyStateStepAllocFree: once warm, a simulated cycle allocates
// nothing — under every technique, with and without the oracle and
// invariant checker. It guards the fixed-capacity structures of the cycle
// core (the wakeup lists and timer wheel among them), the hierarchy and
// the engines.
func TestSteadyStateStepAllocFree(t *testing.T) {
	w := workloads.HashJoin(8, 12, 20_000)
	for _, check := range []bool{false, true} {
		for _, tech := range checkedTechniques() {
			rc := DefaultRunConfig(tech)
			rc.Check = check
			in, err := newInstance(w, rc)
			if err != nil {
				t.Fatal(err)
			}
			if err := in.c.RunChecked(w.SkipInstrs+20_000, rc.CPU.CheckInterval, in.runCheck()); err != nil {
				t.Fatalf("%s check=%v warm-up: %v", tech, check, err)
			}
			allocs := testing.AllocsPerRun(5, func() {
				for i := 0; i < 2000 && !in.c.Halted(); i++ {
					in.c.Step()
				}
			})
			if in.c.Halted() {
				t.Fatalf("%s check=%v: program halted inside the measured window", tech, check)
			}
			if allocs != 0 {
				t.Errorf("%s check=%v: %.1f allocations per 2000 steady-state cycles, want 0", tech, check, allocs)
			}
			if err := in.finalCheck(); err != nil {
				t.Errorf("%s check=%v: %v", tech, check, err)
			}
		}
	}
}
