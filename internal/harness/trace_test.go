package harness

import (
	"reflect"
	"strings"
	"testing"

	"vrsim/internal/workloads"
)

// TestTraceAllTechniques: Trace assembles every technique through the
// same path as Run, commits advance across the traced window, the
// snapshots name the technique's engine, and the sampling rate cannot
// perturb the run — sampling every cycle and every 100th cycle end in the
// same machine state. kangaroo keeps the MSHR file saturated, where a
// probe that so much as touched an MSHR entry would shift the timing.
func TestTraceAllTechniques(t *testing.T) {
	w, err := workloads.ByName("kangaroo")
	if err != nil {
		t.Fatal(err)
	}
	const cycles = 500
	for _, tc := range []struct {
		tech   Technique
		engine string
	}{
		{TechOoO, "none"},
		{TechPRE, "pre:"},
		{TechIMP, "none"},
		{TechVR, "vr:"},
		{TechOracle, "none"},
		{TechRA, "ra:"},
	} {
		t.Run(string(tc.tech), func(t *testing.T) {
			trace := func(every uint64) (TraceSummary, int) {
				samples := 0
				sum, err := Trace(w, DefaultRunConfig(tc.tech), 5000, cycles, every, func(start, now *Snapshot) {
					samples++
					if !strings.HasPrefix(now.EngineMode, tc.engine) {
						t.Errorf("cycle %d: EngineMode = %q, want prefix %q", now.Cycle, now.EngineMode, tc.engine)
					}
				})
				if err != nil {
					t.Fatal(err)
				}
				return sum, samples
			}
			dense, n1 := trace(1)
			sparse, n100 := trace(100)
			if n1 != cycles || n100 != cycles/100 {
				t.Errorf("samples = %d at every=1 and %d at every=100, want %d and %d", n1, n100, cycles, cycles/100)
			}
			if got := dense.End.Cycle - dense.Start.Cycle; got != cycles {
				t.Errorf("traced %d cycles, want %d", got, cycles)
			}
			if dense.End.Committed <= dense.Start.Committed {
				t.Errorf("no commits across the window: %d -> %d", dense.Start.Committed, dense.End.Committed)
			}
			if !reflect.DeepEqual(dense.End, sparse.End) {
				t.Errorf("sampling rate perturbed the run:\n every=1:   %v\n every=100: %v", dense.End, sparse.End)
			}
			if !reflect.DeepEqual(dense.Stats, sparse.Stats) || !reflect.DeepEqual(dense.VR, sparse.VR) {
				t.Error("sampling rate perturbed the run's counters")
			}
		})
	}
}
