package mem

import (
	"errors"
	"fmt"
	"testing"
)

func TestFaultConfigValidate(t *testing.T) {
	if err := (FaultConfig{LatencySpikeProb: 1.5}).Validate(); !errors.Is(err, ErrBadConfig) {
		t.Errorf("prob > 1: err = %v", err)
	}
	if err := (FaultConfig{MSHRStarveProb: -0.1}).Validate(); !errors.Is(err, ErrBadConfig) {
		t.Errorf("prob < 0: err = %v", err)
	}
	if err := (FaultConfig{LatencySpikeProb: 0.5}).Validate(); !errors.Is(err, ErrBadConfig) {
		t.Errorf("spike without cycles: err = %v", err)
	}
	if err := (FaultConfig{LatencySpikeProb: 0.5, LatencySpikeCycles: 100}).Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	if (FaultConfig{}).Enabled() {
		t.Error("zero config reports enabled")
	}
}

func TestFaultInjectorDropsAllPrefetches(t *testing.T) {
	h := MustHierarchy(DefaultConfig())
	h.Faults = NewFaultInjector(FaultConfig{Seed: 1, DropPrefetchProb: 1})
	r := h.Prefetch(0, 0x20000, SrcStride)
	if !r.Dropped {
		t.Fatal("prefetch survived a drop probability of 1")
	}
	if h.Faults.Stats.PrefetchDrops != 1 || h.Stats.PrefetchDropped != 1 {
		t.Errorf("drop counters: injector=%d hierarchy=%d",
			h.Faults.Stats.PrefetchDrops, h.Stats.PrefetchDropped)
	}
}

func TestFaultInjectorHangAfter(t *testing.T) {
	h := MustHierarchy(DefaultConfig())
	h.Faults = NewFaultInjector(FaultConfig{Seed: 1, HangAfter: 2})
	r1 := h.Access(0, 1, 0x10000, false, ClassDemand, SrcDemand)
	if r1.Done >= hangLatency {
		t.Fatalf("first miss hung: done=%d", r1.Done)
	}
	r2 := h.Access(r1.Done, 1, 0x90000, false, ClassDemand, SrcDemand)
	if r2.Done < hangLatency {
		t.Fatalf("second miss should hang: done=%d", r2.Done)
	}
	if h.Faults.Stats.Hangs != 1 {
		t.Errorf("Hangs = %d", h.Faults.Stats.Hangs)
	}
}

func TestFaultInjectorPanicAfter(t *testing.T) {
	h := MustHierarchy(DefaultConfig())
	h.Faults = NewFaultInjector(FaultConfig{Seed: 1, PanicAfter: 2})
	h.Access(0, 1, 0x10000, false, ClassDemand, SrcDemand)
	defer func() {
		if recover() == nil {
			t.Error("second demand access should panic")
		}
	}()
	h.Access(300, 1, 0x10000, false, ClassDemand, SrcDemand)
}

func TestFaultInjectorStarveDelaysMiss(t *testing.T) {
	clean := MustHierarchy(DefaultConfig())
	r0 := clean.Access(0, 1, 0x10000, false, ClassDemand, SrcDemand)

	h := MustHierarchy(DefaultConfig())
	h.Faults = NewFaultInjector(FaultConfig{Seed: 1, MSHRStarveProb: 1, MSHRStarveCycles: 500})
	r := h.Access(0, 1, 0x10000, false, ClassDemand, SrcDemand)
	if r.Done != r0.Done+500 {
		t.Errorf("starved miss done = %d, want %d", r.Done, r0.Done+500)
	}
}

// TestFaultInjectorDeterministic: two injectors with the same seed must
// deliver the same fault sequence.
func TestFaultInjectorDeterministic(t *testing.T) {
	cfg := FaultConfig{Seed: 99, LatencySpikeProb: 0.3, LatencySpikeCycles: 100, DropPrefetchProb: 0.4}
	a, b := NewFaultInjector(cfg), NewFaultInjector(cfg)
	for i := 0; i < 1000; i++ {
		if a.dramExtra() != b.dramExtra() {
			t.Fatalf("dramExtra diverged at draw %d", i)
		}
		if a.dropPrefetch() != b.dropPrefetch() {
			t.Fatalf("dropPrefetch diverged at draw %d", i)
		}
	}
	if a.Stats != b.Stats {
		t.Errorf("stats diverged: %+v vs %+v", a.Stats, b.Stats)
	}
	if a.Stats.LatencySpikes == 0 || a.Stats.PrefetchDrops == 0 {
		t.Error("no faults drawn; the check is vacuous")
	}
}

// TestForCellDeterministic: the per-cell derivation is a pure function of
// (seed, workload, tech, index) — the same coordinates always produce the
// same derived configuration, and only the seed changes.
func TestForCellDeterministic(t *testing.T) {
	base := FaultConfig{
		Seed:               7,
		LatencySpikeProb:   0.05,
		LatencySpikeCycles: 300,
		DropPrefetchProb:   0.1,
		MSHRStarveProb:     0.02,
		MSHRStarveCycles:   100,
		PanicAfter:         5000,
		HangAfter:          9000,
	}
	a := base.ForCellAttempt("camel", "vr", 3, 0)
	b := base.ForCellAttempt("camel", "vr", 3, 0)
	if a != b {
		t.Errorf("same coordinates, different configs:\n%+v\n%+v", a, b)
	}
	// Everything but the seed is preserved: rates, cycles and counts are
	// the campaign's, only the PRNG stream is re-keyed.
	restored := a
	restored.Seed = base.Seed
	if restored != base {
		t.Errorf("ForCellAttempt changed more than the seed:\n base %+v\n cell %+v", base, a)
	}
}

// TestForCellSeedsDistinct: every coordinate — campaign seed, workload,
// technique, and cell index — must steer the derived seed, so cells never
// replay each other's fault sequences by accident.
func TestForCellSeedsDistinct(t *testing.T) {
	base := FaultConfig{Seed: 1, LatencySpikeProb: 0.1, LatencySpikeCycles: 10}
	seeds := map[int64]string{}
	add := func(label string, c FaultConfig) {
		if prev, dup := seeds[c.Seed]; dup {
			t.Errorf("seed collision between %s and %s", label, prev)
		}
		seeds[c.Seed] = label
	}
	for idx := 0; idx < 8; idx++ {
		add(fmt.Sprintf("camel/vr#%d", idx), base.ForCellAttempt("camel", "vr", idx, 0))
	}
	add("camel/ooo#0", base.ForCellAttempt("camel", "ooo", 0, 0))
	add("hj2/vr#0", base.ForCellAttempt("hj2", "vr", 0, 0))
	base2 := base
	base2.Seed = 2
	add("seed2 camel/vr#0", base2.ForCellAttempt("camel", "vr", 0, 0))
}
