package mem

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
)

// FaultConfig parameterizes deterministic fault injection in the memory
// system: seeded latency spikes, dropped hardware prefetches, forced MSHR
// exhaustion, and targeted hangs or panics. The zero value disables
// injection. All randomness comes from one PRNG seeded with Seed and
// consumed in simulation order, so a given (config, workload, run
// configuration) triple always produces the same faults — chaos tests
// stay reproducible.
type FaultConfig struct {
	// Seed initializes the injector's PRNG.
	Seed int64

	// LatencySpikeProb is the per-DRAM-access probability of adding
	// LatencySpikeCycles to the fill latency (a row-buffer storm, a
	// refresh collision, a congested interconnect).
	LatencySpikeProb   float64
	LatencySpikeCycles uint64

	// DropPrefetchProb is the per-hardware-prefetch probability of
	// silently discarding the prefetch before it allocates an MSHR.
	DropPrefetchProb float64

	// MSHRStarveProb is the per-primary-miss probability of treating the
	// MSHR file as exhausted, delaying the miss by MSHRStarveCycles —
	// forced exhaustion that stresses the runahead engines' full-file
	// behaviour.
	MSHRStarveProb   float64
	MSHRStarveCycles uint64

	// PanicAfter, when nonzero, panics on the Nth demand access the
	// injector observes — a crash deep inside the memory system, for
	// chaos-testing panic isolation in the supervision layer.
	PanicAfter uint64

	// HangAfter, when nonzero, gives the Nth demand L1 miss an
	// effectively unbounded fill latency, simulating a hung memory
	// system; the core's forward-progress watchdog is expected to catch
	// it.
	HangAfter uint64
}

// Enabled reports whether any fault class is configured.
func (c FaultConfig) Enabled() bool {
	return c.LatencySpikeProb > 0 || c.DropPrefetchProb > 0 || c.MSHRStarveProb > 0 ||
		c.PanicAfter > 0 || c.HangAfter > 0
}

// Validate checks the fault configuration, wrapping ErrBadConfig.
func (c FaultConfig) Validate() error {
	for _, p := range []struct {
		name string
		v    float64
	}{
		{"LatencySpikeProb", c.LatencySpikeProb},
		{"DropPrefetchProb", c.DropPrefetchProb},
		{"MSHRStarveProb", c.MSHRStarveProb},
	} {
		// NaN fails both comparisons below, so reject it explicitly: a
		// NaN probability is never a usable configuration.
		if math.IsNaN(p.v) || p.v < 0 || p.v > 1 {
			return fmt.Errorf("%w: fault %s %v outside [0,1]", ErrBadConfig, p.name, p.v)
		}
	}
	if c.LatencySpikeProb > 0 && c.LatencySpikeCycles == 0 {
		return fmt.Errorf("%w: LatencySpikeProb set with zero LatencySpikeCycles", ErrBadConfig)
	}
	if c.MSHRStarveProb > 0 && c.MSHRStarveCycles == 0 {
		return fmt.Errorf("%w: MSHRStarveProb set with zero MSHRStarveCycles", ErrBadConfig)
	}
	return nil
}

// ForCellAttempt derives the cell-scoped variant of c for one attempt of
// one sweep cell: the same fault classes, rates and counts, but with Seed
// replaced by a value mixed deterministically from (c.Seed, workload,
// tech, index) and, for retries, the attempt number. Every cell of a
// sweep therefore owns an independent fault sequence that depends only on
// the cell's identity — never on the order cells execute in — so fault
// campaigns stay bit-reproducible under concurrency. Attempt 0 keeps the
// seed derivation that predates retries, so campaigns without retries
// keep their historical fault sequences; a re-run cell gets a fresh but
// still fully deterministic sequence, giving a probabilistic fault that
// sank attempt 0 an independent chance on attempt 1. Count-based faults
// (PanicAfter, HangAfter) count per cell and fire regardless of seed.
func (c FaultConfig) ForCellAttempt(workload, tech string, index, attempt int) FaultConfig {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%s|%s|%d", c.Seed, workload, tech, index)
	if attempt > 0 {
		fmt.Fprintf(h, "|attempt|%d", attempt)
	}
	c.Seed = int64(splitmix64(h.Sum64()))
	return c
}

// splitmix64 is the SplitMix64 finalizer: a bijective mixer that spreads
// the structured FNV input over the full seed space.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// FaultStats counts the faults an injector actually delivered.
type FaultStats struct {
	LatencySpikes uint64
	PrefetchDrops uint64
	MSHRStarves   uint64
	Hangs         uint64
	DemandSeen    uint64 // demand accesses observed (PanicAfter/HangAfter domain)
}

// hangLatency is far beyond any configured watchdog or cycle limit while
// leaving headroom before uint64 overflow.
const hangLatency = 1 << 40

// A FaultInjector delivers the faults a FaultConfig describes to one run,
// deterministically for that run.
type FaultInjector struct {
	cfg FaultConfig
	rng *rand.Rand

	demandMisses uint64

	Stats FaultStats
}

// NewFaultInjector builds an injector for the configuration; it panics on
// an invalid config (call Validate first for a recoverable error).
//
//vrlint:allow panicfree -- documented constructor contract: Validate() is the typed-error path
func NewFaultInjector(cfg FaultConfig) *FaultInjector {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &FaultInjector{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
}

// Config returns the injector's configuration.
func (fi *FaultInjector) Config() FaultConfig { return fi.cfg }

// onDemandAccess observes one demand access, firing PanicAfter when its
// count comes up.
//
//vrlint:allow panicfree -- injected fault: this panic IS the chaos-test payload RunSupervised must catch
func (fi *FaultInjector) onDemandAccess() {
	fi.Stats.DemandSeen++
	if fi.cfg.PanicAfter != 0 && fi.Stats.DemandSeen == fi.cfg.PanicAfter {
		panic(fmt.Sprintf("mem: injected fault: panic on demand access %d", fi.Stats.DemandSeen))
	}
}

// dramExtra returns additional DRAM fill latency for one access: a seeded
// latency spike.
func (fi *FaultInjector) dramExtra() (extra uint64) {
	if fi.cfg.LatencySpikeProb > 0 && fi.rng.Float64() < fi.cfg.LatencySpikeProb {
		fi.Stats.LatencySpikes++
		extra += fi.cfg.LatencySpikeCycles
	}
	return extra
}

// missExtra returns additional latency for one demand L1 miss (any serving
// level): the HangAfter hang.
func (fi *FaultInjector) missExtra(class Class) (extra uint64) {
	if class != ClassDemand || fi.cfg.HangAfter == 0 {
		return 0
	}
	fi.demandMisses++
	if fi.demandMisses == fi.cfg.HangAfter {
		fi.Stats.Hangs++
		return hangLatency
	}
	return 0
}

// dropPrefetch reports whether this hardware prefetch should be discarded.
func (fi *FaultInjector) dropPrefetch() bool {
	if fi.cfg.DropPrefetchProb > 0 && fi.rng.Float64() < fi.cfg.DropPrefetchProb {
		fi.Stats.PrefetchDrops++
		return true
	}
	return false
}

// starveCycles returns the extra wait a primary miss pays when forced MSHR
// exhaustion fires.
func (fi *FaultInjector) starveCycles() uint64 {
	if fi.cfg.MSHRStarveProb > 0 && fi.rng.Float64() < fi.cfg.MSHRStarveProb {
		fi.Stats.MSHRStarves++
		return fi.cfg.MSHRStarveCycles
	}
	return 0
}
