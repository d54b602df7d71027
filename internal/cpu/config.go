// Package cpu implements the cycle-driven out-of-order core model: a
// 5-wide fetch/dispatch/issue/commit pipeline with a reorder buffer, issue
// queue, load/store queues, per-class functional units and a front-end
// pipeline whose depth sets the branch-misprediction penalty — the
// synthetic equivalent of the paper's Sniper 6.0 core configured per its
// Table 1.
//
// The model is execution-driven and value-correct: instructions compute
// real results at issue using their producers' values, speculative state
// lives in the reorder buffer, and architectural registers and memory are
// updated only at commit, so wrong-path work is squashed without side
// effects while its cache traffic (realistically) remains.
package cpu

import (
	"errors"
	"fmt"

	"vrsim/internal/branch"
	"vrsim/internal/isa"
)

// Config describes the core. DefaultConfig mirrors the paper's Table 1.
type Config struct {
	// Width is the fetch/dispatch/issue/commit width.
	Width int
	// ROBSize is the reorder buffer capacity.
	ROBSize int
	// IQSize is the issue queue (scheduler) capacity.
	IQSize int
	// LQSize and SQSize bound in-flight loads and stores.
	LQSize, SQSize int
	// FrontendDepth is the number of front-end pipeline stages; it is the
	// fetch-to-dispatch delay and thus the misprediction redirect penalty.
	FrontendDepth int
	// FetchBufSize bounds the decoded-instruction buffer between fetch
	// and dispatch.
	FetchBufSize int

	// FUCount is the number of functional units per class.
	FUCount [isa.NumFUClasses]int
	// FULatency is the execution latency per class in cycles. Memory
	// latency comes from the hierarchy, so FUMem holds only the
	// address-generation cost.
	FULatency [isa.NumFUClasses]uint64

	// Predictor selects the branch predictor declaratively (kind plus
	// geometry). Declarative selection keeps the whole configuration
	// serializable, which the process-isolated sweep mode depends on: a
	// worker process receives its run configuration as JSON.
	Predictor branch.Spec
	// NewPredictor, when non-nil, overrides Predictor with an arbitrary
	// constructor — a test seam for custom predictors. It cannot cross a
	// process boundary: configurations carrying it are rejected by the
	// process-isolated execution mode.
	NewPredictor func() branch.Predictor `json:"-"`

	// MaxCycles aborts a run that exceeds this many cycles (0 = no limit);
	// a guard against deadlocked configurations.
	MaxCycles uint64

	// WatchdogCycles is the forward-progress watchdog: a run in which no
	// instruction commits for this many consecutive cycles aborts with
	// ErrNoProgress (0 = disabled). Unlike the blunt MaxCycles cap it
	// catches hangs in proportion to their symptom — a stuck commit stage
	// — long before the cycle budget drains, and carries a typed error
	// the supervision layer turns into a machine-state snapshot.
	WatchdogCycles uint64

	// CheckInterval is the RunChecked hook cadence in cycles: how often
	// the periodic interrupt check (deadlines, cancellation, the runtime
	// invariant checker) is consulted. Frequent enough that deadlines
	// land within milliseconds of wall clock and invariant violations
	// surface near their cause, rare enough that the cycle loop's cost
	// stays one counter and one predictable branch. Must be >= 1.
	CheckInterval uint64

	// Faults configures deterministic core-level fault injection in the
	// commit stage (the checker self-test seam). The zero value disables
	// it and costs the retire path one predictable branch.
	Faults FaultConfig
}

// DefaultConfig returns the Table 1 baseline: 4 GHz 5-wide out-of-order,
// 350-entry ROB, 128-entry issue queue, 128/72 load/store queues, 15
// front-end stages, TAGE-class branch prediction, and the listed unit mix
// (4 int add, 1 int mul, 1 int div, 1 fp add, 1 fp mul, 1 fp div, 2 memory
// ports, 2 branch units).
func DefaultConfig() Config {
	var cfg Config
	cfg.Width = 5
	cfg.ROBSize = 350
	cfg.IQSize = 128
	cfg.LQSize = 128
	cfg.SQSize = 72
	cfg.FrontendDepth = 15
	cfg.FetchBufSize = 32

	cfg.FUCount[isa.FUIntALU] = 4
	cfg.FUCount[isa.FUIntMul] = 1
	cfg.FUCount[isa.FUIntDiv] = 1
	cfg.FUCount[isa.FUFPAdd] = 1
	cfg.FUCount[isa.FUFPMul] = 1
	cfg.FUCount[isa.FUFPDiv] = 1
	cfg.FUCount[isa.FUMem] = 2
	cfg.FUCount[isa.FUBranch] = 2

	cfg.FULatency[isa.FUIntALU] = 1
	cfg.FULatency[isa.FUIntMul] = 3
	cfg.FULatency[isa.FUIntDiv] = 18
	cfg.FULatency[isa.FUFPAdd] = 3
	cfg.FULatency[isa.FUFPMul] = 5
	cfg.FULatency[isa.FUFPDiv] = 6
	cfg.FULatency[isa.FUMem] = 1
	cfg.FULatency[isa.FUBranch] = 1

	cfg.Predictor = branch.DefaultSpec()
	cfg.MaxCycles = 2_000_000_000
	cfg.WatchdogCycles = 1_000_000
	cfg.CheckInterval = DefaultCheckInterval
	return cfg
}

// DefaultCheckInterval is the default RunChecked hook cadence: the value
// the harness historically hard-coded for its deadline/cancellation check.
const DefaultCheckInterval = 4096

// ErrBadConfig is wrapped by every core-configuration validation failure.
var ErrBadConfig = errors.New("cpu: invalid configuration")

// Guard rails for fuzzed and externally supplied configurations: within
// these bounds construction can never exhaust memory or deadlock the
// issue stage.
const (
	maxWidth         = 64
	maxROBSize       = 1 << 20
	maxQueueSize     = 1 << 20
	maxFrontDepth    = 1 << 10
	maxFUCount       = 1 << 10
	maxLatency       = 1 << 20
	maxCheckInterval = 1 << 30
)

// Validate checks the core configuration, returning an error wrapping
// ErrBadConfig for the first problem found. A config that validates always
// constructs and cannot deadlock on structural grounds (every functional
// unit class an instruction might need has at least one unit).
func (c Config) Validate() error {
	bound := func(name string, v, lo, hi int) error {
		if v < lo || v > hi {
			return fmt.Errorf("%w: %s %d out of range [%d,%d]", ErrBadConfig, name, v, lo, hi)
		}
		return nil
	}
	if err := bound("Width", c.Width, 1, maxWidth); err != nil {
		return err
	}
	if err := bound("ROBSize", c.ROBSize, 1, maxROBSize); err != nil {
		return err
	}
	if err := bound("IQSize", c.IQSize, 1, maxQueueSize); err != nil {
		return err
	}
	if err := bound("LQSize", c.LQSize, 1, maxQueueSize); err != nil {
		return err
	}
	if err := bound("SQSize", c.SQSize, 1, maxQueueSize); err != nil {
		return err
	}
	if err := bound("FrontendDepth", c.FrontendDepth, 1, maxFrontDepth); err != nil {
		return err
	}
	if err := bound("FetchBufSize", c.FetchBufSize, 1, maxQueueSize); err != nil {
		return err
	}
	// FUNone needs no units (Nop/Halt execute without one); every real
	// class must have at least one unit or issue deadlocks.
	for fu := isa.FUNone + 1; fu < isa.NumFUClasses; fu++ {
		if err := bound(fmt.Sprintf("FUCount[%d]", fu), c.FUCount[fu], 1, maxFUCount); err != nil {
			return err
		}
	}
	// A result is ready at issue cycle + latency; an unbounded latency
	// could wrap that sum into the past. Zero is legal: the result is
	// ready in the issue cycle itself.
	for fu, lat := range c.FULatency {
		if lat > maxLatency {
			return fmt.Errorf("%w: FULatency[%d] %d out of range [0,%d]", ErrBadConfig, fu, lat, maxLatency)
		}
	}
	if c.NewPredictor == nil {
		if err := c.Predictor.Validate(); err != nil {
			return fmt.Errorf("%w: %v", ErrBadConfig, err)
		}
	}
	// A zero interval would silently disable every periodic check —
	// deadlines, cancellation, the invariant checker — so reject it.
	if c.CheckInterval < 1 || c.CheckInterval > maxCheckInterval {
		return fmt.Errorf("%w: CheckInterval %d out of range [%d,%d]",
			ErrBadConfig, c.CheckInterval, 1, maxCheckInterval)
	}
	return nil
}

// predictor constructs the configured branch predictor: the NewPredictor
// test seam when set, the declarative Spec otherwise.
func (c Config) predictor() branch.Predictor {
	if c.NewPredictor != nil {
		return c.NewPredictor()
	}
	return c.Predictor.New()
}

// WithROB returns a copy of the config with the ROB (and, in proportion,
// the issue and load/store queues) scaled to the given size — the knob the
// ROB-sensitivity experiments sweep.
func (c Config) WithROB(size int) Config {
	out := c
	out.ROBSize = size
	out.IQSize = max(16, size*128/350)
	out.LQSize = max(16, size*128/350)
	out.SQSize = max(8, size*72/350)
	return out
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
