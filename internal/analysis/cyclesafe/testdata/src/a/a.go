// Package a is cyclesafe golden testdata.
package a

// Stats mimics the simulator's uint64 counter blocks.
type Stats struct {
	Cycles  uint64
	Retired uint64
}

type Core struct {
	cycle     uint64
	statsBase uint64
	Stats     Stats
}

func conversions(c *Core) {
	_ = int(c.Stats.Cycles)     // want `conversion of counter c.Stats.Cycles to signed int`
	_ = int64(c.cycle)          // want `conversion of counter c.cycle to signed int64`
	_ = uint32(c.cycle)         // want `narrowing conversion of counter c.cycle to uint32`
	_ = int(c.Stats.Retired)    // want `conversion of counter c.Stats.Retired to signed int`
	_ = float64(c.Stats.Cycles) // ratio reporting: allowed
	_ = uint64(c.cycle)         // width-preserving unsigned: allowed
	_ = int(c.statsBase)        // not a counter by name or owner: allowed
}

func unguarded(done, cycle uint64) uint64 {
	return done - cycle // want `unsigned counter subtraction done - cycle`
}

func guarded(c *Core, done, cycle uint64) uint64 {
	var d uint64
	if done >= cycle {
		d = done - cycle // enclosing if guards: allowed
	}
	if cycle > done {
		return d
	}
	d += done - cycle            // preceding early-exit guards: allowed
	lat := c.cycle - c.statsBase // want `unsigned counter subtraction c.cycle - c.statsBase`
	return d + lat
}

func elseBranch(done, cycle uint64) uint64 {
	var d uint64
	if cycle > done {
		d = 0
	} else {
		d = done - cycle // else of the inverse comparison: allowed
	}
	return d
}

func loopCond(busy, cycle uint64) uint64 {
	var total uint64
	for busy > cycle {
		total += busy - cycle // loop condition guards: allowed
		busy--
	}
	return total
}

func annotated(c *Core) uint64 {
	//vrlint:allow cyclesafe -- statsBase is a snapshot of cycle, always <=
	return c.cycle - c.statsBase
}

func conjunction(done, cycle uint64, ok bool) uint64 {
	if ok && done >= cycle {
		return done - cycle // guard inside &&: allowed
	}
	return 0
}

func shortCircuit(cycle, last, limit uint64) bool {
	// The watchdog pattern: the subtraction sits in the condition itself,
	// evaluated only after the ordering conjunct holds.
	return cycle >= last && cycle-last >= limit
}

func shortCircuitBad(cycle, last, limit uint64) bool {
	return limit > 0 && cycle-last >= limit // want `unsigned counter subtraction cycle - last`
}
