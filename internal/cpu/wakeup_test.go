package cpu

import (
	"errors"
	"testing"

	"vrsim/internal/isa"
	"vrsim/internal/mem"
)

// chainProgram is r1 = 0 followed by n dependent increments of r1.
func chainProgram(n int) *isa.Program {
	b := isa.NewBuilder("chain")
	b.Li(1, 0)
	for i := 0; i < n; i++ {
		b.AddI(1, 1, 1)
	}
	b.Halt()
	return b.MustBuild()
}

// maxIssuePerCycle steps c to its Halt and returns the most instructions
// any one cycle issued.
func maxIssuePerCycle(t *testing.T, c *Core) int {
	t.Helper()
	most := 0
	for i := 0; !c.Halted(); i++ {
		if i > 100_000 {
			t.Fatal("program did not halt")
		}
		c.Step()
		most = max(most, c.issuedThisCycle)
	}
	return most
}

// TestZeroLatencyChainIssuesInOnePass: with a zero-cycle ALU a result is
// available in the cycle its producer issues, so a dependent chain issues
// back to back within one select pass, limited only by the ALU count —
// and with a one-cycle ALU, one link per cycle.
func TestZeroLatencyChainIssuesInOnePass(t *testing.T) {
	for _, tc := range []struct {
		lat  uint64
		want int
	}{{0, DefaultConfig().FUCount[isa.FUIntALU]}, {1, 1}} {
		cfg := DefaultConfig()
		cfg.FULatency[isa.FUIntALU] = tc.lat
		if err := cfg.Validate(); err != nil {
			t.Fatal(err)
		}
		data := mem.NewBacking()
		h := mem.MustHierarchy(mem.DefaultConfig())
		h.Data = data
		c := New(cfg, chainProgram(64), data, h)
		if got := maxIssuePerCycle(t, c); got != tc.want {
			t.Errorf("ALU latency %d: at most %d chain links issued per cycle, want %d", tc.lat, got, tc.want)
		}
		if r := c.ArchRegs()[1]; r != 64 {
			t.Errorf("ALU latency %d: r1 = %d, want 64", tc.lat, r)
		}
	}
}

// TestFULatencyBounded: latencies are validated so issue cycle + latency
// cannot wrap into the past; zero stays legal.
func TestFULatencyBounded(t *testing.T) {
	cfg := DefaultConfig()
	cfg.FULatency[isa.FUIntDiv] = 0
	if err := cfg.Validate(); err != nil {
		t.Errorf("zero latency rejected: %v", err)
	}
	cfg.FULatency[isa.FUIntDiv] = maxLatency
	if err := cfg.Validate(); err != nil {
		t.Errorf("latency at the guard rail rejected: %v", err)
	}
	cfg.FULatency[isa.FUIntDiv] = maxLatency + 1
	if err := cfg.Validate(); !errors.Is(err, ErrBadConfig) {
		t.Errorf("latency over the guard rail accepted (err=%v)", err)
	}
}

// TestSelectWorkPerIssue: a load that misses to memory feeds a long
// dependent chain, so the window fills with entries that cannot issue
// for hundreds of cycles. Select examines only entries whose operands are
// available, so its work stays near one entry per issued instruction
// however long the stall.
func TestSelectWorkPerIssue(t *testing.T) {
	const chain = 200
	b := isa.NewBuilder("load-chain")
	b.Li(2, 0x40000)
	b.Li(3, 0)
	b.Ld(1, 2, 3, 3, 0)
	for i := 0; i < chain; i++ {
		b.AddI(1, 1, 1)
	}
	b.Halt()
	c, data := newCore(b.MustBuild())
	data.Store(0x40000, 7)
	deepest := 0
	for i := 0; !c.Halted(); i++ {
		if i > 100_000 {
			t.Fatal("program did not halt")
		}
		c.Step()
		deepest = max(deepest, c.iqLen)
	}
	if deepest < 64 {
		t.Fatalf("window peaked at %d waiting entries; the test needs >= 64", deepest)
	}
	if r := c.ArchRegs()[1]; r != 7+chain {
		t.Fatalf("r1 = %d, want %d", r, 7+chain)
	}
	var issued uint64
	for _, n := range c.Stats.FUIssued {
		issued += n
	}
	if per := float64(c.selectExamined) / float64(issued); per > 2 {
		t.Errorf("select examined %d entries for %d issues (%.1f per issue), want <= 2",
			c.selectExamined, issued, per)
	}
	if c.Stats.CommitStall[StallLoad] < 100 {
		t.Errorf("only %d load-stall cycles: the load did not miss", c.Stats.CommitStall[StallLoad])
	}
}

// TestFarWakeups: a latency beyond the wheel's span parks dependents on
// the far list; they must still wake on time, and the run must match a
// run whose wakes all fit on the wheel in everything but the latency.
func TestFarWakeups(t *testing.T) {
	run := func(lat uint64) *Core {
		cfg := DefaultConfig()
		cfg.FULatency[isa.FUIntDiv] = lat
		b := isa.NewBuilder("far")
		b.Li(1, 100)
		b.Li(2, 7)
		b.Div(3, 1, 2)
		for i := 0; i < 8; i++ {
			b.AddI(3, 3, 1)
			b.Add(4, 3, 1)
		}
		b.Halt()
		data := mem.NewBacking()
		h := mem.MustHierarchy(mem.DefaultConfig())
		h.Data = data
		c := New(cfg, b.MustBuild(), data, h)
		if err := c.RunChecked(0, 16, c.CheckInvariants); err != nil {
			t.Fatalf("latency %d: %v", lat, err)
		}
		return c
	}
	near, far := run(10), run(3*wheelSize+10)
	if near.ArchRegs() != far.ArchRegs() {
		t.Fatalf("register files differ: %v vs %v", near.ArchRegs(), far.ArchRegs())
	}
	if d := far.Stats.Cycles - near.Stats.Cycles; d != 3*wheelSize {
		t.Errorf("far-latency run took %d more cycles, want exactly %d", d, 3*wheelSize)
	}
}

// TestFastForwardWithWaitingEntries: a load miss at the head with a full
// issue queue behind it — entries pending on the load, nothing ready —
// is an idle window. Run fast-forwards it, and ends in exactly the state
// cycle-by-cycle stepping reaches. The stalls differ in what else waits
// behind the missing load: nothing; a divide chain outlasting the miss,
// whose links wake mid-stall (skipping must stop at each wake); a full
// ROB whose youngest entries are divides queued for the single divider
// (ready entries: no skipping until they have issued); a store of the loaded value and a load of the same word,
// which stays ready but refused until the value arrives.
func TestFastForwardWithWaitingEntries(t *testing.T) {
	prog := func() *isa.Program {
		b := isa.NewBuilder("ff")
		b.Li(2, 0x40000)
		b.Li(3, 0)
		b.Li(4, 3)
		for i := 0; i < 4; i++ {
			b.Ld(1, 2, 3, 3, 0)
			switch i {
			case 1:
				b.Div(9, 2, 4)
				for j := 0; j < 15; j++ {
					b.Div(9, 9, 4)
				}
			case 2:
				for j := 0; j < 250; j++ {
					b.AddI(7, 2, 1)
				}
				for j := 0; j < 60; j++ {
					b.Div(isa.Reg(5+j%4), 2, 4)
				}
				b.Add(1, 1, 8) // the chain below waits for the last divide
			case 3:
				b.St(1, 2, 3, 3, 8)
				b.Ld(6, 2, 3, 3, 8)
			}
			for j := 0; j < 150; j++ {
				b.AddI(1, 1, 1)
			}
			b.AddI(3, 3, 512)
		}
		b.Halt()
		return b.MustBuild()
	}()
	run := func(stepped bool) *Core {
		c, data := newCore(prog)
		for i := uint64(0); i < 4; i++ {
			data.Store(0x40000+i*4096, i)
		}
		if !stepped {
			if err := c.Run(0); err != nil {
				t.Fatal(err)
			}
			return c
		}
		for i := 0; !c.Halted(); i++ {
			if i > 100_000 {
				t.Fatal("program did not halt")
			}
			c.Step()
		}
		return c
	}
	ff, stepped := run(false), run(true)
	if ff.idleSkipped == 0 {
		t.Fatal("no cycle was fast-forwarded; the test lost its teeth")
	}
	if stepped.idleSkipped != 0 {
		t.Fatal("Step fast-forwarded")
	}
	if ff.Stats != stepped.Stats || ff.ArchRegs() != stepped.ArchRegs() || ff.cycle != stepped.cycle {
		t.Errorf("fast-forwarded run differs from stepping:\nff:      %+v\nstepped: %+v", ff.Stats, stepped.Stats)
	}
	t.Logf("fast-forwarded %d of %d cycles", ff.idleSkipped, ff.Stats.Cycles)
}
