package cpu

import (
	"fmt"
	"math/bits"

	"vrsim/internal/isa"
)

// CheckInvariants validates the core's structural invariants: reorder
// buffer geometry, scheduler-list liveness, load/store queue accounting
// and program-order sequencing. It is the white-box half of the runtime
// invariant checker (internal/oracle wraps it with memory-system and
// monotonicity checks) and is intended to run at the RunChecked cadence —
// it scans every in-flight instruction, so it is far too expensive for
// every cycle but negligible every few thousand.
//
// The checks are written against state as it stands *between* cycles
// (where RunChecked's hook fires); mid-cycle transients — e.g. issued
// entries lingering in the issue queue after a mid-issue squash — are
// legal there and deliberately not flagged.
func (c *Core) CheckInvariants() error {
	cfg := &c.cfg
	if c.head < 0 || c.head >= cfg.ROBSize {
		return fmt.Errorf("ROB head %d outside ring [0,%d)", c.head, cfg.ROBSize)
	}
	if c.count < 0 || c.count > cfg.ROBSize {
		return fmt.Errorf("ROB occupancy %d outside [0,%d]", c.count, cfg.ROBSize)
	}
	if c.iqLen < 0 || c.iqLen > cfg.IQSize {
		return fmt.Errorf("issue queue holds %d entries, capacity %d", c.iqLen, cfg.IQSize)
	}
	if c.fqLen < 0 || c.fqLen > cfg.FetchBufSize {
		return fmt.Errorf("front queue holds %d entries, capacity %d", c.fqLen, cfg.FetchBufSize)
	}
	if c.stLen < 0 || c.stLen > cfg.SQSize {
		return fmt.Errorf("store ring holds %d entries, capacity %d", c.stLen, cfg.SQSize)
	}
	if c.ldLen < 0 || c.ldLen > cfg.LQSize {
		return fmt.Errorf("issued-load set holds %d entries, capacity %d", c.ldLen, cfg.LQSize)
	}
	if c.lqCount < 0 || c.lqCount > cfg.LQSize {
		return fmt.Errorf("load queue count %d outside [0,%d]", c.lqCount, cfg.LQSize)
	}
	if c.sqCount < 0 || c.sqCount > cfg.SQSize {
		return fmt.Errorf("store queue count %d outside [0,%d]", c.sqCount, cfg.SQSize)
	}

	// Recount the window: the LQ/SQ counters must agree with the live ROB
	// contents, and sequence numbers must be strictly increasing in
	// program order.
	loads, stores := 0, 0
	var prevSeq uint64
	for i := 0; i < c.count; i++ {
		e := &c.rob[c.slot(i)]
		if i > 0 && e.seq <= prevSeq {
			return fmt.Errorf("ROB order broken: entry %d seq %d follows seq %d", i, e.seq, prevSeq)
		}
		prevSeq = e.seq
		if e.in.IsLoad() {
			loads++
		}
		if e.in.IsStore() {
			stores++
		}
	}
	if loads != c.lqCount {
		return fmt.Errorf("load queue count %d, but ROB holds %d loads", c.lqCount, loads)
	}
	if stores != c.sqCount {
		return fmt.Errorf("store queue count %d, but ROB holds %d stores", c.sqCount, stores)
	}

	if err := c.checkWakeup(); err != nil {
		return err
	}

	// Scheduler lists may only reference live window slots, and the typed
	// lists must reference instructions of their type.
	prevOrd := -1
	for i := 0; i < c.stLen; i++ {
		s := c.storeAt(i)
		ord := c.ordinal(s)
		if ord >= c.count {
			return fmt.Errorf("store ring references dead ROB slot %d", s)
		}
		if !c.rob[s].in.IsStore() {
			return fmt.Errorf("store ring slot %d holds a non-store (%s)", s, c.rob[s].in.Op)
		}
		// O(1) retire and squash both depend on the ring staying in
		// program order (oldest at the front).
		if ord <= prevOrd {
			return fmt.Errorf("store ring out of program order at index %d (slot %d)", i, s)
		}
		prevOrd = ord
	}
	for i, s := range c.ldIssued[:c.ldLen] {
		if c.ordinal(s) >= c.count {
			return fmt.Errorf("issued-load set references dead ROB slot %d", s)
		}
		e := &c.rob[s]
		if !e.in.IsLoad() || !e.issued {
			return fmt.Errorf("issued-load set slot %d holds op=%s issued=%v", s, e.in.Op, e.issued)
		}
		if c.ldPos[s] != i {
			return fmt.Errorf("issued-load position index stale: slot %d at index %d, ldPos says %d", s, i, c.ldPos[s])
		}
	}
	return nil
}

// checkWakeup validates the wakeup structures against the window: every
// unissued issue-queue entry (and every issued store still awaiting its
// value) waits in exactly one place — the ready set, the wheel, or pending
// on unissued producers whose dependent lists hold its source nodes — and
// no ready bit, wheel link or dependent link points at a dead slot.
func (c *Core) checkWakeup() error {
	for wi, word := range c.ready {
		for ; word != 0; word &= word - 1 {
			s := wi<<6 | bits.TrailingZeros64(word)
			if s >= c.cfg.ROBSize || c.ordinal(s) >= c.count {
				return fmt.Errorf("ready set references dead ROB slot %d", s)
			}
		}
	}
	onWheel := 0
	// walk validates one wheel list: a bucket's (bucket >= 0) or the far
	// list's (bucket < 0).
	walk := func(head int32, bucket int) error {
		what := func() string {
			if bucket < 0 {
				return "far list"
			}
			return fmt.Sprintf("wheel bucket %d", bucket)
		}
		for s, n := head, 0; s != noLink; s, n = c.rob[s].wnext, n+1 {
			if s < 0 || int(s) >= c.cfg.ROBSize || c.ordinal(int(s)) >= c.count {
				return fmt.Errorf("%s references dead ROB slot %d", what(), s)
			}
			e := &c.rob[s]
			switch {
			case n >= c.count:
				return fmt.Errorf("%s is cyclic", what())
			case bucket >= 0 && (e.wheel != onBucket || int(e.wake&(wheelSize-1)) != bucket):
				return fmt.Errorf("%s holds slot %d (wheel state %d, wake %d)", what(), s, e.wheel, e.wake)
			case bucket < 0 && e.wheel != onFar:
				return fmt.Errorf("%s holds slot %d in wheel state %d", what(), s, e.wheel)
			case e.wake <= c.wheelAt:
				return fmt.Errorf("%s holds slot %d with overdue wake %d", what(), s, e.wake)
			case bucket >= 0 && e.wake > c.wheelAt+wheelSize:
				return fmt.Errorf("%s holds slot %d with wake %d beyond the wheel's span", what(), s, e.wake)
			case bucket < 0 && e.wake < c.farMin:
				return fmt.Errorf("%s holds slot %d waking at %d, before farMin %d", what(), s, e.wake, c.farMin)
			}
			onWheel++
		}
		return nil
	}
	for b, head := range c.wheel {
		if (head != noLink) != (c.wheelMap[b>>6]&(1<<(b&63)) != 0) {
			return fmt.Errorf("wheel map disagrees with bucket %d", b)
		}
		if err := walk(head, b); err != nil {
			return err
		}
	}
	if err := walk(c.far, -1); err != nil {
		return err
	}

	occupied, wheeled := 0, 0
	for i := 0; i < c.count; i++ {
		s := c.slot(i)
		e := &c.rob[s]
		ready := c.ready[s>>6]&(1<<(s&63)) != 0
		if e.wheel != onNone {
			wheeled++
		}
		if err := c.checkDeps(s, e); err != nil {
			return err
		}
		waiting := !e.issued && e.fu != isa.FUNone
		if waiting {
			if e.copies < 1 {
				return fmt.Errorf("unissued slot %d occupies %d issue-queue slots", s, e.copies)
			}
			occupied += int(e.copies)
		}
		valueWait := e.issued && e.in.IsStore() && !e.valReady
		if !waiting && !valueWait {
			if ready || e.wheel != onNone || e.linked != 0 || e.pending != 0 {
				return fmt.Errorf("slot %d (op=%s issued=%v) still in the wakeup structures", s, e.in.Op, e.issued)
			}
			continue
		}
		// Recount the unissued producers the entry waits on.
		pending, linked := 0, uint8(0)
		from, to := 0, issueSources(e)
		if valueWait {
			from, to = e.nsrc-1, e.nsrc
		}
		for k := from; k < to; k++ {
			p := c.liveProducer(e, k)
			switch {
			case p == nil:
			case !p.issued:
				pending++
				linked |= 1 << k
			case e.wheel != onNone && p.readyCycle > e.wake:
				return fmt.Errorf("slot %d wakes at %d, before its producer's result at %d", s, e.wake, p.readyCycle)
			case ready && p.readyCycle >= c.cycle:
				return fmt.Errorf("slot %d is ready, but its producer's result arrives at %d", s, p.readyCycle)
			}
		}
		if waiting && int(e.pending) != pending {
			return fmt.Errorf("slot %d pending count %d, but it waits on %d unissued producers", s, e.pending, pending)
		}
		if e.linked != linked {
			return fmt.Errorf("slot %d source links %04b, want %04b", s, e.linked, linked)
		}
		places := 0
		if ready {
			places++
		}
		if e.wheel != onNone {
			places++
		}
		if pending > 0 {
			places++
		}
		if places != 1 || valueWait && ready {
			return fmt.Errorf("slot %d waits in %d places (ready=%v wheel=%d pending=%d)", s, places, ready, e.wheel, pending)
		}
	}
	if occupied != c.iqLen {
		return fmt.Errorf("issue queue count %d, but the window's unissued entries occupy %d", c.iqLen, occupied)
	}
	if c.iqOrderLen < 0 || c.iqOrderLen > len(c.iqOrder) {
		return fmt.Errorf("issue-queue order holds %d elements, capacity %d", c.iqOrderLen, len(c.iqOrder))
	}
	listed := 0
	for _, o := range c.iqOrder[:c.iqOrderLen] {
		if o.slot < 0 || int(o.slot) >= c.cfg.ROBSize {
			return fmt.Errorf("issue-queue order references ROB slot %d", o.slot)
		}
		if c.occupies(o) {
			listed++
		}
	}
	if listed != c.iqLen {
		return fmt.Errorf("issue queue count %d, but its order lists %d occupied slots", c.iqLen, listed)
	}
	if wheeled != onWheel {
		return fmt.Errorf("%d entries marked on the wheel, %d linked there", wheeled, onWheel)
	}
	return nil
}

// checkDeps validates producer e's dependent list: only an unissued
// producer has one, and every node on it names a live consumer source
// that reads e and is marked linked.
func (c *Core) checkDeps(s int, e *robEntry) error {
	if e.deps != noLink && e.issued {
		return fmt.Errorf("issued slot %d still has dependents", s)
	}
	for n, i := e.deps, 0; n != noLink; i++ {
		cs, k := int(n>>2), int(n&3)
		if n < 0 || cs >= c.cfg.ROBSize || c.ordinal(cs) >= c.count {
			return fmt.Errorf("dependent list of slot %d references dead ROB slot %d", s, cs)
		}
		if i >= 4*c.count {
			return fmt.Errorf("dependent list of slot %d is cyclic", s)
		}
		d := &c.rob[cs]
		if d.srcRob[k] != s || d.srcSeq[k] != e.seq || d.linked&(1<<k) == 0 {
			return fmt.Errorf("dependent list of slot %d holds a stale node (slot %d source %d)", s, cs, k)
		}
		n = d.dnext[k]
	}
	return nil
}
