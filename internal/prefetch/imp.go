package prefetch

import "vrsim/internal/mem"

// IMP is the Indirect Memory Prefetcher of Yu et al. (MICRO-48), the
// paper's hardware comparison point for indirect patterns. It detects
// A[B[i]]-style accesses: a striding index load whose *value* linearly
// predicts the address of a subsequent load, addr = base + (value << shift).
//
// Detection follows the original's indirect pattern detector: for each
// candidate (index value v, subsequent miss address A) pairing, solve
// base = A - (v << shift) for each candidate shift; a (shift, base)
// hypothesis confirmed by a second observation becomes an active pattern.
// Once active, each new index value v_i triggers prefetches for
// base + (v_{i+d} << shift) where the future index values v_{i+d} are read
// from the stride stream `Distance` elements ahead — in hardware IMP reads
// them from prefetched index cache lines; here they come from the backing
// store, which holds identical bits.
//
// IMP cannot chase chains whose address arithmetic is non-linear in the
// loaded value (hashing, multi-level indirection) — exactly the limitation
// the paper exploits to show where Vector Runahead wins.
type IMP struct {
	table *StrideTable

	// patterns maps an index-load PC to its learned indirect patterns.
	patterns map[int][]*impPattern
	// lastIndex remembers the most recent confident index load, so the
	// next few loads can be tested against it for indirection.
	lastIndex indexObs
	haveIndex bool

	// Distance is the index lookahead (elements ahead of the current
	// index) and Degree how many consecutive future elements to cover.
	Distance int
	Degree   int

	// MaxPatternsPerPC bounds learned patterns per index PC.
	MaxPatternsPerPC int

	// Stats
	Candidates uint64 // hypothesis slots created
	Confirmed  uint64 // patterns activated
	Issued     uint64 // prefetches issued
}

type indexObs struct {
	pc     int
	addr   uint64
	stride int64
	value  uint64
}

type impPattern struct {
	targetPC  int    // the indirect load's PC
	shift     uint8  // element-size shift (2, 3)
	base      uint64 // learned base address
	confirmed bool
}

// candidateShifts are the element sizes IMP hypothesizes (4- and 8-byte).
//
//vrlint:allow simdet -- read-only hypothesis table, never mutated
var candidateShifts = []uint8{2, 3}

// NewIMP returns an IMP with a 32-entry index detector, lookahead distance
// of 16 elements and degree 4.
func NewIMP() *IMP {
	return &IMP{
		table:            NewStrideTable(32),
		patterns:         make(map[int][]*impPattern),
		Distance:         16,
		Degree:           4,
		MaxPatternsPerPC: 4,
	}
}

// OnAccess implements mem.Prefetcher.
func (p *IMP) OnAccess(h *mem.Hierarchy, ev mem.AccessEvent) {
	if ev.IsWrite {
		return
	}
	e := p.table.Observe(ev.PC, ev.Addr)
	if e.Confident() {
		// This is a striding index load: try to trigger learned patterns
		// and remember it for pairing with upcoming indirect loads.
		// The index value is read as the load sees it, mirroring how
		// hardware IMP snoops fill data.
		var value uint64
		if h.Data != nil {
			value = h.Data.Load(ev.Addr)
		}
		p.trigger(h, ev, e)
		p.lastIndex = indexObs{pc: ev.PC, addr: ev.Addr, stride: e.Stride, value: value}
		p.haveIndex = true
		return
	}
	// Non-striding load: candidate indirect access for the last index.
	if p.haveIndex && ev.PC != p.lastIndex.pc {
		p.learn(ev)
	}
}

// learn tests the access against base+(value<<shift) hypotheses.
//
//vrlint:allow hotalloc -- hypothesis inserts are bounded by the table size; pooled by the PR-8 overhaul
func (p *IMP) learn(ev mem.AccessEvent) {
	pats := p.patterns[p.lastIndex.pc]
	for _, shift := range candidateShifts {
		base := ev.Addr - (p.lastIndex.value << shift)
		matched := false
		for _, pat := range pats {
			if pat.targetPC != ev.PC || pat.shift != shift {
				continue
			}
			matched = true
			if pat.base == base {
				if !pat.confirmed {
					pat.confirmed = true
					p.Confirmed++
				}
			} else if !pat.confirmed {
				pat.base = base // re-hypothesize until confirmed
			}
			break
		}
		if !matched && len(pats) < p.MaxPatternsPerPC {
			pats = append(pats, &impPattern{targetPC: ev.PC, shift: shift, base: base})
			p.Candidates++
		}
	}
	p.patterns[p.lastIndex.pc] = pats
}

// trigger issues prefetches for confirmed patterns of the index load.
func (p *IMP) trigger(h *mem.Hierarchy, ev mem.AccessEvent, e *StrideEntry) {
	pats := p.patterns[ev.PC]
	if len(pats) == 0 || h.Data == nil {
		return
	}
	for d := 0; d < p.Degree; d++ {
		idxAddr := uint64(int64(ev.Addr) + int64(p.Distance+d)*e.Stride)
		future := h.Data.Load(idxAddr)
		for _, pat := range pats {
			if !pat.confirmed {
				continue
			}
			p.Issued++
			h.Prefetch(ev.Cycle, pat.base+(future<<pat.shift), mem.SrcIMP)
		}
	}
}

// PatternCount returns the number of confirmed patterns, for tests and
// diagnostics.
func (p *IMP) PatternCount() int {
	n := 0
	for _, pats := range p.patterns {
		for _, pat := range pats {
			if pat.confirmed {
				n++
			}
		}
	}
	return n
}

// Combined chains several prefetchers behind one mem.Prefetcher, training
// each on every demand access. The paper's IMP configuration keeps the
// baseline stride prefetcher enabled alongside it.
type Combined struct {
	Parts []mem.Prefetcher
}

// OnAccess implements mem.Prefetcher.
func (c *Combined) OnAccess(h *mem.Hierarchy, ev mem.AccessEvent) {
	for _, p := range c.Parts {
		p.OnAccess(h, ev)
	}
}
