package branch

// TAGE is a tagged geometric-history-length predictor in the spirit of
// Seznec's TAGE-SC-L (without the statistical corrector and loop
// predictor). A bimodal base table backs several tagged tables indexed by
// progressively longer folds of the caller-maintained global history; the
// longest-history hit provides the prediction, and entries are allocated on
// mispredictions.
type TAGE struct {
	base *Bimodal

	tables []tageTable

	allocSeed uint32 // xorshift state for allocation tie-breaking
}

type tageTable struct {
	entries []tageEntry
	histLen uint
	mask    uint32
}

type tageEntry struct {
	tag    uint16
	ctr    uint8 // 3-bit saturating; >=4 predicts taken
	useful uint8 // 2-bit usefulness
	valid  bool
}

// NewTAGE builds a predictor with the given per-table log2 size and the
// classic geometric history series {8, 16, 32, 64}. logSize is clamped
// like NewBimodal's.
func NewTAGE(logSize int) *TAGE {
	logSize = clampLog(logSize)
	hist := []uint{8, 16, 32, 64}
	t := &TAGE{base: NewBimodal(logSize + 1), allocSeed: 0x9e3779b9}
	for _, h := range hist {
		size := 1 << logSize
		t.tables = append(t.tables, tageTable{
			entries: make([]tageEntry, size),
			histLen: h,
			mask:    uint32(size - 1),
		})
	}
	return t
}

// Name implements Predictor.
func (t *TAGE) Name() string { return "tage" }

// fold compresses the low histLen bits of history into width bits.
func fold(history uint64, histLen, width uint) uint32 {
	h := history & (^uint64(0) >> (64 - histLen))
	var out uint32
	for h != 0 {
		out ^= uint32(h) & ((1 << width) - 1)
		h >>= width
	}
	return out
}

// index computes the folded-history table index.
func (tt *tageTable) index(pc int, history uint64) uint32 {
	return (uint32(pc) ^ fold(history, tt.histLen, 10) ^ fold(history, tt.histLen/2+1, 7)) & tt.mask
}

func (tt *tageTable) tag(pc int, history uint64) uint16 {
	return uint16((uint32(pc)>>2 ^ fold(history, tt.histLen, 9)*3) & 0x1ff)
}

// lookup returns the longest-history matching table index, or -1.
func (t *TAGE) lookup(pc int, hist uint64) (table int, idx uint32) {
	for i := len(t.tables) - 1; i >= 0; i-- {
		tt := &t.tables[i]
		j := tt.index(pc, hist)
		if tt.entries[j].valid && tt.entries[j].tag == tt.tag(pc, hist) {
			return i, j
		}
	}
	return -1, 0
}

// Predict implements Predictor.
func (t *TAGE) Predict(pc int, hist uint64) bool {
	if ti, idx := t.lookup(pc, hist); ti >= 0 {
		return t.tables[ti].entries[idx].ctr >= 4
	}
	return t.base.Predict(pc, hist)
}

// Update implements Predictor.
func (t *TAGE) Update(pc int, hist uint64, taken bool) {
	ti, idx := t.lookup(pc, hist)
	var predicted bool
	if ti >= 0 {
		e := &t.tables[ti].entries[idx]
		predicted = e.ctr >= 4
		e.ctr = bump(e.ctr, taken, 7)
		if predicted == taken {
			e.useful = bump(e.useful, true, 3)
		} else {
			e.useful = bump(e.useful, false, 3)
		}
	} else {
		predicted = t.base.Predict(pc, hist)
	}
	t.base.Update(pc, hist, taken)

	// Allocate a longer-history entry on a misprediction.
	if predicted != taken && ti < len(t.tables)-1 {
		t.allocate(pc, hist, ti+1, taken)
	}
}

// allocate claims an entry in one of the tables above `from`, preferring
// non-useful victims; a simple xorshift picks among candidates.
func (t *TAGE) allocate(pc int, hist uint64, from int, taken bool) {
	t.allocSeed ^= t.allocSeed << 13
	t.allocSeed ^= t.allocSeed >> 17
	t.allocSeed ^= t.allocSeed << 5

	n := len(t.tables) - from // candidate tables; callers keep from < len
	if n <= 0 {
		return
	}
	start := from + int(t.allocSeed)%n
	if start < from { // negative modulo
		start += n
	}
	for off := 0; off < n; off++ {
		i := from + (start-from+off)%n
		tt := &t.tables[i]
		j := tt.index(pc, hist)
		e := &tt.entries[j]
		if !e.valid || e.useful == 0 {
			ctr := uint8(3)
			if taken {
				ctr = 4
			}
			*e = tageEntry{tag: tt.tag(pc, hist), ctr: ctr, valid: true}
			return
		}
		e.useful--
	}
}
