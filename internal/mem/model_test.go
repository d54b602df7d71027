package mem

import (
	"math/rand"
	"testing"
)

// refCache is an executable specification of a set-associative LRU cache:
// per-set ordered slices, most recent first. The real Cache must agree with
// it on every operation outcome.
type refCache struct {
	sets int
	ways int
	data []([]uint64) // per set, MRU-first line numbers
}

func newRefCache(sets, ways int) *refCache {
	return &refCache{sets: sets, ways: ways, data: make([][]uint64, sets)}
}

func (r *refCache) set(line uint64) int { return int(line) % r.sets }

func (r *refCache) lookup(line uint64) bool {
	s := r.set(line)
	for i, l := range r.data[s] {
		if l == line {
			// Move to MRU.
			copy(r.data[s][1:i+1], r.data[s][:i])
			r.data[s][0] = line
			return true
		}
	}
	return false
}

func (r *refCache) insert(line uint64) (victim uint64, evicted bool) {
	if r.lookup(line) {
		return 0, false
	}
	s := r.set(line)
	if len(r.data[s]) == r.ways {
		victim = r.data[s][r.ways-1]
		evicted = true
		r.data[s] = r.data[s][:r.ways-1]
	}
	r.data[s] = append([]uint64{line}, r.data[s]...)
	return victim, evicted
}

// TestCacheAgainstModel drives the production cache and the reference spec
// with the same random operation stream and requires identical outcomes.
func TestCacheAgainstModel(t *testing.T) {
	const sets, ways = 8, 4
	c, err := NewCache("model", sets*ways*LineSize, ways, 1)
	if err != nil {
		t.Fatal(err)
	}
	ref := newRefCache(sets, ways)
	rng := rand.New(rand.NewSource(77))

	for op := 0; op < 50_000; op++ {
		line := uint64(rng.Intn(sets * 8)) // heavy set contention
		if rng.Intn(2) == 0 {
			_, _, gotHit := c.Lookup(line, false)
			wantHit := ref.lookup(line)
			if gotHit != wantHit {
				t.Fatalf("op %d: lookup(%d) hit=%v want %v", op, line, gotHit, wantHit)
			}
		} else {
			gotVictim, gotEvicted, _ := c.Insert(line, false, SrcDemand)
			wantVictim, wantEvicted := ref.insert(line)
			if gotEvicted != wantEvicted {
				t.Fatalf("op %d: insert(%d) evicted=%v want %v", op, line, gotEvicted, wantEvicted)
			}
			if gotEvicted && gotVictim != wantVictim {
				t.Fatalf("op %d: insert(%d) victim=%d want %d", op, line, gotVictim, wantVictim)
			}
		}
	}
}

// TestDRAMNeverReordersBelowMinLatency: completion times are monotone in
// arrival for same-cycle bursts and never beat the minimum latency.
func TestDRAMProperties(t *testing.T) {
	d := NewDRAM(4.0, 50, 51.2)
	rng := rand.New(rand.NewSource(5))
	cycle := uint64(0)
	var prevDone uint64
	for i := 0; i < 10_000; i++ {
		cycle += uint64(rng.Intn(10))
		done := d.Access(cycle)
		if done < cycle+d.MinLatency {
			t.Fatalf("access at %d done %d beats min latency", cycle, done)
		}
		if done < prevDone {
			t.Fatalf("service order inverted: %d after %d", done, prevDone)
		}
		prevDone = done
	}
	// Aggregate bandwidth: n accesses cannot finish faster than n*interval.
	if d.BusyCycles != 10_000*d.ServiceInterval {
		t.Fatalf("busy cycles = %d", d.BusyCycles)
	}
}

// TestMSHRNeverExceedsCapacity across random acquire/complete interleavings.
func TestMSHRCapacityInvariant(t *testing.T) {
	const capEntries = 6
	m := NewMSHRFile(capEntries)
	rng := rand.New(rand.NewSource(11))
	cycle := uint64(0)
	for i := 0; i < 20_000; i++ {
		cycle += uint64(rng.Intn(20))
		line := uint64(rng.Intn(64))
		if _, _, ok := m.Outstanding(line, cycle); ok {
			continue
		}
		start := m.Acquire(cycle)
		if start < cycle {
			t.Fatalf("acquire start %d before request cycle %d", start, cycle)
		}
		m.Complete(line, start, start+uint64(100+rng.Intn(400)), SrcDemand)
		if n := m.InFlightAt(start); n > capEntries {
			t.Fatalf("in flight %d exceeds capacity %d", n, capEntries)
		}
	}
}

// TestHierarchyInclusionOnFills: after a demand miss fills, the line is
// present at every level (fills propagate downward).
func TestHierarchyInclusionOnFills(t *testing.T) {
	h := MustHierarchy(DefaultConfig())
	rng := rand.New(rand.NewSource(3))
	cycle := uint64(0)
	for i := 0; i < 2_000; i++ {
		cycle += 50
		addr := uint64(rng.Intn(1<<20)) * 64
		h.Access(cycle, 1, addr, false, ClassDemand, SrcDemand)
		line := Line(addr)
		if !h.L1D.Contains(line) {
			t.Fatalf("line %d absent from L1 after access", line)
		}
		if !h.L2.Contains(line) && !h.L1D.Contains(line) {
			t.Fatalf("line %d absent from both L1 and L2", line)
		}
	}
}

// refMSHR is the MSHR file with an expiry sweep on every call: entries
// in arrival order, expired ones filtered out before every Outstanding,
// Acquire and TryAcquire, and a stalled Acquire frees its earliest entry
// by moving the last one into its slot. The real file skips sweeps that
// cannot drop anything and must agree with it on every outcome.
type refMSHR struct {
	capacity int
	lines    []uint64
	done     []uint64
	srcs     []PrefetchSource
	allocs   uint64
	stalls   uint64
}

func (r *refMSHR) expire(cycle uint64) {
	w := 0
	for i := range r.done {
		if r.done[i] > cycle {
			r.lines[w], r.done[w], r.srcs[w] = r.lines[i], r.done[i], r.srcs[i]
			w++
		}
	}
	r.lines, r.done, r.srcs = r.lines[:w], r.done[:w], r.srcs[:w]
}

func (r *refMSHR) outstanding(line, cycle uint64) (uint64, PrefetchSource, bool) {
	r.expire(cycle)
	for i, l := range r.lines {
		if l == line {
			return r.done[i], r.srcs[i], true
		}
	}
	return 0, SrcDemand, false
}

func (r *refMSHR) acquire(cycle uint64) uint64 {
	r.expire(cycle)
	r.allocs++
	if len(r.done) < r.capacity {
		return cycle
	}
	r.stalls++
	ei := 0
	for i, d := range r.done {
		if d < r.done[ei] {
			ei = i
		}
	}
	earliest, last := r.done[ei], len(r.done)-1
	r.lines[ei], r.done[ei], r.srcs[ei] = r.lines[last], r.done[last], r.srcs[last]
	r.lines, r.done, r.srcs = r.lines[:last], r.done[:last], r.srcs[:last]
	return earliest
}

func (r *refMSHR) tryAcquire(cycle uint64) bool {
	r.expire(cycle)
	if len(r.done) >= r.capacity {
		return false
	}
	r.allocs++
	return true
}

func (r *refMSHR) complete(line, done uint64, src PrefetchSource) {
	r.lines, r.done, r.srcs = append(r.lines, line), append(r.done, done), append(r.srcs, src)
}

func (r *refMSHR) inFlightAt(cycle uint64) int {
	n := 0
	for _, d := range r.done {
		if d > cycle {
			n++
		}
	}
	return n
}

// TestMSHRMatchesAlwaysSweep drives the real file and refMSHR with the
// same random Outstanding/Acquire/TryAcquire/Complete/Reset stream — a
// clock that mostly advances but sometimes stalls or steps back (runahead
// engines probe at their own cycles), few lines so merges are common —
// and compares every result plus InFlightAt around the current cycle.
func TestMSHRMatchesAlwaysSweep(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		capacity := 1 + rng.Intn(8)
		m := NewMSHRFile(capacity)
		ref := &refMSHR{capacity: capacity}
		cycle := uint64(1000)
		for i := 0; i < 5_000; i++ {
			switch k := rng.Intn(10); {
			case k < 6:
				cycle += uint64(rng.Intn(30))
			case k < 8:
			default:
				cycle -= min(cycle, uint64(rng.Intn(40)))
			}
			line := uint64(rng.Intn(16))
			src := PrefetchSource(rng.Intn(int(NumSources)))
			switch op := rng.Intn(20); {
			case op < 8:
				gd, gs, gok := m.Outstanding(line, cycle)
				wd, ws, wok := ref.outstanding(line, cycle)
				if gd != wd || gs != ws || gok != wok {
					t.Fatalf("seed %d op %d: Outstanding(%d, %d) = (%d, %v, %v), reference (%d, %v, %v)",
						seed, i, line, cycle, gd, gs, gok, wd, ws, wok)
				}
			case op < 14:
				got, want := m.Acquire(cycle), ref.acquire(cycle)
				if got != want {
					t.Fatalf("seed %d op %d: Acquire(%d) = %d, reference %d", seed, i, cycle, got, want)
				}
				done := got + uint64(rng.Intn(300))
				m.Complete(line, got, done, src)
				ref.complete(line, done, src)
			case op < 19:
				got, want := m.TryAcquire(cycle), ref.tryAcquire(cycle)
				if got != want {
					t.Fatalf("seed %d op %d: TryAcquire(%d) = %v, reference %v", seed, i, cycle, got, want)
				}
				if got {
					done := cycle + uint64(rng.Intn(300))
					m.Complete(line, cycle, done, src)
					ref.complete(line, done, src)
				}
			default:
				m.Reset()
				*ref = refMSHR{capacity: capacity}
			}
			for _, c := range []uint64{cycle - 50, cycle, cycle + 1, cycle + 150} {
				if got, want := m.InFlightAt(c), ref.inFlightAt(c); got != want {
					t.Fatalf("seed %d op %d: InFlightAt(%d) = %d, reference %d", seed, i, c, got, want)
				}
			}
			if m.Allocations != ref.allocs || m.StallEvents != ref.stalls {
				t.Fatalf("seed %d op %d: allocations/stalls = %d/%d, reference %d/%d",
					seed, i, m.Allocations, m.StallEvents, ref.allocs, ref.stalls)
			}
		}
	}
}
