// Package graph provides the compressed-sparse-row graph representation
// and the synthetic generators standing in for the paper's GAP inputs:
// Kronecker (KR, power-law, like Graph500) and uniform-random (UR, Erdős–
// Rényi-style). The paper's billion-edge inputs are replaced by
// laptop-scale instances whose working sets still exceed the 8 MB LLC; the
// property that differentiates KR from UR in the evaluation — heavy-tailed
// versus uniform degree distributions — is preserved by construction.
package graph

import (
	"math/bits"
	"sort"
)

// CSR is a directed graph in compressed sparse row form.
type CSR struct {
	// RowPtr has NumNodes+1 entries; the neighbors of u are
	// ColIdx[RowPtr[u]:RowPtr[u+1]].
	RowPtr []uint64
	ColIdx []uint64
	// Weights holds per-edge weights parallel to ColIdx (for sssp); nil
	// for unweighted graphs.
	Weights []uint64
}

// NumNodes returns the vertex count.
func (g *CSR) NumNodes() int { return len(g.RowPtr) - 1 }

// NumEdges returns the directed edge count.
func (g *CSR) NumEdges() int { return len(g.ColIdx) }

// Degree returns the out-degree of u.
func (g *CSR) Degree(u int) int { return int(g.RowPtr[u+1] - g.RowPtr[u]) }

// Neighbors returns the adjacency slice of u.
func (g *CSR) Neighbors(u int) []uint64 { return g.ColIdx[g.RowPtr[u]:g.RowPtr[u+1]] }

// MaxDegree returns the largest out-degree.
func (g *CSR) MaxDegree() int {
	m := 0
	for u := 0; u < g.NumNodes(); u++ {
		if d := g.Degree(u); d > m {
			m = d
		}
	}
	return m
}

// rng is a splitmix64-seeded xorshift generator: deterministic, cheap,
// independent of math/rand for reproducibility across Go versions.
type rng struct{ s uint64 }

func newRNG(seed uint64) *rng {
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}
	return &rng{s: seed}
}

func (r *rng) next() uint64 {
	r.s = xorshift(r.s)
	return r.s
}

// xorshift advances a xorshift64 state by one step.
func xorshift(x uint64) uint64 {
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	return x
}

// radixDigit is the widest digit fromEdges sorts by, in bits. Narrow
// digits and more passes win: on a 2-core Xeon, scattering a pass over
// more than 32 buckets ran about 3× slower per key, as the store misses
// outran the hardware prefetcher. A 2^20-vertex graph's 40-bit keys take
// eight passes.
const radixDigit = 5

// fromEdges builds a CSR from an edge list, keeping duplicate edges (as
// Graph500 generators do) and sorting each adjacency list. It packs every
// edge into one key, src<<k | dst with k bits per vertex id, and LSD
// radix-sorts the keys using src and dst themselves as the two buffers:
// the caller hands them over and must not use them afterwards. Sorted
// keys are ordered by source, then destination, which is exactly CSR
// order, so ColIdx is the keys masked back to their destinations and
// RowPtr the prefix sum of their sources' histogram. Weights are drawn
// from rnd in CSR position order.
func fromEdges(n int, src, dst []uint64, weighted bool, rnd *rng) *CSR {
	k := uint(bits.Len(uint(n - 1)))
	passes := max(1, (2*k+radixDigit-1)/radixDigit)
	width := (2*k + passes - 1) / passes
	mask := uint64(1)<<width - 1
	var count, next [1 << radixDigit]uint64
	for i, u := range src {
		key := u<<k | dst[i]
		src[i] = key
		count[key&mask]++
	}
	keys, buf := src, dst
	for shift := uint(0); shift < 2*k; shift += width {
		var sum uint64
		for d, c := range &count {
			count[d] = sum
			sum += c
		}
		// Each pass also takes the next digit's histogram, so no pass
		// reads the keys twice.
		next = [1 << radixDigit]uint64{}
		for _, key := range keys {
			d := key >> shift & mask
			buf[count[d]] = key
			count[d]++
			next[key>>(shift+width)&mask]++
		}
		keys, buf = buf, keys
		count = next
	}
	rowPtr := make([]uint64, n+1)
	lo := uint64(1)<<k - 1
	for i, key := range keys {
		rowPtr[key>>k+1]++
		keys[i] = key & lo
	}
	for u := 1; u <= n; u++ {
		rowPtr[u] += rowPtr[u-1]
	}
	g := &CSR{RowPtr: rowPtr, ColIdx: keys}
	if weighted {
		g.Weights = make([]uint64, len(keys))
		for i := range g.Weights {
			g.Weights[i] = 1 + rnd.next()%255
		}
	}
	return g
}

// Uniform generates a UR-style graph: n nodes, degree*n directed edges with
// both endpoints uniform. Degree concentration is tight (Poisson-like), the
// property that starves Vector Runahead of long inner loops in the paper's
// UR results.
func Uniform(n, avgDegree int, seed uint64, weighted bool) *CSR {
	r := newRNG(seed)
	m := n * avgDegree
	src := make([]uint64, m)
	dst := make([]uint64, m)
	x := r.s
	for i := range src {
		x = xorshift(x)
		src[i] = x % uint64(n)
		x = xorshift(x)
		dst[i] = x % uint64(n)
	}
	r.s = x
	return fromEdges(n, src, dst, weighted, r)
}

// Kronecker generates a KR-style power-law graph with 2^scale nodes and
// edgeFactor*2^scale edges using the Graph500 RMAT parameters
// (A,B,C) = (0.57, 0.19, 0.19). A few vertices collect enormous adjacency
// lists — the long inner loops VR vectorizes profitably. scale must be
// at most 32.
func Kronecker(scale, edgeFactor int, seed uint64, weighted bool) *CSR {
	r := newRNG(seed)
	n := 1 << scale
	m := n * edgeFactor
	src := make([]uint64, m)
	dst := make([]uint64, m)
	x := r.s
	for i := range src {
		// One draw per bit, least significant first: each draw shifts
		// the pair right and enters its quadrant at bit 63 (u) and
		// bit 31 (v), so the first draw ends up lowest.
		var uv uint64
		for range scale {
			x = xorshift(x)
			uv = uv>>1 | rmatQuadrant[x%100]
		}
		// Permute vertex labels so the heavy vertices are scattered.
		src[i] = scramble(uv>>(64-scale), uint64(n))
		dst[i] = scramble(uint64(uint32(uv)>>(32-scale)), uint64(n))
	}
	r.s = x
	return fromEdges(n, src, dst, weighted, r)
}

// rmatQuadrant maps a percentile draw to its R-MAT quadrant under the
// Graph500 parameters (A,B,C,D) = (57,19,19,5) percent, as the source
// bit at bit 63 and the destination bit at bit 31. Looking the quadrant
// up replaces a four-way branch on an unpredictable draw.
var rmatQuadrant = func() (t [100]uint64) {
	const a, b, c = 57, 19, 19
	const u, v = 1 << 63, 1 << 31
	for p := range t {
		if p >= a+b { // C or D
			t[p] |= u
		}
		if p >= a && p < a+b || p >= a+b+c { // B or D
			t[p] |= v
		}
	}
	return t
}()

// scramble applies a fixed odd-multiplier permutation modulo a power of two.
func scramble(x, n uint64) uint64 {
	return (x*0x9e3779b97f4a7c15 + 0x7f4a7c15) & (n - 1)
}

// DegreeStats summarizes a degree distribution.
type DegreeStats struct {
	Avg    float64
	Max    int
	P99    int
	Zeroes int // vertices with no out-edges
}

// Degrees computes distribution statistics.
func (g *CSR) Degrees() DegreeStats {
	n := g.NumNodes()
	ds := make([]int, n)
	var sum, zeroes int
	for u := 0; u < n; u++ {
		d := g.Degree(u)
		ds[u] = d
		sum += d
		if d == 0 {
			zeroes++
		}
	}
	sort.Ints(ds)
	return DegreeStats{
		Avg:    float64(sum) / float64(n),
		Max:    ds[n-1],
		P99:    ds[n*99/100],
		Zeroes: zeroes,
	}
}
