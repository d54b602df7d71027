package graph

import (
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"slices"
	"testing"
	"testing/quick"
)

func TestUniformBasics(t *testing.T) {
	g := Uniform(1024, 8, 1, false)
	if g.NumNodes() != 1024 {
		t.Fatalf("nodes = %d", g.NumNodes())
	}
	if g.NumEdges() != 1024*8 {
		t.Fatalf("edges = %d", g.NumEdges())
	}
	ds := g.Degrees()
	if ds.Avg != 8 {
		t.Errorf("avg degree = %f", ds.Avg)
	}
	// Uniform degrees concentrate: the max should stay near the mean.
	if ds.Max > 40 {
		t.Errorf("uniform max degree = %d, suspiciously heavy tail", ds.Max)
	}
}

func TestKroneckerPowerLaw(t *testing.T) {
	g := Kronecker(12, 16, 1, false)
	if g.NumNodes() != 1<<12 {
		t.Fatalf("nodes = %d", g.NumNodes())
	}
	if g.NumEdges() != (1<<12)*16 {
		t.Fatalf("edges = %d", g.NumEdges())
	}
	ds := g.Degrees()
	// Power-law: the max degree dwarfs the average; many zero-degree nodes.
	if float64(ds.Max) < 10*ds.Avg {
		t.Errorf("kron max degree %d not heavy-tailed (avg %f)", ds.Max, ds.Avg)
	}
	if ds.Zeroes == 0 {
		t.Error("kron graphs should have isolated vertices")
	}
	u := Uniform(1<<12, 16, 1, false)
	if g.MaxDegree() <= 2*u.MaxDegree() {
		t.Errorf("kron max (%d) should far exceed uniform max (%d)", g.MaxDegree(), u.MaxDegree())
	}
}

func TestCSRConsistency(t *testing.T) {
	check := func(g *CSR) {
		t.Helper()
		n := g.NumNodes()
		if int(g.RowPtr[n]) != len(g.ColIdx) {
			t.Fatal("rowptr does not cover colidx")
		}
		total := 0
		for u := 0; u < n; u++ {
			nb := g.Neighbors(u)
			total += len(nb)
			for i := 1; i < len(nb); i++ {
				if nb[i-1] > nb[i] {
					t.Fatalf("neighbors of %d not sorted", u)
				}
			}
			for _, v := range nb {
				if int(v) >= n {
					t.Fatalf("edge target %d out of range", v)
				}
			}
		}
		if total != g.NumEdges() {
			t.Fatalf("degree sum %d != edges %d", total, g.NumEdges())
		}
	}
	check(Uniform(500, 4, 7, false))
	check(Kronecker(9, 8, 7, false))
}

func TestWeightsRange(t *testing.T) {
	g := Uniform(256, 4, 3, true)
	if len(g.Weights) != g.NumEdges() {
		t.Fatal("weights length mismatch")
	}
	for _, w := range g.Weights {
		if w < 1 || w > 255 {
			t.Fatalf("weight %d out of [1,255]", w)
		}
	}
}

func TestDeterminism(t *testing.T) {
	a := Kronecker(10, 8, 42, true)
	b := Kronecker(10, 8, 42, true)
	if a.NumEdges() != b.NumEdges() {
		t.Fatal("nondeterministic edge count")
	}
	for i := range a.ColIdx {
		if a.ColIdx[i] != b.ColIdx[i] || a.Weights[i] != b.Weights[i] {
			t.Fatal("nondeterministic generation")
		}
	}
	c := Kronecker(10, 8, 43, true)
	same := true
	for i := range a.ColIdx {
		if i >= len(c.ColIdx) || a.ColIdx[i] != c.ColIdx[i] {
			same = false
			break
		}
	}
	if same && a.NumEdges() == c.NumEdges() {
		t.Fatal("different seeds produced identical graphs")
	}
}

// Property: every generated graph is structurally valid CSR.
func TestGeneratorProperty(t *testing.T) {
	f := func(seed uint64, scaleRaw uint8) bool {
		scale := 6 + int(scaleRaw%4)
		g := Kronecker(scale, 4, seed, false)
		n := g.NumNodes()
		if len(g.RowPtr) != n+1 || int(g.RowPtr[n]) != len(g.ColIdx) {
			return false
		}
		for u := 0; u < n; u++ {
			if g.RowPtr[u] > g.RowPtr[u+1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// digest hashes a graph's RowPtr, ColIdx and Weights, each as its length
// followed by its words, all little-endian.
func digest(g *CSR) string {
	h := sha256.New()
	var buf [8]byte
	for _, s := range [][]uint64{g.RowPtr, g.ColIdx, g.Weights} {
		binary.LittleEndian.PutUint64(buf[:], uint64(len(s)))
		h.Write(buf[:])
		for _, w := range s {
			binary.LittleEndian.PutUint64(buf[:], w)
			h.Write(buf[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGeneratorDigests pins every generated word. The digests fix the
// order in which the generators consume the RNG stream (edges first,
// then weights in CSR position order), which the simulated results see
// only indirectly. A change to a generator or to the CSR build that is
// meant to be output-preserving must leave them unchanged.
func TestGeneratorDigests(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    func() *CSR
		want string
	}{
		{"Kronecker(9,8,7)", func() *CSR { return Kronecker(9, 8, 7, false) },
			"390ee9512009da835b7e989d402a75be2f777c5dee6ccf31f09aa180708d0f71"},
		{"Kronecker(12,16,1)", func() *CSR { return Kronecker(12, 16, 1, false) },
			"5277503535d33ec71c168b727fa23b985b691563076ca9f0d8e5a1b6e395604b"},
		{"Kronecker(10,8,42,weighted)", func() *CSR { return Kronecker(10, 8, 42, true) },
			"f4b302aba6c6fef6ce3f4d4f25040e25420d0aadd7f956ebeae22453691e10cd"},
		{"Uniform(1<<12,8,1)", func() *CSR { return Uniform(1<<12, 8, 1, false) },
			"80112b14bd1fd65bf52ede4be6ccc3d14cab411dd79d8c563d1eb59790104fc5"},
		{"Uniform(500,4,7,weighted)", func() *CSR { return Uniform(500, 4, 7, true) },
			"b7a83fe14633d2df8cb7c88bffbe2ddb4e53f316eff586bfa44e2f0baf0c7b8a"},
	} {
		if got := digest(tc.g()); got != tc.want {
			t.Errorf("%s: digest %s, want %s", tc.name, got, tc.want)
		}
	}
}

// refCSR is the obvious CSR build fromEdges must reproduce: sort the
// (src, dst) pairs, count degrees, and draw weights in position order.
func refCSR(n int, src, dst []uint64, weighted bool, seed uint64) *CSR {
	type edge struct{ u, v uint64 }
	es := make([]edge, len(src))
	for i := range src {
		es[i] = edge{src[i], dst[i]}
	}
	slices.SortFunc(es, func(a, b edge) int {
		return cmp.Or(cmp.Compare(a.u, b.u), cmp.Compare(a.v, b.v))
	})
	g := &CSR{RowPtr: make([]uint64, n+1), ColIdx: make([]uint64, len(es))}
	for i, e := range es {
		g.RowPtr[e.u+1]++
		g.ColIdx[i] = e.v
	}
	for u := 1; u <= n; u++ {
		g.RowPtr[u] += g.RowPtr[u-1]
	}
	if weighted {
		r := newRNG(seed)
		g.Weights = make([]uint64, len(es))
		for i := range g.Weights {
			g.Weights[i] = 1 + r.next()%255
		}
	}
	return g
}

// TestFromEdgesReference checks the radix CSR build against refCSR on
// seeded edge lists: tiny and non-power-of-two vertex counts, empty and
// single-edge lists, heavy duplicates and one hub vertex that owns a
// third of the edges.
func TestFromEdgesReference(t *testing.T) {
	for _, n := range []int{1, 2, 3, 500, 1024} {
		for _, m := range []int{0, 1, 5 * n} {
			for _, weighted := range []bool{false, true} {
				name := fmt.Sprintf("n=%d/m=%d/weighted=%v", n, m, weighted)
				seed := uint64(n*131 + m)
				r := newRNG(seed)
				// Draw endpoints from a small pool so duplicates are
				// common, and route every third edge out of the hub.
				pool := max(1, n/8)
				hub := uint64(n / 2)
				src := make([]uint64, m)
				dst := make([]uint64, m)
				for i := range src {
					src[i] = r.next() % uint64(n)
					if i%3 == 0 {
						src[i] = hub
					}
					dst[i] = r.next() % uint64(pool) * uint64(n/pool)
				}
				want := refCSR(n, src, dst, weighted, seed+1)
				got := fromEdges(n, slices.Clone(src), slices.Clone(dst), weighted, newRNG(seed+1))
				if !slices.Equal(got.RowPtr, want.RowPtr) {
					t.Errorf("%s: RowPtr differs from the reference", name)
				}
				if !slices.Equal(got.ColIdx, want.ColIdx) {
					t.Errorf("%s: ColIdx differs from the reference", name)
				}
				if !slices.Equal(got.Weights, want.Weights) {
					t.Errorf("%s: Weights differ from the reference", name)
				}
			}
		}
	}
}

var sinkCSR *CSR

func BenchmarkKronecker(b *testing.B) {
	b.ReportAllocs()
	for range b.N {
		sinkCSR = Kronecker(18, 8, 1, false)
	}
}

func BenchmarkUniform(b *testing.B) {
	b.ReportAllocs()
	for range b.N {
		sinkCSR = Uniform(1<<18, 8, 1, false)
	}
}
