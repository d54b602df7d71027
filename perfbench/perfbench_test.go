package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"
)

// TestMain lets the test binary serve as the benchmark's fresh-process
// repetitions, exactly as the benchmark binary does.
func TestMain(m *testing.M) {
	if spec := os.Getenv(childEnv); spec != "" {
		os.Exit(childMain(spec))
	}
	os.Exit(m.Run())
}

func newTestBench(t *testing.T) *bench {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	return &bench{exe: exe, build: t.TempDir()}
}

func testRef(t *testing.T) *reference {
	t.Helper()
	ref, err := loadReference()
	if err != nil {
		t.Fatal(err)
	}
	return ref
}

func checkAgainstReference(t *testing.T, ref *reference, r *report) {
	t.Helper()
	chk := &checker{ref: ref, workload: r.Workload}
	chk.report(r)
	if chk.Failed != 0 || chk.Attempted == 0 {
		t.Errorf("%s seed %d traced=%v: %d of %d checks failed: %v", r.Workload, r.Seed, r.Traced, chk.Failed, chk.Attempted, chk.problems)
	}
}

// Set-up must be measured again in every repetition: ByName and Fresh
// memoize process-wide, so a repetition sharing a process with another
// would report gap-build's graph synthesis as free.
func TestGapBuildSetupEveryRepetition(t *testing.T) {
	b := newTestBench(t)
	reps, err := b.measure(context.Background(), "gap-build", 1, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(reps) < 2 {
		t.Fatalf("%d repetitions, want at least 2", len(reps))
	}
	ref := testRef(t)
	for i, r := range reps {
		checkAgainstReference(t, ref, r)
		if r.SetupS <= 0 || r.BuildS <= 0 || r.InitS <= 0 {
			t.Errorf("repetition %d: setup %v s (build %v s, init %v s), want all nonzero", i, r.SetupS, r.BuildS, r.InitS)
		}
		if len(r.CalS) < 3*blockSamples {
			t.Errorf("repetition %d: %d host-speed samples, want blocks at start, after set-up and at the end plus one per cell", i, len(r.CalS))
		}
		if r.BuildS < reps[0].BuildS/4 {
			t.Errorf("repetition %d: graph build %v s against %v s in the first: memoized across repetitions?", i, r.BuildS, reps[0].BuildS)
		}
	}
}

// Two seeds permute the cell order but simulate identical statistics,
// and a traced run simulates exactly what an untraced one does.
func TestSeedsAndTracingLeaveStatisticsUnchanged(t *testing.T) {
	b := newTestBench(t)
	ctx := context.Background()
	plain, err := b.child(ctx, childSpec{Workload: "hpcdb-core", Seed: 1, BuildDir: b.build})
	if err != nil {
		t.Fatal(err)
	}
	traced, err := b.child(ctx, childSpec{Workload: "hpcdb-core", Seed: 2, Trace: true, BuildDir: b.build,
		SpanFile: filepath.Join(b.build, "spans.json")})
	if err != nil {
		t.Fatal(err)
	}
	ref := testRef(t)
	checkAgainstReference(t, ref, plain)
	checkAgainstReference(t, ref, traced)
	if digest(plain.Cells) != digest(traced.Cells) {
		t.Error("seed 2 traced statistics differ from seed 1 untraced")
	}
	order := func(r *report) string {
		var ids []string
		for _, c := range r.Cells {
			ids = append(ids, c.ID)
		}
		return strings.Join(ids, ",")
	}
	if order(plain) == order(traced) {
		t.Error("seeds 1 and 2 ran the cells in the same order")
	}
	if traced.Spans == 0 {
		t.Error("traced run recorded no spans")
	}
	if _, err := os.Stat(filepath.Join(b.build, "spans.json")); err != nil {
		t.Errorf("span file: %v", err)
	}
}

// The traced campaign reports every per-layer metric BENCHMARK.json
// names, and the untraced one every end-to-end metric.
func TestCampaignReportsEveryMetric(t *testing.T) {
	b := newTestBench(t)
	b.vrbench = filepath.Join(b.build, "vrbench")
	if out, err := exec.Command("go", "build", "-o", b.vrbench, "vrsim/cmd/vrbench").CombinedOutput(); err != nil {
		t.Fatalf("build vrbench: %v\n%s", err, out)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	reps, err := b.measure(ctx, "campaign-isolated", 7, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	ref := testRef(t)
	for _, r := range reps {
		checkAgainstReference(t, ref, r)
	}
	if co := reps[1].Campaign; co.PoolStarts == 0 || co.Replayed != 15 || len(co.Pooled) != 15 {
		t.Errorf("campaign: %d pool starts, %d replayed, %d pooled cells", co.PoolStarts, co.Replayed, len(co.Pooled))
	}

	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		trace bool
		reps  []*report
		want  []struct{ Name, Unit string }
	}{{false, reps[:1], spec.EndToEnd}, {true, reps, spec.PerLayer}} {
		var buf bytes.Buffer
		printResult(&buf, ref, "campaign-isolated", 7, tc.reps, tc.trace)
		lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
		var res resultLine
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatal(err)
		}
		if !res.Correct || res.Failed != 0 {
			t.Errorf("trace=%v: result %+v", tc.trace, res)
		}
		var got, want []string
		for name, v := range res.Metrics {
			got = append(got, name+" "+v.Unit)
		}
		for _, m := range tc.want {
			want = append(want, m.Name+" "+m.Unit)
		}
		sort.Strings(got)
		sort.Strings(want)
		if strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Errorf("trace=%v: metrics\n%s\nwant\n%s", tc.trace, strings.Join(got, "\n"), strings.Join(want, "\n"))
		}
	}
}

func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct{ n, p int }{{108, 90}, {60, 83}, {24, 58}, {11, 9}, {10, 100}} {
		xs := make([]float64, tc.n)
		for i := range xs {
			xs[i] = float64(tc.n - i) // descending: the function must sort
		}
		v, p := tailPercentile(xs)
		want := float64(tc.n) // p100: the largest sample
		if tc.p < 100 {
			want = float64(tc.p) / 100 * float64(tc.n+1) // Harrell-Davis on 1..n
		}
		if p != tc.p || math.Abs(v-want) > 0.5 {
			t.Errorf("n=%d: p%d value %v, want p%d value near %v", tc.n, p, v, tc.p, want)
		}
	}
}

// A repetition on a host half as fast as the reference reports its
// times halved; one that took no samples is left as measured.
func TestHostScale(t *testing.T) {
	if k := hostScale([]float64{2 * refSampleS, 3 * refSampleS, refSampleS}); math.Abs(k-0.5) > 1e-12 {
		t.Errorf("scale %v, want 0.5", k)
	}
	if k := hostScale(nil); k != 1 {
		t.Errorf("no samples: scale %v, want 1", k)
	}
}

// hdQuantile's weights, from the continued fraction, match the Beta
// density integrated numerically, and sum to one.
func TestHDQuantile(t *testing.T) {
	xs := []float64{0.9, 0.03, 0.4, 0.41, 0.2, 0.7, 0.05, 0.33, 0.6, 0.12, 0.52, 0.44} // b = (1-p)(n+1) >= 1
	for _, p := range []float64{0.5, 0.58, 0.83, 0.9} {
		n := len(xs)
		a, b := p*float64(n+1), (1-p)*float64(n+1)
		lnB := func() float64 {
			la, _ := math.Lgamma(a)
			lb, _ := math.Lgamma(b)
			lab, _ := math.Lgamma(a + b)
			return la + lb - lab
		}()
		s := append([]float64(nil), xs...)
		sort.Float64s(s)
		const steps = 200000
		var want float64
		for k := 0; k < steps; k++ {
			u := (float64(k) + 0.5) / steps
			i := int(u * float64(n))
			want += s[i] * math.Exp((a-1)*math.Log(u)+(b-1)*math.Log1p(-u)-lnB) / steps
		}
		if got := hdQuantile(xs, p); math.Abs(got-want) > 1e-5 { // the midpoint rule converges slowly at u = 1
			t.Errorf("p=%v: %v, want %v", p, got, want)
		}
		if got := hdQuantile([]float64{3, 3, 3, 3}, p); math.Abs(got-3) > 1e-12 {
			t.Errorf("p=%v: constant samples give %v, want 3", p, got)
		}
	}
	if got := hdQuantile([]float64{5, 1, 4, 2, 3}, 0.5); math.Abs(got-3) > 1e-12 {
		t.Errorf("median of 1..5: %v, want 3", got)
	}
}

func TestSelfTimes(t *testing.T) {
	tr := &tracer{on: true, spans: []span{
		{ID: 1, Name: "setup", Start: 0, End: 10},
		{ID: 2, Parent: 1, Name: "workloads.ByName", Start: 1, End: 4},
		{ID: 3, Parent: 1, Name: "Workload.Fresh", Start: 4, End: 6},
		{ID: 4, Name: "campaign", Start: 10, End: 20},
		{ID: 5, Parent: 4, Name: "harness.ExpF7Performance", Start: 10, End: 19},
	}}
	self := tr.selfTimes()
	want := map[string]float64{"bench": 6, "workloads": 5, "sweep": 9}
	for _, l := range layers {
		if self[l] != want[l] {
			t.Errorf("self_s.%s = %v, want %v", l, self[l], want[l])
		}
	}
}

// The latency watcher must see each record once it is whole, even when
// the poller catches it half written, while progress notes arrive from
// other goroutines.
func TestCellLatency(t *testing.T) {
	path := filepath.Join(t.TempDir(), "f7.journal")
	if err := os.WriteFile(path, []byte(`{"Journal":"vrsim-campaign-journal"}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	lat, err := watchCells(path)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	for i := 0; i < 2; i++ {
		go func(i int) {
			lat.progress("[F7#00" + string(rune('0'+i)) + "] running camel/ooo")
			done <- struct{}{}
		}(i)
	}
	<-done
	<-done
	lat.progress("[F7#002] replaying camel/vr from journal")
	for _, part := range []string{`{"Exp":"F7","Ind`, `ex":1}` + "\n" + `{"Exp":"F7","Index":0}` + "\n"} {
		if _, err := f.WriteString(part); err != nil {
			t.Fatal(err)
		}
		time.Sleep(5 * pollEvery)
	}
	lat.stop()
	for idx, want := range map[int]bool{0: true, 1: true, 2: false} {
		if d, ok := lat.latency(idx); ok != want || (ok && d <= 0) {
			t.Errorf("cell %d: latency %v, seen %v, want seen %v", idx, d, ok, want)
		}
	}
}
