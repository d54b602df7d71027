// Command perfbench is vrsim's benchmark. It drives the simulator from
// outside, through the calls users make (workloads.ByName, Workload.Fresh,
// harness.Run, harness.ExpF7Performance with a worker pool and a journal),
// and reports host-time end-to-end metrics for one workload, scaled to a
// reference host's speed (calib.go), or per-layer metrics from a traced
// run. Every simulated result is checked against the
// committed reference in testdata/.
//
// Each repetition runs in a fresh process, so set-up is measured again
// every time. Run it through run.sh, which builds it and vrbench:
//
//	bash perfbench/run.sh --workload hpcdb-core --seed 1 --seconds 40 --trace 0
//	bash perfbench/run.sh -regen perfbench/testdata   # rewrite the reference
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"time"

	"vrsim/internal/harness"
	"vrsim/internal/mem"
)

func main() {
	if spec := os.Getenv(childEnv); spec != "" {
		os.Exit(childMain(spec))
	}
	os.Exit(run(os.Args[1:], os.Stdout))
}

// bench spawns repetitions as fresh processes of exe.
type bench struct {
	exe     string
	build   string
	vrbench string
}

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
	seed := fs.Int64("seed", 1, "permutes the cell order of hpcdb-core and gap-build; recorded by campaign-isolated")
	seconds := fs.Int("seconds", 40, "measurement length; sets the number of fresh-process repetitions")
	trace := fs.Int("trace", 0, "1: one untraced and one traced repetition, reporting per-layer metrics")
	build := fs.String("build", ".bench_build", "directory for journals and span files")
	vrbench := fs.String("vrbench", "", "vrbench binary for campaign-isolated's worker pool")
	regen := fs.String("regen", "", "simulate every workload once and rewrite the reference in this directory")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	if err := os.MkdirAll(*build, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	b := &bench{exe: exe, build: *build, vrbench: *vrbench}
	if *regen != "" {
		return b.regen(stdout, *regen)
	}
	if _, ok := defs[*workload]; !ok || (*trace != 0 && *trace != 1) || *seconds < 1 {
		fmt.Fprintf(os.Stderr, "perfbench: want --workload {%s} --seed N --seconds N --trace {0|1}\n", strings.Join(workloadNames, "|"))
		return 2
	}
	if *workload == "campaign-isolated" && *vrbench == "" {
		fmt.Fprintln(os.Stderr, "perfbench: campaign-isolated needs -vrbench")
		return 2
	}
	ref, err := loadReference()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	// The whole run, builds excluded, must end within three minutes.
	ctx, cancel := context.WithTimeout(context.Background(), 170*time.Second)
	defer cancel()
	reps, err := b.measure(ctx, *workload, *seed, *seconds, *trace == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	printResult(stdout, ref, *workload, *seed, reps, *trace == 1)
	return 0
}

// measure runs the workload's repetitions one after another, each in a
// fresh process. A traced run is one untraced and one traced repetition.
func (b *bench) measure(ctx context.Context, workload string, seed int64, seconds int, trace bool) ([]*report, error) {
	n := max(2, int(float64(seconds)/defs[workload].repS))
	if trace {
		n = 2
	}
	var reps []*report
	for i := 0; i < n; i++ {
		spec := childSpec{Workload: workload, Seed: seed, BuildDir: b.build, VRBench: b.vrbench, Calibrate: !trace}
		if trace && i == 1 {
			spec.Trace = true
			spec.SpanFile = filepath.Join(b.build, fmt.Sprintf("spans-%s-seed%d.json", workload, seed))
		}
		t0 := time.Now()
		r, err := b.child(ctx, spec)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "perfbench: %s repetition %d of %d (traced=%v): %.1f s\n", workload, i+1, n, spec.Trace, time.Since(t0).Seconds())
		reps = append(reps, r)
	}
	return reps, nil
}

// child runs one spec in a fresh process and decodes its report.
func (b *bench) child(ctx context.Context, spec childSpec) (*report, error) {
	js, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	cmd := exec.CommandContext(ctx, b.exe)
	cmd.Env = append(os.Environ(), childEnv+"="+string(js))
	cmd.Stderr = os.Stderr
	cmd.WaitDelay = 5 * time.Second
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s repetition: %w", spec.Workload, err)
	}
	var r report
	if err := json.Unmarshal(out, &r); err != nil {
		return nil, fmt.Errorf("%s repetition: bad report: %w", spec.Workload, err)
	}
	return &r, nil
}

// regen simulates every workload once, the campaign in-process, and
// rewrites the reference.
func (b *bench) regen(w io.Writer, dir string) int {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	defer cancel()
	reps := map[string]*report{}
	for _, name := range workloadNames {
		r, err := b.child(ctx, childSpec{Workload: name, Seed: 1, Regen: true, BuildDir: b.build})
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 1
		}
		reps[name] = r
	}
	if err := writeReference(dir, reps); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(w, "perfbench: reference rewritten in %s\n", dir)
	return 0
}

// metric is one reported number.
type metric struct {
	name  string
	value float64
	unit  string
	note  string
}

type valueUnit struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the benchmark's machine-readable verdict.
type resultLine struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]valueUnit `json:"metrics"`
}

func printResult(w io.Writer, ref *reference, workload string, seed int64, reps []*report, trace bool) {
	chk := &checker{ref: ref, workload: workload}
	for _, r := range reps {
		chk.report(r)
	}
	var ms []metric
	if trace {
		un, tr := reps[0], reps[1]
		if du, dt := digest(un.Cells), digest(tr.Cells); du != dt {
			chk.fail("traced run's simulated statistics %s differ from the untraced run's %s", dt, du)
		}
		ms = layerMetrics(un, tr)
	} else {
		ms = endToEnd(reps)
	}

	hostJSON, _ := json.Marshal(reps[0].Host)
	fmt.Fprintf(w, "perfbench: workload=%s seed=%d trace=%v repetitions=%d budget=%d\n", workload, seed, trace, len(reps), budget)
	fmt.Fprintf(w, "host: %s\n", hostJSON)
	fmt.Fprintf(w, "reference: %d of %d checks passed; failed_frac=%.4g; simulated-statistics digest %s\n",
		chk.Attempted-chk.Failed, chk.Attempted, float64(chk.Failed)/float64(chk.Attempted), digest(reps[0].Cells))
	for _, p := range chk.problems {
		fmt.Fprintf(w, "  FAIL %s\n", p)
	}
	if trace {
		fmt.Fprintf(w, "spans: %d written to %s\n", reps[1].Spans, reps[1].SpanFile)
	} else {
		var ks []string
		for _, r := range reps {
			ks = append(ks, fmt.Sprintf("%.4f", hostScale(r.CalS)))
		}
		fmt.Fprintf(w, "host scale per repetition (reference kernel %.4g s / median of its runs here): %s\n", refSampleS, strings.Join(ks, " "))
	}
	res := resultLine{Correct: chk.Failed == 0, Attempted: chk.Attempted, Failed: chk.Failed, Metrics: map[string]valueUnit{}}
	for _, m := range ms {
		line := fmt.Sprintf("%-28s %14.6g %s", m.name, m.value, m.unit)
		if m.note != "" {
			line += "  (" + m.note + ")"
		}
		fmt.Fprintln(w, line)
		res.Metrics[m.name] = valueUnit{m.value, m.unit}
	}
	js, _ := json.Marshal(res)
	fmt.Fprintln(w, string(js))
}

// endToEnd computes the user-visible metrics over all repetitions. Host
// times are scaled by each repetition's hostScale into seconds of the
// reference host; the notes give the raw figures.
func endToEnd(reps []*report) []metric {
	var setup, wall, rss, hosts, rawSetup, rawWall, rawHosts []float64
	var cycles, hostSum, rawHostSum float64
	for _, r := range reps {
		k := hostScale(r.CalS)
		setup = append(setup, k*r.SetupS)
		wall = append(wall, k*r.WallS)
		rawSetup = append(rawSetup, r.SetupS)
		rawWall = append(rawWall, r.WallS)
		rss = append(rss, float64(r.PeakRSSKB)*1024/1e6)
		for _, c := range r.Cells {
			hosts = append(hosts, k*c.HostS)
			rawHosts = append(rawHosts, c.HostS)
			hostSum += k * c.HostS
			rawHostSum += c.HostS
			if c.Result != nil {
				cycles += float64(c.Result.Cycles)
			}
		}
	}
	n := len(reps)
	tail, pct := tailPercentile(hosts)
	rawTail, _ := tailPercentile(rawHosts)
	return []metric{
		{"setup_s", median(setup), "s", fmt.Sprintf("median of %d fresh processes; raw %.4g s", n, median(rawSetup))},
		{"wall_s", median(wall), "s", fmt.Sprintf("median of %d; raw %.4g s", n, median(rawWall))},
		{"sim_mcycles_per_s", cycles / hostSum / 1e6, "Mcycles/s", fmt.Sprintf("%.0f ROI cycles over %.3f s of cell host time; raw %.4g", cycles, hostSum, cycles/rawHostSum/1e6)},
		{"cell_p50_s", hdQuantile(hosts, 0.5), "s", fmt.Sprintf("Harrell-Davis p50 of %d cells; raw %.4g s", len(hosts), hdQuantile(rawHosts, 0.5))},
		{"cell_tail_s", tail, "s", fmt.Sprintf("Harrell-Davis p%d of %d cells; raw %.4g s", pct, len(hosts), rawTail)},
		{"peak_rss_mb", median(rss), "MB", fmt.Sprintf("median of %d; own process plus largest worker", n)},
	}
}

// tailPercentile picks the highest whole percentile that leaves at
// least ten samples beyond its nearest rank, and returns its
// Harrell-Davis estimate and that percentile.
func tailPercentile(xs []float64) (float64, int) {
	n := len(xs)
	if n <= 10 {
		return slices.Max(xs), 100
	}
	p := 100 * (n - 10) / n
	return hdQuantile(xs, float64(p)/100), p
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// layerMetrics computes the per-layer metrics of the traced repetition
// tr; un is the untraced repetition run just before it.
// Simulated counts are summed over the workload's cells.
func layerMetrics(un, tr *report) []metric {
	sims := tr.Cells // the timed harness.Run calls
	co := tr.Campaign
	if co == nil {
		co = &campaignOut{}
	} else {
		sims = co.InProc // the campaign's cells, in-process and unchecked
	}
	var s struct {
		host, alloc, cycles, instrs, fetched, squashed, robFull, stallLoad, mispred, mlp float64
		loads                                                                            [mem.NumLevels]float64
		offchip, pfIssued, pfDropped, raUseful, raIssued                                 float64
		vrAct, vrGather, vrUops, vrMasked, vrDelayed, preInstrs                          float64
	}
	byTech := map[harness.Technique]float64{}
	for _, c := range sims {
		r := c.Result
		if r == nil {
			continue
		}
		cyc, ins := float64(r.Cycles), float64(r.Instrs)
		byTech[r.Tech] += c.HostS
		s.host += c.HostS
		s.alloc += float64(c.AllocB)
		s.cycles += cyc
		s.instrs += ins
		s.fetched += float64(r.Fetched)
		s.squashed += float64(r.Squashed)
		s.robFull += r.ROBFullFrac * cyc
		s.stallLoad += r.StallLoadFrac * cyc
		s.mispred += r.MispredictRate * ins
		s.mlp += r.MLP * cyc
		for l := range s.loads {
			s.loads[l] += float64(r.DemandLoadsByLevel[l])
		}
		s.offchip += float64(r.OffChipTotal)
		for _, n := range r.PrefetchIssued {
			s.pfIssued += float64(n)
		}
		s.pfDropped += float64(r.PrefetchDropped)
		s.raUseful += float64(r.RunaheadUseful)
		s.raIssued += float64(r.RunaheadIssued)
		s.vrAct += float64(r.VRStats.Activations)
		s.vrGather += float64(r.VRStats.GatherLoads)
		s.vrUops += float64(r.VRStats.VectorUops)
		s.vrMasked += float64(r.VRStats.LanesMasked)
		s.vrDelayed += float64(r.VRStats.DelayedCycles)
		s.preInstrs += float64(r.PREStats.Instrs)
	}
	var unchecked, checked, pooled float64
	for i := range co.Checked {
		unchecked += co.InProc[i].HostS
		checked += co.Checked[i].HostS
	}
	for _, c := range co.Pooled {
		pooled += c.HostS
	}
	ms := []metric{
		{"workloads.build_s", tr.BuildS, "s", "workloads.ByName"},
		{"workloads.init_s", tr.InitS, "s", "first Workload.Fresh"},
		{"workloads.alloc_mb", float64(tr.SetupAllocB) / 1e6, "MB", "allocated during set-up"},
	}
	for _, t := range []harness.Technique{harness.TechOoO, harness.TechPRE, harness.TechIMP, harness.TechVR, harness.TechOracle, harness.TechRA} {
		ms = append(ms, metric{"sim.host_s." + string(t), byTech[t], "s", ""})
	}
	ms = append(ms,
		metric{"sim.ns_per_cycle", ratio(s.host*1e9, s.cycles), "ns", "harness.Run host time per ROI cycle"},
		metric{"sim.cycles", s.cycles, "count", "simulated ROI cycles"},
		metric{"sim.instrs", s.instrs, "count", "simulated committed instructions"},
		metric{"sim.alloc_mb", s.alloc / 1e6, "MB", "allocated inside harness.Run"},
		metric{"cpu.fetched", s.fetched, "count", ""},
		metric{"cpu.squashed", s.squashed, "count", ""},
		metric{"cpu.useful_fetch_frac", ratio(s.instrs, s.fetched), "frac", "committed / fetched"},
		metric{"cpu.rob_full_frac", ratio(s.robFull, s.cycles), "frac", "cycle-weighted"},
		metric{"cpu.stall_load_frac", ratio(s.stallLoad, s.cycles), "frac", "cycle-weighted"},
		metric{"cpu.mispredict_rate", ratio(s.mispred, s.instrs), "frac", "instruction-weighted"},
		metric{"mem.loads_l1", s.loads[mem.AtL1], "count", "demand loads served by L1"},
		metric{"mem.loads_l2", s.loads[mem.AtL2], "count", ""},
		metric{"mem.loads_l3", s.loads[mem.AtL3], "count", ""},
		metric{"mem.loads_dram", s.loads[mem.AtMem], "count", ""},
		metric{"mem.offchip_total", s.offchip, "count", "DRAM line fetches"},
		metric{"mem.prefetch_issued", s.pfIssued, "count", "all sources"},
		metric{"mem.prefetch_dropped", s.pfDropped, "count", "no MSHR free"},
		metric{"mem.mlp", ratio(s.mlp, s.cycles), "count", "outstanding L1-D misses per cycle, cycle-weighted"},
		metric{"core.vr_activations", s.vrAct, "count", ""},
		metric{"core.vr_gather_loads", s.vrGather, "count", ""},
		metric{"core.vr_vector_uops", s.vrUops, "count", ""},
		metric{"core.vr_lanes_masked", s.vrMasked, "count", ""},
		metric{"core.vr_delayed_cycles", s.vrDelayed, "count", ""},
		metric{"core.pre_instrs", s.preInstrs, "count", ""},
		metric{"core.runahead_useful_frac", ratio(s.raUseful, s.raIssued), "frac", "RunaheadUseful / RunaheadIssued"},
		metric{"oracle.host_s", checked - unchecked, "s", "checked minus unchecked harness.Run, campaign cells"},
		metric{"oracle.overhead_frac", ratio(checked-unchecked, unchecked), "frac", ""},
		metric{"harness.ipc_overhead_s", pooled - checked, "s", "WorkerPool.Run minus in-process harness.Run, same cells"},
		metric{"harness.pool_starts", float64(co.PoolStarts), "count", ""},
		metric{"harness.pool_crashes", float64(co.PoolCrashes), "count", ""},
		metric{"harness.journal_bytes", float64(co.JournalBytes), "bytes", ""},
		metric{"harness.journal_records", float64(co.JournalRecords), "count", ""},
		metric{"harness.resume_replayed", float64(co.Replayed), "count", ""},
		metric{"harness.render_s", co.RenderS, "s", "Table.String + json.MarshalIndent, both phases"},
		metric{"harness.resume_s", co.ResumeS, "s", "journal-replay phase"},
		metric{"trace.overhead_s", tr.WallS - un.WallS, "s", fmt.Sprintf("traced wall_s %.4g minus untraced %.4g", tr.WallS, un.WallS)},
		metric{"trace.spans", float64(tr.Spans), "count", ""},
	)
	for _, l := range layers {
		ms = append(ms, metric{"self_s." + l, tr.SelfS[l], "s", "span time not covered by child spans"})
	}
	return ms
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
