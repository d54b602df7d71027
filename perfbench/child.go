package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"vrsim/internal/harness"
	"vrsim/internal/workloads"
)

// budget is every cell's instruction budget (harness MaxBudget). The
// committed reference holds the results at this budget.
const budget = 100_000

// workloadDef is one benchmark workload: which registry inputs it builds
// and which cells it simulates over them.
type workloadDef struct {
	inputs []string
	techs  []harness.Technique
	// campaign runs the cells as an F7 campaign through a worker pool
	// instead of one harness.Run call at a time.
	campaign bool
	// repS is the host time one repetition takes on a 2-core Xeon
	// (go1.24), host-speed samples included; it turns --seconds into a
	// fixed repetition count, so the set of samples a run reports never
	// depends on timing noise.
	repS float64
}

// f7Techs is ExpF7Performance's cell order within a workload.
var f7Techs = []harness.Technique{harness.TechOoO, harness.TechPRE, harness.TechIMP, harness.TechVR, harness.TechOracle}

var defs = map[string]workloadDef{
	// Cycle core, memory hierarchy and runahead engines: no graphs, so
	// set-up is image initialisation only.
	"hpcdb-core": {
		inputs: []string{"camel", "hj2", "hj8", "kangaroo", "nas-is", "randomaccess"},
		techs:  append(append([]harness.Technique{}, f7Techs...), harness.TechRA),
		repS:   14,
	},
	// Graph synthesis and CSR construction dominate; bfs is squash-heavy.
	"gap-build": {
		inputs: []string{"bfs_kr", "bfs_ur", "pr_kr", "pr_ur", "cc_kr", "cc_ur"},
		techs:  []harness.Technique{harness.TechOoO, harness.TechVR},
		repS:   19.5,
	},
	// The vrbench -isolate=process -check -checkpoint user path.
	"campaign-isolated": {
		inputs:   []string{"camel", "hj8", "bfs_ur"},
		techs:    f7Techs,
		campaign: true,
		repS:     7.5,
	},
}

// workloadNames is the workloads' reporting order.
var workloadNames = []string{"hpcdb-core", "gap-build", "campaign-isolated"}

// childEnv carries a childSpec to a fresh benchmark process.
const childEnv = "PERFBENCH_CHILD"

// childSpec is one repetition of one workload, run in a process of its
// own: workloads.ByName and Workload.Fresh memoize process-wide, so only
// a new process measures set-up again.
type childSpec struct {
	Workload string
	Seed     int64
	Trace    bool
	// Regen runs the campaign in-process (Options.Pool nil) to produce
	// the reference instead of measuring the worker pool.
	Regen    bool
	BuildDir string // journals and span files go here
	VRBench  string // vrbench binary the worker pool starts with -worker
	SpanFile string // traced runs write their spans here
	// Calibrate times the host-speed kernel (calib.go) at the start, after
	// set-up, before every in-process cell, between campaign phases and
	// at the end. Traced runs leave it off.
	Calibrate bool
}

// cellOut is one cell's outcome.
type cellOut struct {
	ID     string          // "workload/tech"
	HostS  float64         `json:",omitempty"` // host time of the call
	AllocB uint64          `json:",omitempty"` // bytes allocated by the call (traced runs)
	Result *harness.Result `json:",omitempty"`
	Err    string          `json:",omitempty"`
}

// campaignOut is what the campaign phases leave behind.
type campaignOut struct {
	F7, ResumeF7   string // rendered F7 JSON of each phase
	TableErrors    int    // Errors plus Cancelled over both phases
	RenderS        float64
	ResumeS        float64
	JournalBytes   int64
	JournalRecords int
	Replayed       int
	PoolStarts     int
	PoolCrashes    int
	// Traced runs only: the campaign's cells one at a time through the
	// pool, and in-process unchecked and checked, for the worker-IPC and
	// oracle overheads.
	Pooled  []cellOut
	InProc  []cellOut
	Checked []cellOut
}

// report is a child's answer to its spec.
type report struct {
	Workload    string
	Seed        int64
	Traced      bool
	Host        host
	SetupS      float64 // ByName + first Fresh of every input
	BuildS      float64 // ByName share of SetupS
	InitS       float64 // Fresh share of SetupS
	SetupAllocB uint64  // traced runs
	WallS       float64 // the timed phase
	Cells       []cellOut
	Campaign    *campaignOut `json:",omitempty"`
	PeakRSSKB   int64
	CalS        []float64          `json:",omitempty"` // host-speed kernel times
	SelfS       map[string]float64 `json:",omitempty"`
	Spans       int
	SpanFile    string `json:",omitempty"`
}

// host identifies the machine a number was measured on: ns/op does not
// transfer between hosts.
type host struct {
	CPU        string
	NProc      int
	GOMAXPROCS int
	Go         string
}

func hostInfo() host {
	h := host{CPU: "unknown", NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version()}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

// childMain runs the spec in the environment and prints the report as
// one JSON line on stdout.
func childMain(specJSON string) int {
	var spec childSpec
	if err := json.Unmarshal([]byte(specJSON), &spec); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench child: bad spec: %v\n", err)
		return 2
	}
	rep, err := runChild(spec)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench child: %s: %v\n", spec.Workload, err)
		return 1
	}
	if err := json.NewEncoder(os.Stdout).Encode(rep); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench child: %v\n", err)
		return 1
	}
	return 0
}

func runChild(spec childSpec) (*report, error) {
	def, ok := defs[spec.Workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", spec.Workload)
	}
	tr := newTracer(spec.Trace)
	rep := &report{Workload: spec.Workload, Seed: spec.Seed, Traced: spec.Trace, Host: hostInfo()}
	cal := &calibrator{on: spec.Calibrate}
	cal.block()
	ws, err := setup(def.inputs, tr, rep)
	if err != nil {
		return nil, err
	}
	cal.block()
	if def.campaign {
		err = runCampaign(spec, def, ws, tr, rep, cal)
	} else {
		runCells(def, ws, spec.Seed, tr, rep, cal)
	}
	if err != nil {
		return nil, err
	}
	cal.block()
	rep.CalS = cal.samples
	rep.PeakRSSKB = peakRSSKB()
	if spec.Trace {
		rep.SelfS = tr.selfTimes()
		rep.Spans, rep.SpanFile = len(tr.spans), spec.SpanFile
		if err := tr.write(spec.SpanFile, rep); err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
	}
	return rep, nil
}

// setup constructs every input the way a campaign does: workloads.ByName,
// then the first Fresh, which runs the image initialiser.
func setup(names []string, tr *tracer, rep *report) (map[string]*workloads.Workload, error) {
	var ms0 runtime.MemStats
	if tr.on {
		runtime.ReadMemStats(&ms0)
	}
	root := tr.begin("setup", "", 0)
	start := time.Now()
	ws := make(map[string]*workloads.Workload, len(names))
	for _, n := range names {
		t0 := time.Now()
		sp := tr.begin("workloads.ByName", n, root)
		w, err := workloads.ByName(n)
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		t1 := time.Now()
		sp = tr.begin("Workload.Fresh", n, root)
		w.Fresh()
		tr.end(sp)
		rep.BuildS += t1.Sub(t0).Seconds()
		rep.InitS += time.Since(t1).Seconds()
		ws[n] = w
	}
	rep.SetupS = time.Since(start).Seconds()
	tr.end(root)
	if tr.on {
		var ms1 runtime.MemStats
		runtime.ReadMemStats(&ms1)
		rep.SetupAllocB = ms1.TotalAlloc - ms0.TotalAlloc
	}
	return ws, nil
}

type cellKey struct {
	w    *workloads.Workload
	tech harness.Technique
}

func (c cellKey) id() string { return c.w.Name + "/" + string(c.tech) }

// cellKeys lists the workload's cells in declaration order: inputs
// outer, techniques inner, as ExpF7Performance declares them.
func cellKeys(def workloadDef, ws map[string]*workloads.Workload) []cellKey {
	var cells []cellKey
	for _, n := range def.inputs {
		for _, tech := range def.techs {
			cells = append(cells, cellKey{ws[n], tech})
		}
	}
	return cells
}

// runCells is the timed phase of the in-process workloads: every cell
// once, one at a time, in an order the seed permutes.
func runCells(def workloadDef, ws map[string]*workloads.Workload, seed int64, tr *tracer, rep *report, cal *calibrator) {
	cells := cellKeys(def, ws)
	rand.New(rand.NewSource(seed)).Shuffle(len(cells), func(i, j int) { cells[i], cells[j] = cells[j], cells[i] })
	root := tr.begin("cells", "", 0)
	start := time.Now()
	var calS float64
	for _, c := range cells {
		calS += cal.sample()
		rep.Cells = append(rep.Cells, runInProc(tr, root, c, false))
	}
	rep.WallS = time.Since(start).Seconds() - calS
	tr.end(root)
}

func runConfig(tech harness.Technique, check bool) harness.RunConfig {
	rc := harness.DefaultRunConfig(tech)
	rc.MaxBudget = budget
	rc.Check = check
	return rc
}

// runInProc times one harness.Run call.
func runInProc(tr *tracer, parent int, c cellKey, check bool) cellOut {
	name := "harness.Run"
	if check {
		name = "harness.Run(Check)"
	}
	var ms0 runtime.MemStats
	if tr.on {
		runtime.ReadMemStats(&ms0)
	}
	sp := tr.begin(name, c.id(), parent)
	t0 := time.Now()
	res, err := harness.Run(c.w, runConfig(c.tech, check))
	out := cellOut{ID: c.id(), HostS: time.Since(t0).Seconds()}
	tr.end(sp)
	if tr.on {
		var ms1 runtime.MemStats
		runtime.ReadMemStats(&ms1)
		out.AllocB = ms1.TotalAlloc - ms0.TotalAlloc
	}
	return withOutcome(out, res, err)
}

func withOutcome(out cellOut, res harness.Result, err error) cellOut {
	if err != nil {
		out.Err = err.Error()
	} else {
		out.Result = &res
	}
	return out
}

// runCampaign is the campaign-isolated workload: an F7 campaign through
// a worker pool with the oracle on and a fresh journal (the timed phase),
// then the same campaign resumed from that journal so every cell replays.
func runCampaign(spec childSpec, def workloadDef, ws map[string]*workloads.Workload, tr *tracer, rep *report, cal *calibrator) error {
	co := &campaignOut{}
	rep.Campaign = co
	dir, err := os.MkdirTemp(spec.BuildDir, "campaign-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "f7.journal")
	opt := harness.Options{Workloads: def.inputs, MaxBudget: budget, Parallel: 2, Check: true}
	fp := opt.Fingerprint([]string{"f7"})

	// Phase 1: the campaign.
	root := tr.begin("campaign", "", 0)
	start := time.Now()
	pool, err := newPool(spec, tr, root)
	if err != nil {
		return err
	}
	if pool != nil {
		defer pool.Close() // error paths; Close is idempotent
	}
	sp := tr.begin("harness.CreateJournal", "", root)
	j, err := harness.CreateJournal(path, fp)
	tr.end(sp)
	if err != nil {
		return err
	}
	lat, err := watchCells(path)
	if err != nil {
		return err
	}
	opt.Pool, opt.Journal, opt.Progress = pool, j, lat.progress
	co.F7, err = campaignPhase(opt, tr, root, co)
	lat.stop()
	if err != nil {
		return err
	}
	rep.WallS = time.Since(start).Seconds()
	tr.end(root)
	if rep.Cells, err = readJournal(path, lat, co); err != nil {
		return err
	}

	cal.block()

	// Phase 2: resume; every cell replays from the journal.
	root = tr.begin("resume", "", 0)
	start = time.Now()
	pool2, err := newPool(spec, tr, root)
	if err != nil {
		return err
	}
	sp = tr.begin("harness.ResumeJournal", "", root)
	j2, err := harness.ResumeJournal(path, fp)
	tr.end(sp)
	if err != nil {
		closePool(pool2, tr, root)
		return err
	}
	co.Replayed = j2.Replayed()
	opt.Pool, opt.Journal, opt.Progress = pool2, j2, nil
	co.ResumeF7, err = campaignPhase(opt, tr, root, co)
	closePool(pool2, tr, root)
	if err != nil {
		return err
	}
	co.ResumeS = time.Since(start).Seconds()
	tr.end(root)
	co.addStats(pool2)
	if !spec.Trace {
		closePool(pool, tr, 0)
		co.addStats(pool)
		return nil
	}

	// Traced runs: each campaign cell alone through the (warm) pool, with
	// the spec the sweep engine sends for it, then in-process unchecked
	// and checked: the worker IPC's cost and the oracle's.
	cells := cellKeys(def, ws)
	root = tr.begin("pool-cells", "", 0)
	for _, c := range cells {
		sp := tr.begin("WorkerPool.Run", c.id(), root)
		t0 := time.Now()
		res, err := pool.Run(context.Background(), c.w, runConfig(c.tech, true))
		out := cellOut{ID: c.id(), HostS: time.Since(t0).Seconds()}
		tr.end(sp)
		co.Pooled = append(co.Pooled, withOutcome(out, res, err))
	}
	tr.end(root)
	closePool(pool, tr, 0)
	co.addStats(pool)
	root = tr.begin("inproc-cells", "", 0)
	for _, c := range cells {
		co.InProc = append(co.InProc, runInProc(tr, root, c, false))
		co.Checked = append(co.Checked, runInProc(tr, root, c, true))
	}
	tr.end(root)
	return nil
}

func (co *campaignOut) addStats(p *harness.WorkerPool) {
	if p != nil {
		st := p.Stats()
		co.PoolStarts += st.Starts
		co.PoolCrashes += st.Crashes
	}
}

// newPool starts a worker pool of two vrbench -worker processes; nil
// when regenerating the reference, which renders in-process.
func newPool(spec childSpec, tr *tracer, parent int) (*harness.WorkerPool, error) {
	if spec.Regen {
		return nil, nil
	}
	sp := tr.begin("harness.NewWorkerPool", "", parent)
	defer tr.end(sp)
	return harness.NewWorkerPool(harness.PoolConfig{
		Command: []string{spec.VRBench, "-worker"},
		Workers: 2,
		Log:     func(msg string) { fmt.Fprintf(os.Stderr, "perfbench: pool: %s\n", msg) },
	})
}

func closePool(p *harness.WorkerPool, tr *tracer, parent int) {
	if p == nil {
		return
	}
	sp := tr.begin("WorkerPool.Close", "", parent)
	p.Close()
	tr.end(sp)
}

// campaignPhase runs ExpF7Performance, renders the table as text and as
// JSON the way vrbench does, and closes the journal.
func campaignPhase(opt harness.Options, tr *tracer, parent int, co *campaignOut) (string, error) {
	sp := tr.begin("harness.ExpF7Performance", "", parent)
	tbl, _, err := harness.ExpF7Performance(opt)
	tr.end(sp)
	if err != nil {
		return "", err
	}
	t0 := time.Now()
	sp = tr.begin("Table.String", "", parent)
	_ = tbl.String()
	tr.end(sp)
	sp = tr.begin("json.MarshalIndent", "", parent)
	js, err := json.MarshalIndent(tbl, "", "  ")
	tr.end(sp)
	co.RenderS += time.Since(t0).Seconds()
	if err != nil {
		return "", err
	}
	co.TableErrors += len(tbl.Errors) + tbl.Cancelled
	for _, e := range tbl.Errors {
		fmt.Fprintf(os.Stderr, "perfbench: campaign cell failed: %s\n", e)
	}
	sp = tr.begin("Journal.Close", "", parent)
	err = opt.Journal.Close()
	tr.end(sp)
	return string(js) + "\n", err
}

// readJournal reads the phase-1 journal back: its size, and each cell's
// Result and latency in declaration order.
func readJournal(path string, lat *cellLatency, co *campaignOut) ([]cellOut, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	co.JournalBytes = int64(len(data))
	lines := bytes.Split(bytes.TrimSpace(data), []byte{'\n'})
	var recs []harness.Record
	for _, l := range lines[1:] { // line 0 is the header
		var r harness.Record
		if err := json.Unmarshal(l, &r); err != nil {
			return nil, fmt.Errorf("journal record: %w", err)
		}
		recs = append(recs, r)
	}
	co.JournalRecords = len(recs)
	sort.Slice(recs, func(a, b int) bool { return recs[a].Index < recs[b].Index })
	var outs []cellOut
	for _, r := range recs {
		d, ok := lat.latency(r.Index)
		if !ok {
			return nil, fmt.Errorf("campaign cell %d (%s/%s): no start note or journal record seen", r.Index, r.Workload, r.Tech)
		}
		outs = append(outs, cellOut{ID: r.Workload + "/" + r.Tech, HostS: d, Result: r.Result, Err: r.Err})
	}
	return outs, nil
}

// cellLatency times each campaign cell from outside the sweep: from its
// "[F7#NNN] running" progress note to the moment its record appears in
// the journal, which the sweep appends as the cell completes. A poller
// reads the journal's new bytes every pollEvery.
type cellLatency struct {
	mu    sync.Mutex
	start map[int]time.Time // guarded by mu
	end   map[int]time.Time // written by the poller only
	stopc chan struct{}
	done  chan struct{}
}

// pollEvery bounds how late a cell's completion is seen; the shortest
// cells take tens of milliseconds.
const pollEvery = 2 * time.Millisecond

func watchCells(path string) (*cellLatency, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	l := &cellLatency{start: map[int]time.Time{}, end: map[int]time.Time{},
		stopc: make(chan struct{}), done: make(chan struct{})}
	go l.poll(f)
	return l, nil
}

// progress is the campaign's Options.Progress callback.
func (l *cellLatency) progress(msg string) {
	var idx int
	if _, err := fmt.Sscanf(msg, "[F7#%d] running", &idx); err == nil {
		l.mu.Lock()
		l.start[idx] = time.Now()
		l.mu.Unlock()
	}
}

func (l *cellLatency) poll(f *os.File) {
	defer close(l.done)
	defer f.Close()
	tick := time.NewTicker(pollEvery)
	defer tick.Stop()
	var pending []byte
	chunk := make([]byte, 64<<10)
	for {
		stopping := false
		select {
		case <-l.stopc:
			stopping = true
		case <-tick.C:
		}
		now := time.Now()
		for {
			n, _ := f.Read(chunk)
			if n == 0 {
				break
			}
			pending = append(pending, chunk[:n]...)
		}
		for {
			i := bytes.IndexByte(pending, '\n')
			if i < 0 {
				break
			}
			var rec struct {
				Exp   string
				Index int
			}
			if json.Unmarshal(pending[:i], &rec) == nil && rec.Exp != "" {
				l.end[rec.Index] = now
			}
			pending = pending[i+1:]
		}
		if stopping {
			return
		}
	}
}

// stop reads the journal one last time and ends the poller.
func (l *cellLatency) stop() {
	close(l.stopc)
	<-l.done
}

// latency returns cell idx's latency; valid after stop.
func (l *cellLatency) latency(idx int) (float64, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	s, ok1 := l.start[idx]
	e, ok2 := l.end[idx]
	return e.Sub(s).Seconds(), ok1 && ok2
}

// peakRSSKB is this process's peak resident set plus its largest waited-
// for child's (the campaign's workers), in KiB.
func peakRSSKB() int64 {
	var self, kids syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &self)
	_ = syscall.Getrusage(syscall.RUSAGE_CHILDREN, &kids)
	return self.Maxrss + kids.Maxrss
}
