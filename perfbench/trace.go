package main

import (
	"encoding/json"
	"os"
	"time"
)

// span is one call into the program, timed from the benchmark's side of
// the public API. Spans live in memory until the process writes them out
// at exit.
type span struct {
	ID     int
	Parent int    // 0 for a phase span that has no caller span
	Name   string // the public call, e.g. "harness.Run"
	Cell   string `json:",omitempty"` // "workload/tech" or an input name
	Start  float64
	End    float64 // seconds since the tracer started
}

// spanLayer assigns each span name to the layer whose self time it adds
// to. Phase spans ("setup", "cells", ...) are the benchmark's own glue.
var spanLayer = map[string]string{
	"setup":                    "bench",
	"cells":                    "bench",
	"campaign":                 "bench",
	"resume":                   "bench",
	"pool-cells":               "bench",
	"inproc-cells":             "bench",
	"workloads.ByName":         "workloads",
	"Workload.Fresh":           "workloads",
	"harness.Run":              "sim",
	"harness.Run(Check)":       "sim_checked",
	"harness.ExpF7Performance": "sweep",
	"harness.NewWorkerPool":    "pool",
	"WorkerPool.Run":           "pool",
	"WorkerPool.Close":         "pool",
	"harness.CreateJournal":    "journal",
	"harness.ResumeJournal":    "journal",
	"Journal.Close":            "journal",
	"Table.String":             "render",
	"json.MarshalIndent":       "render",
}

// layers lists every layer reported as self_s.<layer>, in output order.
var layers = []string{"bench", "workloads", "sim", "sim_checked", "sweep", "pool", "journal", "render"}

// tracer records spans when on; when off every method is a no-op, so the
// untraced run pays one branch per call.
type tracer struct {
	on    bool
	t0    time.Time
	spans []span
}

func newTracer(on bool) *tracer { return &tracer{on: on, t0: time.Now()} }

// begin opens a span and returns its id (0 when tracing is off).
func (t *tracer) begin(name, cell string, parent int) int {
	if !t.on {
		return 0
	}
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Cell: cell,
		Start: time.Since(t.t0).Seconds()})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if id == 0 {
		return
	}
	t.spans[id-1].End = time.Since(t.t0).Seconds()
}

// selfTimes returns each layer's self time: its spans' durations minus
// the time their child spans cover. The benchmark calls the program from
// one goroutine, so sibling spans never overlap and the covered time is
// the sum of the children's durations.
func (t *tracer) selfTimes() map[string]float64 {
	self := make(map[string]float64, len(layers))
	for _, l := range layers {
		self[l] = 0
	}
	covered := make([]float64, len(t.spans)+1)
	for _, s := range t.spans {
		covered[s.Parent] += s.End - s.Start
	}
	for _, s := range t.spans {
		self[spanLayer[s.Name]] += s.End - s.Start - covered[s.ID]
	}
	return self
}

// write stores the spans, stamped with the run's identity and host.
func (t *tracer) write(path string, rep *report) error {
	data, err := json.MarshalIndent(struct {
		Workload string
		Seed     int64
		Host     host
		Spans    []span
	}{rep.Workload, rep.Seed, rep.Host, t.spans}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
