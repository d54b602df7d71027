package main

import (
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"vrsim/internal/harness"
)

// The committed simulated-statistics reference: every cell's Result at
// the benchmark's budget, and the campaign's F7 table rendered in-process
// (Options.Pool nil). A simulator-only change leaves both identical; a
// model change regenerates them with -regen, and their diff is the
// reviewed record of what the change did to the simulated machine.
var (
	//go:embed testdata/reference.json
	referenceJSON []byte
	//go:embed testdata/f7.json
	referenceF7 string
)

type refWorkload struct {
	Budget uint64
	Cells  map[string]harness.Result
}

// reference maps a workload to its cells' canonical Result encodings.
type reference struct {
	budget map[string]uint64
	cells  map[string]map[string][]byte
	f7     string
}

func loadReference() (*reference, error) {
	var raw map[string]refWorkload
	if err := json.Unmarshal(referenceJSON, &raw); err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	ref := &reference{budget: map[string]uint64{}, cells: map[string]map[string][]byte{}, f7: referenceF7}
	for name, rw := range raw {
		ref.budget[name] = rw.Budget
		ref.cells[name] = map[string][]byte{}
		for id, res := range rw.Cells {
			b, err := json.Marshal(res)
			if err != nil {
				return nil, err
			}
			ref.cells[name][id] = b
		}
	}
	return ref, nil
}

// checker counts operations against the reference for one workload run.
type checker struct {
	ref      *reference
	workload string
	// Attempted and Failed count cells plus F7 renderings.
	Attempted, Failed int
	problems          []string
}

func (c *checker) fail(format string, args ...any) {
	c.Failed++
	if len(c.problems) < 20 {
		c.problems = append(c.problems, fmt.Sprintf(format, args...))
	}
}

// cells checks one phase's outcomes: the full set of the workload's cells,
// each one successful and equal to its reference Result.
func (c *checker) cells(phase string, outs []cellOut) {
	want := c.ref.cells[c.workload]
	if c.ref.budget[c.workload] != budget {
		c.fail("%s: reference budget %d, benchmark budget %d (regenerate the reference)", phase, c.ref.budget[c.workload], budget)
	}
	seen := map[string]bool{}
	for _, o := range outs {
		c.Attempted++
		seen[o.ID] = true
		switch {
		case o.Err != "":
			c.fail("%s %s: %s", phase, o.ID, o.Err)
		case o.Result == nil:
			c.fail("%s %s: no result", phase, o.ID)
		case want[o.ID] == nil:
			c.fail("%s %s: not in the reference", phase, o.ID)
		default:
			got, err := json.Marshal(o.Result)
			if err != nil || !bytes.Equal(got, want[o.ID]) {
				c.fail("%s %s: simulated statistics differ from the reference", phase, o.ID)
			}
		}
	}
	for id := range want {
		if !seen[id] {
			c.Attempted++
			c.fail("%s %s: cell missing", phase, id)
		}
	}
}

// f7 checks one rendered F7 table against the in-process reference.
func (c *checker) f7(phase, got string) {
	c.Attempted++
	if got != c.ref.f7 {
		c.fail("%s: rendered F7 JSON differs from the in-process rendering", phase)
	}
}

// report checks everything a child produced.
func (c *checker) report(r *report) {
	c.cells("cells", r.Cells)
	co := r.Campaign
	if co == nil {
		return
	}
	c.f7("campaign", co.F7)
	c.f7("resume", co.ResumeF7)
	if co.TableErrors != 0 {
		c.fail("campaign: %d ERR or cancelled cells", co.TableErrors)
	}
	if n := len(c.ref.cells[c.workload]); co.Replayed != n {
		c.fail("resume: %d cells replayed, want %d", co.Replayed, n)
	}
	if r.Traced {
		c.cells("pool", co.Pooled)
		c.cells("in-process", co.InProc)
		c.cells("in-process checked", co.Checked)
	}
}

// digest condenses a set of cell outcomes, so two runs' simulated
// statistics compare at a glance.
func digest(outs []cellOut) string {
	lines := make([]string, 0, len(outs))
	for _, o := range outs {
		b, _ := json.Marshal(o.Result)
		lines = append(lines, o.ID+"="+string(b)+o.Err)
	}
	sort.Strings(lines)
	h := sha256.New()
	for _, l := range lines {
		h.Write([]byte(l + "\n"))
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// writeReference stores freshly simulated reference outcomes.
func writeReference(dir string, reps map[string]*report) error {
	raw := map[string]refWorkload{}
	var f7 string
	for name, r := range reps {
		outs := r.Cells
		if r.Campaign != nil {
			f7 = r.Campaign.F7
			if r.Campaign.ResumeF7 != f7 {
				return fmt.Errorf("%s: resumed F7 rendering differs from the campaign's", name)
			}
		}
		rw := refWorkload{Budget: budget, Cells: map[string]harness.Result{}}
		for _, o := range outs {
			if o.Err != "" || o.Result == nil {
				return fmt.Errorf("%s %s: %s", name, o.ID, o.Err)
			}
			rw.Cells[o.ID] = *o.Result
		}
		raw[name] = rw
	}
	data, err := json.MarshalIndent(raw, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "reference.json"), append(data, '\n'), 0o644); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "f7.json"), []byte(f7), 0o644)
}
