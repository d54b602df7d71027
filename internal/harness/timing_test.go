// Timing goldens: the full Result of every small workload under every
// technique, pinned as testdata fixtures. The golden retired traces pin
// *what* commits; these pin *when* — every cycle count, stall fraction,
// cache and engine counter. A change to the timing model therefore shows
// up as a reviewed fixture diff rather than a hand-run comparison against
// an older binary. Each cell also runs with Check on, which must leave the
// Result unchanged (checking is strictly observational). Regenerate
// intentionally with:
//
//	go test ./internal/harness -run TestTimingGoldens -update-timing

package harness

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateTiming = flag.Bool("update-timing", false, "rewrite the timing golden fixtures")

// timingBudget is the per-cell ROI instruction budget of the timing
// goldens: long enough to cover stalls, squashes and runahead episodes,
// short enough that all 108 cells run in seconds.
const timingBudget = 50_000

// TestTimingGoldens compares each workload's Results (one per technique,
// in checkedTechniques order) byte-for-byte against its fixture.
func TestTimingGoldens(t *testing.T) {
	for _, w := range smallWorkloads() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			var results []Result
			for _, tech := range checkedTechniques() {
				rc := DefaultRunConfig(tech)
				rc.MaxBudget = timingBudget
				res, err := Run(w, rc)
				if err != nil {
					t.Fatalf("%s: %v", tech, err)
				}
				rc.Check = true
				checked, err := Run(w, rc)
				if err != nil {
					t.Fatalf("%s checked: %v", tech, err)
				}
				if checked != res {
					t.Errorf("%s: Check changed the Result\nunchecked: %+v\nchecked:   %+v", tech, res, checked)
				}
				results = append(results, res)
			}
			got, err := json.MarshalIndent(results, "", "\t")
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, '\n')
			path := filepath.Join("testdata", "timing", w.Name+".json")
			if *updateTiming {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing fixture (run with -update-timing to create): %v", err)
			}
			if !bytes.Equal(want, got) {
				t.Errorf("timing diverged from the golden fixture %s\nwant:\n%s\ngot:\n%s", path, want, got)
			}
		})
	}
}
