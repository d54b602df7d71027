// Command vrtrace steps a simulation cycle by cycle and prints a compact
// pipeline trace: reorder-buffer occupancy, commit progress, stall causes
// and runahead-engine activity. Useful for seeing Vector Runahead's
// trigger/vectorize/terminate rhythm against the main thread's stalls. The
// simulation is assembled by harness.Trace, the same path that produces
// vrbench's numbers, so every technique can be traced.
//
// Usage:
//
//	vrtrace -workload camel -tech vr -cycles 2000 -every 10
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"vrsim/internal/harness"
	"vrsim/internal/workloads"
)

func main() {
	var (
		workload = flag.String("workload", "camel", "workload name")
		tech     = flag.String("tech", "vr", "technique: ooo|pre|imp|vr|oracle|ra")
		cycles   = flag.Uint64("cycles", 2000, "cycles to trace (after warmup)")
		warmup   = flag.Uint64("warmup", 50_000, "instructions to run before tracing")
		every    = flag.Uint64("every", 10, "print one line every N cycles")
		disasm   = flag.Bool("disasm", false, "print the kernel's disassembly and exit")
	)
	flag.Parse()

	w, err := workloads.ByName(*workload)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if *disasm {
		fmt.Print(workloads.Disasm(w))
		return
	}

	fmt.Println("cycle     committed  ROB  rob-bar                 mlp  state")
	rc := harness.DefaultRunConfig(harness.Technique(*tech))
	sum, err := harness.Trace(w, rc, *warmup, *cycles, *every, func(start, s *harness.Snapshot) {
		state := "main"
		if strings.HasSuffix(s.EngineMode, ":runahead") {
			state = strings.Replace(s.EngineMode, ":", "-", 1)
		}
		if s.WindowStall {
			state += " +window-stall"
		}
		bar := strings.Repeat("#", s.ROB*20/s.ROBCap)
		fmt.Printf("%-9d %-10d %-4d %-22s %-4d %s\n",
			s.Cycle-start.Cycle, s.Committed-start.Committed, s.ROB, bar, s.MSHR, state)
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	traced, committed := sum.End.Cycle-sum.Start.Cycle, sum.End.Committed-sum.Start.Committed
	fmt.Printf("\n%d cycles traced, %d instructions committed (IPC %.3f)\n",
		traced, committed, float64(committed)/float64(traced))
	names := []string{"none", "int-alu", "int-mul", "int-div", "fp-add", "fp-mul", "fp-div", "mem", "branch"}
	fmt.Printf("issued by port:")
	for fu, n := range sum.Stats.FUIssued {
		if n > 0 && fu < len(names) {
			fmt.Printf(" %s=%d", names[fu], n)
		}
	}
	fmt.Println()
	if rc.Tech == harness.TechVR {
		s := sum.VR
		fmt.Printf("VR: %d activations, %d chains, %d gathers, %d vector uops\n",
			s.Activations, s.ChainsVectorized, s.GatherLoads, s.VectorUops)
	}
}
