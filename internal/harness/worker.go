// Worker side of process-isolated cell execution: the loop behind the
// hidden `vrbench -worker` mode. A worker is a child process that reads
// wireCell frames from stdin, executes each one at a time through the
// same RunSupervisedContext path the in-process scheduler uses, and
// writes heartbeat and result frames to stdout. Its only state is a
// cache of the workloads it has loaded — every dispatch is otherwise
// self-contained — which is what lets the supervisor treat workers as
// disposable: kill one mid-cell and the cell redispatches to a fresh
// worker with byte-identical inputs.

package harness

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sync"
	"time"

	"vrsim/internal/workloads"
)

// frameWriter serializes frame writes from the cell goroutine and the
// heartbeat goroutine onto one stream. Frames are the atomicity unit of
// the protocol; interleaving two writes mid-frame would garble the
// stream and the supervisor would classify the worker as torn.
type frameWriter struct {
	mu sync.Mutex
	w  io.Writer // vrlint:guardedby mu
}

func (fw *frameWriter) send(v any) error {
	fw.mu.Lock()
	defer fw.mu.Unlock()
	return writeFrame(fw.w, v)
}

// RunWorker executes cells dispatched over r, reporting over w, until r
// reaches EOF (the supervisor closed the pipe: a clean shutdown) or ctx
// is cancelled. A decode failure on the inbound stream or a write
// failure on the outbound one is returned — the worker cannot continue
// past either — and vrbench maps it to the protocol-failure exit code.
func RunWorker(ctx context.Context, r io.Reader, w io.Writer) error {
	fw := &frameWriter{w: w}
	loaded := map[string]*workloads.Workload{}
	for {
		payload, err := readFrame(r)
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		var spec wireCell
		if err := json.Unmarshal(payload, &spec); err != nil {
			return fmt.Errorf("%w: garbled cell spec: %v", ErrWorkerProtocol, err)
		}
		if err := runWorkerCell(ctx, fw, loaded, spec); err != nil {
			return err
		}
		if ctx.Err() != nil {
			// The cell just reported ErrCancelled as its result; after a
			// hard cancel the supervisor wants the worker gone, not idle.
			return nil
		}
	}
}

// runWorkerCell executes one dispatched cell and writes its result
// frame. Only transport failures are returned; every cell-level failure
// — an unknown workload, a panic, a timeout — travels back to the
// supervisor as a structured result so it degrades to an ERR table cell
// exactly as it would in-process.
func runWorkerCell(ctx context.Context, fw *frameWriter, loaded map[string]*workloads.Workload, spec wireCell) error {
	// Heartbeats start before workload lookup: the first dispatch of a
	// workload to this process loads its image or, failing that, builds
	// it (graph synthesis, validator precompute — easily longer than the
	// heartbeat deadline), and a silent worker mid-construction must not
	// read as wedged.
	stopHB := startHeartbeats(fw, spec.ID, spec.HeartbeatEvery)

	wl, fallback, err := workerWorkload(loaded, spec)
	if err != nil {
		stopHB()
		return fw.send(wireMsg{Type: msgResult, ID: spec.ID, ImageFallback: fallback, Err: newWireError(
			spec.Workload, spec.RC.Tech,
			&RunError{Workload: spec.Workload, Tech: spec.RC.Tech, Phase: "setup", Err: err})})
	}

	runCtx := ctx
	if spec.Timeout > 0 {
		// The worker enforces its own cell deadline so a timeout surfaces
		// as a graceful ErrCellTimeout result with a machine snapshot; the
		// supervisor's heartbeat deadline only backstops a wedged worker.
		var cancel context.CancelFunc
		runCtx, cancel = context.WithTimeout(ctx, spec.Timeout)
		defer cancel()
	}
	res, rerr := RunSupervisedContext(runCtx, wl, spec.RC)
	stopHB()

	msg := wireMsg{Type: msgResult, ID: spec.ID, ImageFallback: fallback}
	if rerr != nil {
		msg.Err = newWireError(spec.Workload, spec.RC.Tech, rerr)
	} else {
		msg.Result = &res
	}
	return fw.send(msg)
}

// workerWorkload returns the cell's workload, loading it on the
// process's first dispatch of its name: from the pool's image file when
// the spec names one, else — or when the file is missing, truncated or
// corrupt — by building it with workloads.ByName. fallback reports why
// an image could not be used; a damaged image is never run.
func workerWorkload(loaded map[string]*workloads.Workload, spec wireCell) (w *workloads.Workload, fallback string, err error) {
	if w := loaded[spec.Workload]; w != nil {
		return w, "", nil
	}
	if spec.Image != "" {
		img, lerr := loadImageFile(spec.Image, spec.ImageSum)
		if lerr == nil && img.Name != spec.Workload {
			lerr = fmt.Errorf("image holds workload %q", img.Name)
		}
		if lerr == nil {
			loaded[spec.Workload] = img
			return img, "", nil
		}
		fallback = lerr.Error()
	}
	w, err = workloads.ByName(spec.Workload)
	if err == nil {
		loaded[spec.Workload] = w
	}
	return w, fallback, err
}

// loadImageFile reads one workload image file.
func loadImageFile(path string, sum uint32) (*workloads.Workload, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return workloads.LoadImage(f, sum)
}

// startHeartbeats begins the per-cell heartbeat stream: a wireMsg every
// `every` with the worker's live heap size, the forensic the supervisor
// uses to call a SIGKILLed worker a probable OOM. The returned stop
// function waits for the goroutine to exit, so no heartbeat can be
// written after the cell's result. Heartbeat write failures are ignored
// here — the next result write will hit the same broken pipe and report
// it from a path that can act on it.
func startHeartbeats(fw *frameWriter, id int, every time.Duration) (stop func()) {
	if every <= 0 {
		return func() {}
	}
	done := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				var ms runtime.MemStats
				runtime.ReadMemStats(&ms)
				_ = fw.send(wireMsg{Type: msgHeartbeat, ID: id, HeapAlloc: ms.HeapAlloc})
			}
		}
	}()
	return func() {
		close(done)
		<-finished
	}
}
