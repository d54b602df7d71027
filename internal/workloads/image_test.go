package workloads

import (
	"bytes"
	"reflect"
	"testing"

	"vrsim/internal/isa"
	"vrsim/internal/mem"
)

// writeImage returns w's image bytes and checksum.
func writeImage(t *testing.T, w *Workload) ([]byte, uint32) {
	t.Helper()
	var buf bytes.Buffer
	sum, err := WriteImage(&buf, w)
	if err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), sum
}

// backingBytes is a backing's contents in mem's canonical image encoding,
// so two backings compare page for page.
func backingBytes(t *testing.T, d *mem.Backing) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := d.Snapshot().Encode(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestImageRoundTrip: a loaded workload matches the built one — name,
// budgets, program and Fresh memory page for page — and runs to the
// final state the built workload's validator accepts.
func TestImageRoundTrip(t *testing.T) {
	camel, err := ByName("camel")
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []*Workload{camel, BFS(10, GraphKron, "kr")} {
		t.Run(w.Name, func(t *testing.T) {
			enc, sum := writeImage(t, w)
			if again, sum2 := writeImage(t, w); !bytes.Equal(again, enc) || sum2 != sum {
				t.Fatal("writing the same workload twice gave different bytes")
			}
			got, err := LoadImage(bytes.NewReader(enc), sum)
			if err != nil {
				t.Fatal(err)
			}
			if got.Name != w.Name || got.SuggestedBudget != w.SuggestedBudget || got.SkipInstrs != w.SkipInstrs {
				t.Errorf("loaded %q budget %d skip %d, want %q budget %d skip %d",
					got.Name, got.SuggestedBudget, got.SkipInstrs, w.Name, w.SuggestedBudget, w.SkipInstrs)
			}
			if !reflect.DeepEqual(got.Prog, w.Prog) {
				t.Error("loaded program differs from the built one")
			}
			if got.Init != nil || got.Validate != nil || got.FromRegistry() {
				t.Error("a loaded workload must have no Init, no Validate and not claim to be a registry build")
			}
			d := got.Fresh()
			if !bytes.Equal(backingBytes(t, d), backingBytes(t, w.Fresh())) {
				t.Fatal("loaded Fresh memory differs from the built one")
			}
			it := isa.NewInterp(got.Prog, d)
			if err := it.Run(500_000_000); err != nil || !it.Halted {
				t.Fatalf("loaded workload did not run to Halt: %v", err)
			}
			if err := w.Validate(d, it.Regs); err != nil {
				t.Fatalf("loaded workload's final state fails the built validator: %v", err)
			}
		})
	}
}

// TestLoadImageRejectsDamage: truncation anywhere, one flipped byte
// anywhere (header, metadata, page data, trailer), trailing bytes and a
// checksum other than the writer's are each an error, never a workload.
func TestLoadImageRejectsDamage(t *testing.T) {
	enc, sum := writeImage(t, Camel(12, 1000))
	offsets := []int{0, 5, 9, 14, 40, len(enc) / 2, len(enc) - 5, len(enc) - 1}
	for _, n := range offsets {
		if _, err := LoadImage(bytes.NewReader(enc[:n]), sum); err == nil {
			t.Errorf("image truncated to %d of %d bytes loaded", n, len(enc))
		}
		bad := bytes.Clone(enc)
		bad[n] ^= 0x40
		if _, err := LoadImage(bytes.NewReader(bad), sum); err == nil {
			t.Errorf("image with byte %d flipped loaded", n)
		}
	}
	if _, err := LoadImage(bytes.NewReader(append(bytes.Clone(enc), 0)), sum); err == nil {
		t.Error("image with a trailing byte loaded")
	}
	if _, err := LoadImage(bytes.NewReader(enc), sum+1); err == nil {
		t.Error("image loaded against another checksum")
	}
	if _, err := LoadImage(bytes.NewReader(enc), sum); err != nil {
		t.Fatalf("intact image: %v", err)
	}
}

// TestFromRegistry: ByName's workloads are registry builds; a workload
// built directly at another scale is not.
func TestFromRegistry(t *testing.T) {
	w, err := ByName("camel")
	if err != nil {
		t.Fatal(err)
	}
	if !w.FromRegistry() {
		t.Error("ByName(camel) is not marked as a registry build")
	}
	if Camel(12, 1000).FromRegistry() {
		t.Error("a directly built camel is marked as a registry build")
	}
}
