package workloads

// Workload images: a built workload saved to a byte stream so another
// process can load it instead of rebuilding it. Process-isolated
// campaigns write each workload once and every worker loads it, which
// turns a per-worker graph synthesis and initializer run into a read.
//
// Layout, little-endian throughout:
//
//	magic    8 bytes, imageMagic
//	metaLen  uint32
//	meta     metaLen bytes of JSON: Name, SuggestedBudget, SkipInstrs, Prog
//	image    the initialized memory image (mem.Image.Encode)
//	sum      uint32, CRC-32C of every byte before it
//
// A loaded workload has no Init and no Validate (both are Go closures);
// its Fresh serves copy-on-write views of the loaded image exactly as the
// built workload's Fresh serves views of its own.

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"vrsim/internal/isa"
	"vrsim/internal/mem"
)

const imageMagic = "vrsimg1\n"

// maxImageMeta bounds the metadata record; kernels are a few hundred
// instructions, so anything near this is a corrupt length.
const maxImageMeta = 4 << 20

//vrlint:allow simdet -- read-only CRC table, built once
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// imageMeta is the JSON record of everything but the memory image.
type imageMeta struct {
	Name            string
	SuggestedBudget uint64
	SkipInstrs      uint64
	Prog            *isa.Program
}

// WriteImage writes w — its program, run parameters and initialized
// memory image (running Init if no cell has yet) — and returns the
// stream's checksum. The bytes are a deterministic function of the
// workload.
func WriteImage(dst io.Writer, w *Workload) (uint32, error) {
	meta, err := json.Marshal(imageMeta{Name: w.Name, SuggestedBudget: w.SuggestedBudget, SkipInstrs: w.SkipInstrs, Prog: w.Prog})
	if err != nil {
		return 0, err
	}
	h := crc32.New(castagnoli)
	bw := bufio.NewWriterSize(io.MultiWriter(dst, h), 1<<16)
	// A bufio.Writer keeps its first write error and returns it from
	// every later Write and from Flush, which is checked below.
	_, _ = bw.Write(binary.LittleEndian.AppendUint32([]byte(imageMagic), uint32(len(meta))))
	_, _ = bw.Write(meta)
	if err := w.Image().Encode(bw); err != nil {
		return 0, err
	}
	if err := bw.Flush(); err != nil {
		return 0, err
	}
	sum := h.Sum32()
	_, err = dst.Write(binary.LittleEndian.AppendUint32(nil, sum))
	return sum, err
}

// LoadImage reads a workload written by WriteImage and checks it against
// want, the checksum WriteImage returned. Any damage — truncation, a
// flipped bit, trailing bytes, a different image — is an error; a
// corrupt stream never yields a workload.
func LoadImage(src io.Reader, want uint32) (*Workload, error) {
	br := bufio.NewReaderSize(src, 1<<16)
	h := crc32.New(castagnoli)
	r := io.TeeReader(br, h)
	var hdr [len(imageMagic) + 4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("workloads: image header: %w", err)
	}
	if string(hdr[:len(imageMagic)]) != imageMagic {
		return nil, errors.New("workloads: not a workload image")
	}
	n := binary.LittleEndian.Uint32(hdr[len(imageMagic):])
	if n > maxImageMeta {
		return nil, fmt.Errorf("workloads: image metadata of %d bytes exceeds %d", n, maxImageMeta)
	}
	var metaBuf bytes.Buffer
	if _, err := io.CopyN(&metaBuf, r, int64(n)); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, fmt.Errorf("workloads: image metadata: %w", err)
	}
	var meta imageMeta
	if err := json.Unmarshal(metaBuf.Bytes(), &meta); err != nil {
		return nil, fmt.Errorf("workloads: image metadata: %v", err)
	}
	img, err := mem.DecodeImage(r)
	if err != nil {
		return nil, fmt.Errorf("workloads: image memory: %w", err)
	}
	var trailer [5]byte
	k, _ := io.ReadFull(br, trailer[:])
	switch sum := h.Sum32(); {
	case k != 4:
		return nil, fmt.Errorf("workloads: image checksum trailer is %d bytes, want 4", k)
	case binary.LittleEndian.Uint32(trailer[:4]) != sum:
		return nil, fmt.Errorf("workloads: image checksum %08x does not match its contents (%08x)", binary.LittleEndian.Uint32(trailer[:4]), sum)
	case sum != want:
		return nil, fmt.Errorf("workloads: image checksum %08x, want %08x", sum, want)
	}
	if meta.Name == "" || meta.Prog == nil || meta.Prog.Len() == 0 {
		return nil, errors.New("workloads: image has no name or program")
	}
	w := &Workload{Name: meta.Name, Prog: meta.Prog, SuggestedBudget: meta.SuggestedBudget, SkipInstrs: meta.SkipInstrs}
	w.imageOnce.Do(func() { w.image = img })
	return w, nil
}
