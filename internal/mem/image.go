package mem

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
)

// pageBytes is one encoded page's payload.
const pageBytes = pageWords * 8

// Encode writes the image in its canonical form: a little-endian uint64
// page count, then each page as its little-endian uint64 page number
// followed by its 512 little-endian words, in ascending page order. Equal
// images therefore encode to equal bytes, whatever order their pages
// were faulted in.
func (img *Image) Encode(w io.Writer) error {
	keys := make([]uint64, 0, len(img.pages))
	//vrlint:allow simdet -- keys are sorted before use: the encoding is independent of iteration order
	for k := range img.pages {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	var buf [8 + pageBytes]byte
	binary.LittleEndian.PutUint64(buf[:8], uint64(len(keys)))
	if _, err := w.Write(buf[:8]); err != nil {
		return err
	}
	for _, k := range keys {
		binary.LittleEndian.PutUint64(buf[:8], k)
		p := img.pages[k]
		for i, v := range p {
			binary.LittleEndian.PutUint64(buf[8+8*i:], v)
		}
		if _, err := w.Write(buf[:]); err != nil {
			return err
		}
	}
	return nil
}

// DecodeImage reads an image written by Encode. It accepts only the
// canonical form — page numbers strictly ascending and valid for a 64-bit
// address space — and allocates a page only once its bytes have arrived,
// so a corrupt count can neither over-allocate nor yield an image Encode
// would not have written. A stream ending early reports
// io.ErrUnexpectedEOF.
func DecodeImage(r io.Reader) (*Image, error) {
	var buf [8 + pageBytes]byte
	if _, err := io.ReadFull(r, buf[:8]); err != nil {
		return nil, noEOF(err)
	}
	n := binary.LittleEndian.Uint64(buf[:8])
	img := &Image{pages: make(map[uint64]*[pageWords]uint64)}
	var prev uint64
	for i := uint64(0); i < n; i++ {
		if _, err := io.ReadFull(r, buf[:]); err != nil {
			return nil, noEOF(err)
		}
		k := binary.LittleEndian.Uint64(buf[:8])
		if k >= 1<<(64-pageShift) || (i > 0 && k <= prev) {
			return nil, fmt.Errorf("mem: image page %d: number %#x out of order or range", i, k)
		}
		prev = k
		p := new([pageWords]uint64)
		for j := range p {
			p[j] = binary.LittleEndian.Uint64(buf[8+8*j:])
		}
		img.pages[k] = p
	}
	return img, nil
}

// noEOF reports a stream that ended inside an image as truncated.
func noEOF(err error) error {
	if errors.Is(err, io.EOF) {
		return io.ErrUnexpectedEOF
	}
	return err
}
