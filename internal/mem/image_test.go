package mem

import (
	"bytes"
	"errors"
	"io"
	"testing"
)

// imageOf snapshots a backing after storing vals[i] at addrs[i].
func imageOf(addrs, vals []uint64) *Image {
	b := NewBacking()
	for i, a := range addrs {
		b.Store(a, vals[i])
	}
	return b.Snapshot()
}

func encodeImage(t testing.TB, img *Image) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := img.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// sameImage reports whether two images hold the same pages with the same
// contents.
func sameImage(a, b *Image) bool {
	if len(a.pages) != len(b.pages) {
		return false
	}
	//vrlint:allow simdet -- test comparison: the verdict is independent of iteration order
	for k, p := range a.pages {
		q, ok := b.pages[k]
		if !ok || *p != *q {
			return false
		}
	}
	return true
}

// TestImageRoundTrip: a dense run of pages, a sparse image whose pages
// sit far apart (including page 0 and the last page of the address
// space) and an empty image each decode page for page to the image that
// was encoded, and re-encode to the same bytes.
func TestImageRoundTrip(t *testing.T) {
	dense := NewBacking()
	vals := make([]uint64, 5*pageWords+600)
	for i := range vals {
		vals[i] = uint64(i)*0x9e3779b97f4a7c15 + 1
	}
	dense.StoreSlice(0x10_0000+24, vals)
	cases := []struct {
		name  string
		img   *Image
		pages int
	}{
		{"dense", dense.Snapshot(), 7},
		{"sparse", imageOf([]uint64{0, 0x7_0000_0000, 1 << 40, ^uint64(0)}, []uint64{1, 2, 0, 4}), 4},
		{"empty", NewBacking().Snapshot(), 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if len(tc.img.pages) != tc.pages {
				t.Fatalf("test image has %d pages, want %d", len(tc.img.pages), tc.pages)
			}
			enc := encodeImage(t, tc.img)
			if want := 8 + tc.pages*(8+pageBytes); len(enc) != want {
				t.Fatalf("encoding is %d bytes, want %d", len(enc), want)
			}
			got, err := DecodeImage(bytes.NewReader(enc))
			if err != nil {
				t.Fatal(err)
			}
			if !sameImage(got, tc.img) {
				t.Fatal("decoded image differs from the encoded one")
			}
			if !bytes.Equal(encodeImage(t, got), enc) {
				t.Fatal("re-encoding the decoded image changed its bytes")
			}
			// Every proper prefix is a truncated image.
			for _, n := range []int{0, 4, 8, len(enc) - 1} {
				if n < 0 || n >= len(enc) {
					continue
				}
				if _, err := DecodeImage(bytes.NewReader(enc[:n])); !errors.Is(err, io.ErrUnexpectedEOF) {
					t.Errorf("prefix of %d bytes: err = %v, want io.ErrUnexpectedEOF", n, err)
				}
			}
		})
	}
}

// TestImageEncodingDeterministic: the same contents faulted in in
// different orders encode to identical bytes.
func TestImageEncodingDeterministic(t *testing.T) {
	addrs := []uint64{0x5000, 0x1000, 0x9_0000, 0x3000, 0x2_0000_0000}
	vals := []uint64{5, 1, 9, 3, 2}
	a := encodeImage(t, imageOf(addrs, vals))
	for i, j := 0, len(addrs)-1; i < j; i, j = i+1, j-1 {
		addrs[i], addrs[j] = addrs[j], addrs[i]
		vals[i], vals[j] = vals[j], vals[i]
	}
	if b := encodeImage(t, imageOf(addrs, vals)); !bytes.Equal(a, b) {
		t.Fatal("encoding depends on the order pages were faulted in")
	}
}

// TestImageDecodeRejectsNonCanonical: out-of-order or repeated page
// numbers, and page numbers beyond the address space, are rejected.
func TestImageDecodeRejectsNonCanonical(t *testing.T) {
	enc := encodeImage(t, imageOf([]uint64{0x1000, 0x2000}, []uint64{1, 2}))
	second := 8 + 8 + pageBytes // offset of the second page's number
	for name, k := range map[string]byte{"repeated": 1, "descending": 0} {
		bad := bytes.Clone(enc)
		bad[second] = k
		if _, err := DecodeImage(bytes.NewReader(bad)); err == nil {
			t.Errorf("%s page number accepted", name)
		}
	}
	bad := bytes.Clone(enc)
	bad[8+7] = 0xff // first page number ≥ 2^52
	if _, err := DecodeImage(bytes.NewReader(bad)); err == nil {
		t.Error("out-of-range page number accepted")
	}
}

// FuzzImageDecode: arbitrary bytes either fail to decode or decode to an
// image whose canonical encoding is exactly the bytes consumed — so a
// decoded image is always one Encode could have written, and a page is
// only ever allocated for 4 KiB of input that arrived.
func FuzzImageDecode(f *testing.F) {
	f.Add(encodeImage(f, imageOf([]uint64{0x1000, 0x2000}, []uint64{1, 2})))
	f.Add(encodeImage(f, NewBacking().Snapshot()))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}) // huge page count, no pages
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0, 0, 3})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		img, err := DecodeImage(r)
		if err != nil {
			return
		}
		consumed := data[:len(data)-r.Len()]
		if enc := encodeImage(t, img); !bytes.Equal(enc, consumed) {
			t.Fatalf("decoded %d pages from %d bytes, but they encode to %d different bytes",
				len(img.pages), len(consumed), len(enc))
		}
	})
}
