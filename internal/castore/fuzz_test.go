package castore

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// image renders the spill image of one (key, payload) pair the way
// save lays it out.
func image(key string, payload []byte) []byte {
	b := appendHeader(nil, key)
	b = binary.LittleEndian.AppendUint64(b, uint64(len(payload)))
	return append(b, payload...)
}

// FuzzSpillImage feeds arbitrary bytes to the spill-image reader (no
// panic) and pins what makes a reload safe: an accepted image is
// exactly the canonical image of the key asked for — so no other key,
// no strict prefix (a truncated write) and no extension of it is ever
// accepted as a value.
func FuzzSpillImage(f *testing.F) {
	f.Add("k", image("k", []byte("payload")))
	f.Add("problem-A\x00\x01", image("problem-A\x00\x01", nil))
	f.Add("k", image("other", []byte("payload")))
	f.Add("k", []byte("RRS1 an image with no store header"))
	f.Fuzz(func(t *testing.T, key string, data []byte) {
		payload, ok := readImage(data, key)
		if !ok {
			return
		}
		if !bytes.Equal(image(key, payload), data) {
			t.Fatalf("accepted a non-canonical image for %q: %x", key, data)
		}
		if _, ok := readImage(data, key+"\x00"); ok {
			t.Fatalf("image for %q accepted under another key", key)
		}
		for n := 0; n < len(data); n++ {
			if _, ok := readImage(data[:n], key); ok {
				t.Fatalf("truncation to %d of %d bytes accepted", n, len(data))
			}
		}
		if _, ok := readImage(append(data[:len(data):len(data)], 0), key); ok {
			t.Fatal("extended image accepted")
		}
	})
}
