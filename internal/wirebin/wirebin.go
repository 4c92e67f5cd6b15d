package wirebin

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Float encoding tags.
const (
	tagInt   = 0 // uvarint follows; value is float64(u), exact
	tagFloat = 1 // 8 raw little-endian IEEE-754 bytes follow
)

// maxExactInt bounds the integers eligible for the compact float
// encoding: below 2^53 every non-negative integer round-trips through
// float64 exactly.
const maxExactInt = 1 << 53

// AppendU8 appends one byte.
func AppendU8(b []byte, v byte) []byte { return append(b, v) }

// AppendU32 appends a fixed-width little-endian uint32.
func AppendU32(b []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(b, v) }

// AppendU64 appends a fixed-width little-endian uint64.
func AppendU64(b []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(b, v) }

// AppendUvarint appends a base-128 varint.
func AppendUvarint(b []byte, v uint64) []byte { return binary.AppendUvarint(b, v) }

// AppendVarint appends a zig-zag base-128 varint.
func AppendVarint(b []byte, v int64) []byte { return binary.AppendVarint(b, v) }

// AppendBool appends a bool as one byte.
func AppendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// AppendFloat appends one float64 in the tagged compact encoding. The
// decode is bit-exact for every input.
func AppendFloat(b []byte, v float64) []byte {
	// the integral fast path must reject -0 (signbit) and NaN (v != v),
	// both of which would lose their bit pattern through uint64
	if v == math.Trunc(v) && v >= 0 && v < maxExactInt && !math.Signbit(v) {
		b = append(b, tagInt)
		return binary.AppendUvarint(b, uint64(v))
	}
	b = append(b, tagFloat)
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}

// AppendFloats appends a uvarint count followed by each value in the
// compact encoding.
func AppendFloats(b []byte, vs []float64) []byte {
	b = binary.AppendUvarint(b, uint64(len(vs)))
	for _, v := range vs {
		b = AppendFloat(b, v)
	}
	return b
}

// AppendString appends a uvarint byte length followed by the raw
// bytes.
func AppendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// AppendAscInt32s appends a sorted-ascending id list as a uvarint
// count, the first id as a zig-zag varint, and ascending deltas as
// uvarints. The input must be strictly or weakly ascending; violations
// are the encoder's bug and panic.
func AppendAscInt32s(b []byte, vs []int32) []byte {
	b = binary.AppendUvarint(b, uint64(len(vs)))
	prev := int32(0)
	for i, v := range vs {
		if i == 0 {
			b = binary.AppendVarint(b, int64(v))
		} else {
			if v < prev {
				panic(fmt.Sprintf("wirebin: AppendAscInt32s input not ascending: %d after %d", v, prev))
			}
			b = binary.AppendUvarint(b, uint64(v-prev))
		}
		prev = v
	}
	return b
}

// Reader decodes a wirebin payload with a sticky error: after the
// first failure every method returns the zero value and Err() reports
// the cause, so decode bodies can be written straight-line and checked
// once.
type Reader struct {
	b   []byte
	off int
	err error
}

// NewReader wraps a payload for decoding. The Reader borrows b.
func NewReader(b []byte) *Reader { return &Reader{b: b} }

// Err returns the first decode error, or nil.
func (r *Reader) Err() error { return r.err }

// Len returns the number of unread bytes.
func (r *Reader) Len() int { return len(r.b) - r.off }

// Done returns nil iff the payload decoded cleanly and was consumed
// exactly — trailing garbage is an error, so frames cannot smuggle
// extra content past a decoder.
func (r *Reader) Done() error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.b) {
		return fmt.Errorf("wirebin: %d trailing bytes", len(r.b)-r.off)
	}
	return nil
}

func (r *Reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("wirebin: "+format, args...)
	}
}

// U8 reads one byte.
func (r *Reader) U8() byte {
	if r.err != nil {
		return 0
	}
	if r.off >= len(r.b) {
		r.fail("truncated u8 at %d", r.off)
		return 0
	}
	v := r.b[r.off]
	r.off++
	return v
}

// U64 reads a fixed-width little-endian uint64.
func (r *Reader) U64() uint64 {
	if r.err != nil {
		return 0
	}
	if r.off+8 > len(r.b) {
		r.fail("truncated u64 at %d", r.off)
		return 0
	}
	v := binary.LittleEndian.Uint64(r.b[r.off:])
	r.off += 8
	return v
}

// Uvarint reads a base-128 varint.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		r.fail("bad uvarint at %d", r.off)
		return 0
	}
	r.off += n
	return v
}

// Varint reads a zig-zag base-128 varint.
func (r *Reader) Varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.b[r.off:])
	if n <= 0 {
		r.fail("bad varint at %d", r.off)
		return 0
	}
	r.off += n
	return v
}

// Bool reads a one-byte bool; any value other than 0 or 1 is an error
// (canonical encodings only, so equal values have equal bytes).
func (r *Reader) Bool() bool {
	v := r.U8()
	if v > 1 {
		r.fail("bad bool byte %d", v)
		return false
	}
	return v == 1
}

// Float reads one tagged compact float64, bit-exactly.
func (r *Reader) Float() float64 {
	switch tag := r.U8(); tag {
	case tagInt:
		return float64(r.Uvarint())
	case tagFloat:
		return math.Float64frombits(r.U64())
	default:
		r.fail("bad float tag %d", tag)
		return 0
	}
}

// Count reads a uvarint element count and validates it against the
// remaining payload, given a minimum encoded size per element — the
// allocation guard that keeps a 4-byte hostile frame from provoking a
// multi-gigabyte make().
func (r *Reader) Count(minBytesPer int) int {
	n := r.Uvarint()
	if r.err != nil {
		return 0
	}
	if minBytesPer < 1 {
		minBytesPer = 1
	}
	if n > uint64(r.Len()/minBytesPer) {
		r.fail("count %d exceeds remaining %d bytes (min %d each)", n, r.Len(), minBytesPer)
		return 0
	}
	return int(n)
}

// Floats reads a compact float slice (nil for count 0).
func (r *Reader) Floats() []float64 {
	n := r.Count(2) // tag + at least one varint byte
	if r.err != nil || n == 0 {
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = r.Float()
	}
	return out
}

// String reads a length-prefixed string written by AppendString.
func (r *Reader) String() string {
	n := r.Count(1)
	if r.err != nil || n == 0 {
		return ""
	}
	v := string(r.b[r.off : r.off+n])
	r.off += n
	return v
}

// AscInt32s reads an ascending id list written by AppendAscInt32s
// (nil for count 0). Overflow past int32 is an error.
func (r *Reader) AscInt32s() []int32 {
	n := r.Count(1)
	if r.err != nil || n == 0 {
		return nil
	}
	out := make([]int32, n)
	prev := int64(0)
	for i := range out {
		if i == 0 {
			prev = r.Varint()
		} else {
			prev += int64(r.Uvarint())
		}
		if prev < math.MinInt32 || prev > math.MaxInt32 {
			r.fail("ascending id %d overflows int32", prev)
			return nil
		}
		out[i] = int32(prev)
	}
	return out
}
