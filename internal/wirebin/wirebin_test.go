package wirebin

import (
	"math"
	"math/rand"
	"testing"
)

func TestFloatBitExact(t *testing.T) {
	cases := []float64{
		0, 1, 2, 3, 1000, 1 << 30, (1 << 53) - 1, 1 << 53, // around the integral cutoff
		-0.0, -1, 0.5, 1.0000000000000002, math.Pi,
		math.Inf(1), math.Inf(-1), math.NaN(),
		math.Float64frombits(0x7ff8000000000001), // NaN with payload
		math.SmallestNonzeroFloat64, math.MaxFloat64,
	}
	var b []byte
	for _, v := range cases {
		b = AppendFloat(b, v)
	}
	r := NewReader(b)
	for _, want := range cases {
		got := r.Float()
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("float %v (%x) decoded as %v (%x)", want, math.Float64bits(want), got, math.Float64bits(got))
		}
	}
	if err := r.Done(); err != nil {
		t.Fatal(err)
	}
}

func TestPrimitivesRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		u8 := byte(rng.Intn(256))
		u64 := rng.Uint64()
		uv := rng.Uint64() >> uint(rng.Intn(64))
		iv := rng.Int63() - rng.Int63()
		bl := rng.Intn(2) == 1
		str := string(rune('a'+rng.Intn(26))) + "πattr"[:rng.Intn(6)]
		fs := make([]float64, rng.Intn(8))
		for i := range fs {
			if rng.Intn(2) == 0 {
				fs[i] = float64(rng.Intn(100))
			} else {
				fs[i] = rng.NormFloat64()
			}
		}
		asc := make([]int32, rng.Intn(8))
		v := int32(rng.Intn(100)) - 50
		for i := range asc {
			v += int32(rng.Intn(40))
			asc[i] = v
		}

		var b []byte
		b = AppendU8(b, u8)
		b = AppendU64(b, u64)
		b = AppendUvarint(b, uv)
		b = AppendVarint(b, iv)
		b = AppendBool(b, bl)
		b = AppendString(b, str)
		b = AppendFloats(b, fs)
		b = AppendAscInt32s(b, asc)

		r := NewReader(b)
		if got := r.U8(); got != u8 {
			t.Fatalf("u8 %d != %d", got, u8)
		}
		if got := r.U64(); got != u64 {
			t.Fatalf("u64 %d != %d", got, u64)
		}
		if got := r.Uvarint(); got != uv {
			t.Fatalf("uvarint %d != %d", got, uv)
		}
		if got := r.Varint(); got != iv {
			t.Fatalf("varint %d != %d", got, iv)
		}
		if got := r.Bool(); got != bl {
			t.Fatalf("bool %v != %v", got, bl)
		}
		if got := r.String(); got != str {
			t.Fatalf("string %q != %q", got, str)
		}
		gfs := r.Floats()
		if len(gfs) != len(fs) {
			t.Fatalf("floats len %d != %d", len(gfs), len(fs))
		}
		for i := range fs {
			if math.Float64bits(gfs[i]) != math.Float64bits(fs[i]) {
				t.Fatalf("float[%d] %v != %v", i, gfs[i], fs[i])
			}
		}
		gasc := r.AscInt32s()
		if len(gasc) != len(asc) {
			t.Fatalf("asc len %d != %d", len(gasc), len(asc))
		}
		for i := range asc {
			if gasc[i] != asc[i] {
				t.Fatalf("asc[%d] %d != %d", i, gasc[i], asc[i])
			}
		}
		if err := r.Done(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestReaderRejectsHostileCounts(t *testing.T) {
	// a huge count with a tiny payload must fail, not allocate
	b := AppendUvarint(nil, 1<<40)
	r := NewReader(b)
	if out := r.Floats(); out != nil || r.Err() == nil {
		t.Fatalf("oversized count decoded: %v err %v", out, r.Err())
	}
	// trailing bytes are an error
	r = NewReader([]byte{0, 0})
	_ = r.U8()
	if err := r.Done(); err == nil {
		t.Fatal("trailing byte accepted")
	}
	// non-canonical bool
	r = NewReader([]byte{2})
	if r.Bool(); r.Err() == nil {
		t.Fatal("bool byte 2 accepted")
	}
}

// FuzzReader feeds arbitrary bytes through every decode primitive; the
// contract under fuzz is "typed error or success", never a panic or an
// unbounded allocation.
func FuzzReader(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x01, 0xff, 0x00})
	f.Add(AppendFloats(AppendAscInt32s(nil, []int32{-3, 0, 9}), []float64{1, math.Pi}))
	f.Fuzz(func(t *testing.T, data []byte) {
		r := NewReader(data)
		_ = r.U8()
		_ = r.Uvarint()
		_ = r.Varint()
		_ = r.Float()
		_ = r.Floats()
		_ = r.AscInt32s()
		_ = r.Bool()
		_ = r.String()
		_ = r.U64()
		_ = r.Err()
	})
}
