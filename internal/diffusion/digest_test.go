package diffusion

import (
	"fmt"
	"math"
	"testing"

	"imdpp/internal/rng"
)

// TestKeyString pins Digest.String's format, the 32 lower-case hex
// digits of Hi then Lo that fmt's %016x%016x gives, and its single
// allocation, the returned string.
func TestKeyString(t *testing.T) {
	r := rng.New(0x4B)
	keys := []Digest{{}, {Hi: math.MaxUint64, Lo: math.MaxUint64}, {Hi: 1, Lo: 0xabcdef}}
	for range 64 {
		keys = append(keys, Digest{Hi: r.Uint64(), Lo: r.Uint64()})
	}
	for _, k := range keys {
		s := k.String()
		if want := fmt.Sprintf("%016x%016x", k.Hi, k.Lo); s != want {
			t.Fatalf("Digest%+v.String() = %s, want %s", k, s, want)
		}
	}
	if n := testing.AllocsPerRun(100, func() { _ = keys[3].String() }); n > 1 {
		t.Fatalf("Digest.String allocates %v objects, want 1", n)
	}
}
