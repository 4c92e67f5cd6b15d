package main

import (
	"runtime"
	"sync"
	"time"
)

// On a few vCPUs of a shared host the speed of one identical piece of
// work can move by 30% from minute to minute and by more from second to
// second, and every timing of a run moves with it (NOTES.md). So a
// run also times a fixed reference kernel, owned by the benchmark and
// sharing no code with the program, on every vCPU at once whenever the
// program is idle (before each set-up and at every cycle barrier), and
// the timed end-to-end metrics are reported at the reference speed:
// scaled by refNominal over the mean time of the reference chunks that
// sampled the same stretch of the run. The record line keeps the raw
// wall-clock values and the reference times beside them.

const (
	refIters   = 1 << 21 // steps of one reference chunk
	refChunks  = 6       // chunks per sample, on each vCPU
	refNominal = 10 * time.Millisecond
	refWords   = 1 << 16 // 256 KiB table: cache-resident random access, like the engine's graph walks
)

var refTable = func() []uint32 {
	t := make([]uint32, refWords)
	x := uint64(0x9E3779B97F4A7C15)
	for i := range t {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		t[i] = uint32(x)
	}
	return t
}()

// refChunk walks a copy of the table along a xorshift stream, mixing
// integer and floating-point work, and returns a checksum so the loop
// stays.
func refChunk(t []uint32, seed uint64) uint64 {
	x, sum, f := seed|1, uint64(0), 1.0
	for i := 0; i < refIters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		v := t[x&(refWords-1)]
		t[(x>>20)&(refWords-1)] = v + uint32(i)
		sum += uint64(v)
		f = f*0.999999 + float64(v&0xff)*1e-9
	}
	return sum + uint64(f)
}

// speedRef accumulates the reference chunks of one stretch of a run.
type speedRef struct {
	chunks []float64 // seconds per chunk
	sink   uint64
}

// sample runs refChunks chunks on each of GOMAXPROCS goroutines at once,
// so every vCPU the program uses is sampled under full load.
func (s *speedRef) sample() {
	n := runtime.GOMAXPROCS(0)
	times := make([][]float64, n)
	sums := make([]uint64, n)
	var wg sync.WaitGroup
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			t := append([]uint32(nil), refTable...)
			for c := 0; c < refChunks; c++ {
				t0 := time.Now()
				sums[g] += refChunk(t, uint64(g*refChunks+c))
				times[g] = append(times[g], time.Since(t0).Seconds())
			}
		}(g)
	}
	wg.Wait()
	for g := range times {
		s.chunks = append(s.chunks, times[g]...)
		s.sink += sums[g]
	}
}

// factor is refNominal over the mean chunk time: a timing multiplied by
// it reads as at the reference speed. It is 1 when nothing was sampled.
func (s *speedRef) factor() float64 {
	if len(s.chunks) == 0 {
		return 1
	}
	return refNominal.Seconds() / mean(s.chunks)
}
