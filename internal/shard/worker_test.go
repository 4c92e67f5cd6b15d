package shard

import (
	"context"
	"runtime"
	"testing"
	"weak"

	"imdpp/internal/diffusion"
)

// TestWorkerReleasesPooledProblems drives a shard worker over a frame
// stream: every uploaded problem answers an estimate, so the worker's
// decoded copy, a substrate of its own, holds warm states and a
// clean-target table. A substrate evicted past the worker's store bound, and then
// every substrate dropped by DropProblems, must be collected; the
// stored ones stay alive.
func TestWorkerReleasesPooledProblems(t *testing.T) {
	t.Run("plain", func(t *testing.T) { workerReleasesPooledProblems(t, WorkerConfig{Workers: 1}) })
}

func workerReleasesPooledProblems(t *testing.T, cfg WorkerConfig) {
	w := NewWorker(cfg)
	pool := NewPool([]string{serveWorker(t, w, nil).URL}, nil)
	defer pool.Close()
	s := testStream(t, pool)
	call := func(frame []byte) {
		t.Helper()
		if err := pool.send(context.Background(), s, frame); err != nil {
			t.Fatal(err)
		}
		if _, err := pool.recv(context.Background(), s); err != nil {
			t.Fatal(err)
		}
	}
	// alive counts the substrates in subs not yet collected.
	alive := func(subs []weak.Pointer[diffusion.Substrate]) int {
		n := len(subs)
		for try := 0; try < 100 && n > 0; try++ {
			runtime.GC()
			n = 0
			for _, s := range subs {
				if s.Value() != nil {
					n++
				}
			}
		}
		return n
	}

	base := sampleProblem(t, 100, 3)
	const uploads = 12
	keys := make([]diffusion.Digest, uploads)
	subs := make([]weak.Pointer[diffusion.Substrate], uploads)
	for i := range keys {
		p := *base
		p.Budget = float64(100 + i) // a distinct content address
		call(EncodeProblem(&p).AppendBinary(nil))
		keys[i] = p.ContentDigest()
		req := &EstimateRequest{
			Problem: keys[i],
			Seed:    uint64(i),
			Hi:      4,
			Groups:  [][]diffusion.Seed{{{User: 1, Item: 2, T: 1}}},
		}
		call(req.AppendBinary(nil))
		stored, _ := w.problems.Load().Get(digestKey(keys[i]))
		subs[i] = weak.Make(stored.Substrate)
	}
	var evicted, stored []weak.Pointer[diffusion.Substrate]
	for i, k := range keys {
		if _, ok := w.problems.Load().Get(digestKey(k)); !ok {
			evicted = append(evicted, subs[i])
		} else {
			stored = append(stored, subs[i])
		}
	}
	if len(evicted) == 0 {
		t.Fatalf("worker kept all %d problems; the test needs evictions", uploads)
	}
	if n := alive(evicted); n > 0 {
		t.Fatalf("%d of %d evicted substrates still alive after GC", n, len(evicted))
	}
	for _, s := range stored {
		if s.Value() == nil {
			t.Fatal("a stored problem's substrate was collected")
		}
	}
	w.DropProblems()
	if n := alive(stored); n > 0 {
		t.Fatalf("%d of %d dropped substrates still alive after GC", n, len(stored))
	}
}
