package diffusion_test

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"imdpp/internal/diffusion"
	"imdpp/internal/gridcache"
	"imdpp/internal/service"
	"imdpp/internal/shard"
)

// TestWorkerReleasesPooledProblems drives a shard worker over HTTP,
// with and without a sample-grid cache: every uploaded problem answers
// an estimate, so the worker's decoded copy registers a state pool.
// Problems evicted past the worker's store bound, and then every
// problem dropped by DropProblems, must leave no registry entry once
// collected.
func TestWorkerReleasesPooledProblems(t *testing.T) {
	grid := gridcache.New(gridcache.Config{KeyFn: func(p *diffusion.Problem) string { return service.HashProblem(p).String() }})
	for _, c := range []struct {
		name string
		cfg  shard.WorkerConfig
	}{
		{"plain", shard.WorkerConfig{Workers: 1}},
		{"grid-cache", shard.WorkerConfig{Workers: 1, Grid: grid}},
	} {
		t.Run(c.name, func(t *testing.T) { workerReleasesPooledProblems(t, c.cfg) })
	}
}

func workerReleasesPooledProblems(t *testing.T, cfg shard.WorkerConfig) {
	w := shard.NewWorker(cfg)
	mux := http.NewServeMux()
	w.Mount(mux)
	srv := httptest.NewServer(mux)
	defer srv.Close()
	post := func(path string, body []byte) {
		t.Helper()
		resp, err := http.Post(srv.URL+path, shard.ContentTypeBinary, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("POST %s: status %d", path, resp.StatusCode)
		}
	}
	// settle collects garbage until the registry holds at most want
	// entries, and returns the count it saw last.
	settle := func(want int) int {
		n := diffusion.PooledProblems()
		for try := 0; try < 100 && n > want; try++ {
			runtime.GC()
			time.Sleep(time.Millisecond) // cleanups run on their own goroutine
			n = diffusion.PooledProblems()
		}
		return n
	}
	before := settle(0)

	base := diffusion.GoldenProblem(t)
	const uploads = 12
	for i := 0; i < uploads; i++ {
		p := *base
		p.Budget = float64(100 + i) // a distinct content address
		post(shard.PathProblems, shard.EncodeProblem(&p).AppendBinary(nil))
		req := &shard.EstimateRequest{
			Problem: service.HashProblem(&p).String(),
			Seed:    uint64(i),
			Hi:      4,
			Groups:  [][]diffusion.Seed{{{User: 1, Item: 2, T: 1}}},
		}
		frame, err := req.AppendBinary(nil)
		if err != nil {
			t.Fatal(err)
		}
		post(shard.PathEstimate, frame)
	}
	kept := w.Stats().ProblemsCached
	if kept >= uploads {
		t.Fatalf("worker kept all %d problems; the test needs evictions", uploads)
	}
	if n := settle(before + kept); n > before+kept {
		t.Fatalf("after eviction the registry holds %d entries, want ≤ %d (%d before, %d problems stored)", n, before+kept, before, kept)
	}
	w.DropProblems()
	if n := settle(before); n > before {
		t.Fatalf("after DropProblems the registry holds %d entries, want ≤ %d", n, before)
	}
}
