package main

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"imdpp"
)

// sigmaBody is a /v1/sigma request on the warm Amazon 1.0 dataset with
// MC 100 and two seeds.
func sigmaBody(budget, T int, seed uint64) string {
	return fmt.Sprintf(`{"dataset":"amazon","scale":1,"budget":%d,"t":%d,"mc":100,"seed":%d,`+
		`"seeds":[{"user":0,"item":0,"t":1},{"user":1,"item":2,"t":2}]}`, budget, T, seed)
}

// postSigma serves one /v1/sigma request through h.
func postSigma(tb testing.TB, h http.Handler, body string) {
	tb.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/sigma", strings.NewReader(body)))
	if rec.Code != http.StatusOK {
		tb.Fatalf("sigma: status %d: %s", rec.Code, rec.Body)
	}
}

// TestDaemonSigmaAllocs bounds the heap a warm-dataset /v1/sigma query
// allocates. Each query clones the dataset's problem with its own
// budget and T; the clones share the dataset's substrate, so no query
// rebuilds its warm states, its clean-target table (about 1.5 MB at
// Amazon 1.0) or its content digest.
func TestDaemonSigmaAllocs(t *testing.T) {
	d, _ := newTestDaemon(t)
	h := d.handler()
	postSigma(t, h, sigmaBody(500, 10, 1)) // builds and memoizes the dataset
	const queries, bound = 10, 256 << 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 1; i <= queries; i++ {
		postSigma(t, h, sigmaBody(500+i, 8+i%3, uint64(1+i)))
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / queries; per >= bound {
		t.Fatalf("a warm-dataset /v1/sigma query allocates %d bytes, want < %d", per, bound)
	}
}

// BenchmarkDaemonSigma times a POST /v1/sigma on a warm dataset through
// the daemon's handler, next to service.Sigma on one reused problem of
// the same dataset (Amazon 1.0, MC 100, two seeds). Every query takes a
// sample seed no earlier query took, so each one simulates instead of
// hitting the grid cache. What the handler pays beyond the service call
// is the request's decode and encode and loadProblem's per-request
// Clone, which shares the dataset's substrate: its warm states,
// clean-target table and content digest.
func BenchmarkDaemonSigma(b *testing.B) {
	d, _ := newTestDaemon(b)
	next := uint64(0)
	h := d.handler()
	post := func(b *testing.B) {
		next++
		postSigma(b, h, sigmaBody(500, 10, next))
	}
	post(b) // builds and memoizes the dataset

	b.Run("handler", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			post(b)
		}
	})
	b.Run("service", func(b *testing.B) {
		p, err := d.loadProblem(problemSpec{Dataset: "amazon", Scale: 1, Budget: 500, T: 10})
		if err != nil {
			b.Fatal(err)
		}
		seeds := []imdpp.Seed{{User: 0, Item: 0, T: 1}, {User: 1, Item: 2, T: 2}}
		sigma := func() {
			next++
			if _, _, err := d.svc.Sigma(context.Background(), p, seeds, imdpp.SigmaOptions{MC: 100, Seed: next}); err != nil {
				b.Fatal(err)
			}
		}
		sigma() // warms the substrate's states (the handler warmed the rest)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sigma()
		}
	})
}
