package main

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"imdpp"
)

// BenchmarkDaemonSigma times a POST /v1/sigma on a warm dataset through
// the daemon's handler, next to service.Sigma on one reused problem of
// the same dataset (Amazon 1.0, MC 100, two seeds). Every query takes a
// sample seed no earlier query took, so each one simulates instead of
// hitting the grid cache. What the handler pays beyond the service call
// is the request's decode and encode and loadProblem, whose per-request
// Clone hands every query a problem with a cold state pool, no
// clean-target table and no memoized content key.
func BenchmarkDaemonSigma(b *testing.B) {
	d, _ := newTestDaemon(b)
	next := uint64(0)
	h := d.handler()
	post := func(b *testing.B) {
		next++
		body := fmt.Sprintf(`{"dataset":"amazon","scale":1,"budget":500,"t":10,"mc":100,"seed":%d,`+
			`"seeds":[{"user":0,"item":0,"t":1},{"user":1,"item":2,"t":2}]}`, next)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/sigma", strings.NewReader(body)))
		if rec.Code != http.StatusOK {
			b.Fatalf("sigma: status %d: %s", rec.Code, rec.Body)
		}
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
		sigma() // warms the problem's state pool and content key
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sigma()
		}
	})
}
