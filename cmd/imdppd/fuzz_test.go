package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
)

// fuzzBodies seeds both request fuzzers with the bodies the daemon
// tests send: valid solves and sigma queries, every rejected shape,
// and the malformed and oversized bodies.
var fuzzBodies = []string{
	quickSolve,
	`{"dataset":"sample","budget":80,"t":3,"mc":4,"mcsi":2,"candidate_cap":16,"seed":1,"epsilon":0.05,"delta":0.1}`,
	`{"dataset":"sample","budget":80,"t":3,"mc":4,"mcsi":2,"candidate_cap":16,"seed":32,"tenant":"body-tenant","priority":2}`,
	`{"dataset":"sample","budget":80,"t":3,"mc":4096,"mcsi":512,"candidate_cap":256,"seed":9}`,
	`{"dataset":"sample","budget":80,"t":3,"mc":32,"seed":5,"seeds":[{"user":0,"item":0,"t":1}]}`,
	`{"dataset":"sample","budget":80,"t":3,"mc":32,"seed":5,"epsilon":0.05,"delta":0.1,"seeds":[{"user":0,"item":0,"t":1}]}`,
	`{"dataset":"sample","budget":80,"t":3,"mc":64,"seed":5,"seeds":[{"user":0,"item":0,"t":1},{"user":3,"item":1,"t":2}]}`,
	`{"dataset":"sample","budget":0.001,"t":3,"mc":4,"seeds":[{"user":0,"item":0,"t":1}]}`,
	`{"dataset":"sample","budget":80,"t":3,"mc":-1}`,
	`{"dataset":"sample","budget":80,"t":0,"mc":4}`,
	`{"dataset":"sample","budget":-5,"t":3,"mc":4}`,
	`{"dataset":"nope","budget":80,"t":3}`,
	`{"dataset":"sample","budget":80,"t":3,"algo":"magic"}`,
	`{"dataset":"sample","budget":80,"t":3,"order":"XX"}`,
	`{"dataset":"sample","budget":80,"t":3,"mc":4,"epsilon":0}`,
	`{"dataset":"sample","budget":80,"t":3,"mc":4,"epsilon":-0.1}`,
	`{"dataset":"sample","budget":80,"t":3,"mc":4,"delta":0.05}`,
	`{"dataset":"sample","budget":80,"t":3,"mc":4,"epsilon":0.05,"delta":1}`,
	`{"dataset":"sample","budget":80,"t":3,"mc":4,"epsilon":0.05,"delta":2,"seeds":[{"user":0,"item":0,"t":1}]}`,
	`{"dataset":`,
	`{"dataset":"sample","pad":"` + strings.Repeat("x", maxRequestBody) + `"}`,
}

// checkDecoded asserts a request decoder's contract: an accepted body
// writes nothing (the handler goes on to answer it), a refused one
// writes a 4xx with a typed JSON error body. Never a 5xx.
func checkDecoded(t *testing.T, w *httptest.ResponseRecorder, ok bool) {
	t.Helper()
	if ok {
		if w.Body.Len() != 0 || w.Code != http.StatusOK {
			t.Fatalf("accepted body, but the decoder wrote %d %q", w.Code, w.Body.String())
		}
		return
	}
	if w.Code < 400 || w.Code >= 500 {
		t.Fatalf("refused body with status %d, want 4xx", w.Code)
	}
	var eb errorBody
	if err := json.Unmarshal(w.Body.Bytes(), &eb); err != nil || eb.Error == "" {
		t.Fatalf("refusal %d is not a typed error body: %q (%v)", w.Code, w.Body.String(), err)
	}
}

// FuzzSolveRequest runs POST /v1/solve's decode and validation, never
// a solve, over arbitrary bodies and ?wait= values.
func FuzzSolveRequest(f *testing.F) {
	for _, body := range fuzzBodies {
		f.Add(body, "")
	}
	f.Add(quickSolve, "2s")
	f.Add(quickSolve, "-1s")
	f.Add(quickSolve, "soon")
	f.Fuzz(func(t *testing.T, body, wait string) {
		r := httptest.NewRequest(http.MethodPost, "/v1/solve?"+url.Values{"wait": {wait}}.Encode(), strings.NewReader(body))
		w := httptest.NewRecorder()
		_, ok := decodeSolve(w, r)
		checkDecoded(t, w, ok)
	})
}

// FuzzSigmaRequest runs POST /v1/sigma's decode and validation, never
// an estimate, over arbitrary bodies.
func FuzzSigmaRequest(f *testing.F) {
	for _, body := range fuzzBodies {
		f.Add(body)
	}
	f.Fuzz(func(t *testing.T, body string) {
		r := httptest.NewRequest(http.MethodPost, "/v1/sigma", strings.NewReader(body))
		w := httptest.NewRecorder()
		_, _, ok := decodeSigma(w, r)
		checkDecoded(t, w, ok)
	})
}
