package shard

import (
	"fmt"
	"math"

	"imdpp/internal/diffusion"
	"imdpp/internal/graph"
	"imdpp/internal/kg"
	"imdpp/internal/obs"
	"imdpp/internal/pin"
)

// Wire contract of the estimator RPC. The problem upload is the image
// of everything the diffusion dynamics can observe — exactly the
// inputs service.HashProblem walks — so the content address is
// self-verifying: a worker recomputes the hash over its decoded copy
// and a mismatch (codec drift, corruption) is detected before a single
// sample is simulated. Seed groups, estimates and per-sample outcomes
// reuse the PR 3 wire types (diffusion.Seed, diffusion.SampleResult).

// RPC endpoint paths, mounted by Worker.Mount and dialled by Pool.
// The lifecycle paths (register/heartbeat/deregister, DESIGN.md §13)
// are mounted by the coordinator and dialled by workers — the reverse
// direction of the estimate RPCs.
const (
	PathProblems   = "/v1/shard/problems"
	PathEstimate   = "/v1/shard/estimate"
	PathRegister   = "/v1/shard/register"
	PathHeartbeat  = "/v1/shard/heartbeat"
	PathDeregister = "/v1/shard/deregister"
)

// Typed error codes carried in ErrorBody.Code.
const (
	// CodeUnknownProblem: the estimate referenced a problem hash the
	// worker does not hold (never uploaded, evicted, or the worker
	// restarted). The coordinator re-uploads and retries.
	CodeUnknownProblem = "unknown_problem"
	// CodeBadRequest: malformed payload or out-of-range fields.
	CodeBadRequest = "bad_request"
	// CodeHashMismatch: the uploaded problem decoded to a different
	// content address than the bytes imply — codec drift between
	// coordinator and worker builds.
	CodeHashMismatch = "hash_mismatch"
	// CodeDraining: the worker received SIGTERM and is finishing its
	// in-flight ranges; the coordinator re-plans without a strike.
	CodeDraining = "draining"
	// CodeUnknownWorker: a heartbeat or deregister named a URL the
	// coordinator has no registration for (e.g. the coordinator
	// restarted); the worker re-registers.
	CodeUnknownWorker = "unknown_worker"
	// CodeIncompatibleWorker: a registration advertised a frame version
	// other than the coordinator's (DESIGN.md §13). Terminal: the
	// worker stops retrying until it is redeployed.
	CodeIncompatibleWorker = "incompatible_worker"
)

// ErrorBody is the JSON error payload of every shard RPC failure.
type ErrorBody struct {
	Error string `json:"error"`
	Code  string `json:"code,omitempty"`
}

// ProblemUpload is the wire image of one diffusion.Problem.
type ProblemUpload struct {
	Users       int              `json:"users"`
	Items       int              `json:"items"`
	Graph       graph.Export     `json:"graph"`
	NumC        int              `json:"num_c"`
	InitWeights []float64        `json:"init_weights"`
	Rows        [][]pin.PairRel  `json:"rows"`
	Importance  []float64        `json:"importance"`
	BasePref    []float64        `json:"base_pref"` // row-major users×items
	Cost        []float64        `json:"cost"`      // row-major users×items
	Budget      float64          `json:"budget"`
	T           int              `json:"t"`
	Params      diffusion.Params `json:"params"`
}

// EncodeProblem builds the wire image of a problem. The slices are
// views of the problem's own storage (zero-copy); the image must be
// marshalled before the problem is mutated — which, for the immutable
// Problem, means never.
func EncodeProblem(p *diffusion.Problem) ProblemUpload {
	return ProblemUpload{
		Users:       p.NumUsers(),
		Items:       p.NumItems(),
		Graph:       p.G.Export(),
		NumC:        p.PIN.NumC(),
		InitWeights: p.PIN.InitWeights,
		Rows:        p.PIN.Rows(),
		Importance:  p.Importance,
		BasePref:    p.BasePref.Data(),
		Cost:        p.Cost.Data(),
		Budget:      p.Budget,
		T:           p.T,
		Params:      p.Params,
	}
}

// DecodeProblem reconstructs a Problem from its wire image. The social
// graph is imported CSR-exact; the PIN model is rebuilt from the
// merged relevance rows over a minimal items-only knowledge graph (the
// diffusion engine reads the KG only through |I|); the matrices wrap
// the decoded row-major data without copying. The result estimates —
// and content-hashes — bit-identically to the original problem; the
// caller should verify that with service.HashProblem. The upload's
// floats are checked here, once per upload rather than in
// Problem.Validate on every request: the initial weightings and
// relevances in pin.ModelFromRows, and every importance, preference
// and cost must be finite.
func DecodeProblem(u ProblemUpload) (*diffusion.Problem, error) {
	if u.Users < 0 || u.Items < 0 {
		return nil, fmt.Errorf("shard: negative users/items %d/%d", u.Users, u.Items)
	}
	g, err := graph.Import(u.Graph)
	if err != nil {
		return nil, fmt.Errorf("shard: decode problem: %w", err)
	}
	if g.N() != u.Users {
		return nil, fmt.Errorf("shard: graph has %d vertices, upload says %d users", g.N(), u.Users)
	}
	kb := kg.NewBuilder()
	itemType := kb.NodeTypeID("ITEM")
	for i := 0; i < u.Items; i++ {
		kb.AddNode(itemType)
	}
	stub := kb.Build()
	model, err := pin.ModelFromRows(stub, u.NumC, u.InitWeights, u.Rows)
	if err != nil {
		return nil, fmt.Errorf("shard: decode problem: %w", err)
	}
	if len(u.BasePref) != u.Users*u.Items || len(u.Cost) != u.Users*u.Items {
		return nil, fmt.Errorf("shard: matrix data %d/%d != %d users × %d items",
			len(u.BasePref), len(u.Cost), u.Users, u.Items)
	}
	for _, m := range []struct {
		name string
		v    []float64
	}{{"importance", u.Importance}, {"base_pref", u.BasePref}, {"cost", u.Cost}} {
		for i, v := range m.v {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("shard: %s[%d] = %v is not finite", m.name, i, v)
			}
		}
	}
	cols := u.Items
	if cols == 0 {
		cols = 1 // MatrixFrom needs cols > 0; the matrices are empty anyway
	}
	p := &diffusion.Problem{
		G:          g,
		KG:         stub,
		PIN:        model,
		Importance: u.Importance,
		BasePref:   diffusion.MatrixFrom(u.BasePref, cols),
		Cost:       diffusion.MatrixFrom(u.Cost, cols),
		Budget:     u.Budget,
		T:          u.T,
		Params:     u.Params,
	}
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("shard: decoded problem invalid: %w", err)
	}
	return p, nil
}

// UploadResponse acknowledges a problem upload with the content
// address the worker computed over its decoded copy.
type UploadResponse struct {
	Hash string `json:"hash"`
}

// EstimateRequest asks a worker for the raw outcomes of the global
// samples [Lo, Hi) of every group, under the referenced problem.
// Masks are shipped as sorted user-id lists: nil means all users, an
// explicit list means exactly those users (an empty non-nil list is a
// legal all-false mask). PerGroupMasks, when non-nil, overrides Market
// entry-by-entry.
type EstimateRequest struct {
	Problem string `json:"problem"` // service.Key hex form
	Seed    uint64 `json:"seed"`
	Lo      int    `json:"lo"`
	Hi      int    `json:"hi"`
	WithPi  bool   `json:"with_pi,omitempty"`
	// No omitempty on the mask fields: an empty non-nil mask (legal,
	// all-false) must stay distinguishable from nil (all users) across
	// the wire — omitempty would collapse both to absent.
	Groups        [][]diffusion.Seed `json:"groups"`
	Market        []int32            `json:"market"`
	PerGroupMasks [][]int32          `json:"masks"`
	// TraceID/SpanID propagate the coordinator's trace context
	// (DESIGN.md §11) so worker spans join the coordinator's trace.
	// Zero means untraced; on the binary frame the pair rides behind
	// the flagTraced bit. Tracing never affects sample content.
	TraceID obs.ID `json:"trace_id,omitempty"`
	SpanID  obs.ID `json:"span_id,omitempty"`
}

// EstimateResponse carries the per-sample outcomes: Samples[g][i-Lo]
// is global sample i of group g.
type EstimateResponse struct {
	Samples [][]diffusion.SampleResult `json:"samples"`
	// Spans are the worker-side span records for a traced request,
	// adopted into the coordinator's trace. Only populated when the
	// request carried a trace id.
	Spans []obs.SpanRec `json:"spans,omitempty"`
}

// maskToUsers flattens a membership mask into a sorted user-id list
// (nil in, nil out).
func maskToUsers(mask []bool) []int32 {
	if mask == nil {
		return nil
	}
	out := make([]int32, 0, 32)
	for u, in := range mask {
		if in {
			out = append(out, int32(u))
		}
	}
	return out
}

// usersToMask rebuilds a membership mask over n users (nil in, nil
// out), rejecting out-of-range ids.
func usersToMask(users []int32, n int) ([]bool, error) {
	if users == nil {
		return nil, nil
	}
	mask := make([]bool, n)
	for _, u := range users {
		if int(u) < 0 || int(u) >= n {
			return nil, fmt.Errorf("shard: mask user %d out of range n=%d", u, n)
		}
		mask[u] = true
	}
	return mask, nil
}
