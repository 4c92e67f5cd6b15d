package shard

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"imdpp/internal/diffusion"
	"imdpp/internal/obs"
	"imdpp/internal/service"
)

// TestProblemUploadBinaryRoundTrip pins the content-address gate: the
// binary-decoded problem must land on the same content address — and
// drive the engine bit-identically — as the original and as an
// independent encoding/json round trip of the same upload.
func TestProblemUploadBinaryRoundTrip(t *testing.T) {
	p := sampleProblem(t, 120, 3)
	u := EncodeProblem(p)

	frame := u.AppendBinary(nil)
	decodedU, err := DecodeProblemUploadBinary(frame)
	if err != nil {
		t.Fatal(err)
	}
	fromBin, err := DecodeProblem(decodedU)
	if err != nil {
		t.Fatal(err)
	}
	jsonBytes, err := json.Marshal(u)
	if err != nil {
		t.Fatal(err)
	}
	var jsonU ProblemUpload
	if err := json.Unmarshal(jsonBytes, &jsonU); err != nil {
		t.Fatal(err)
	}
	fromJSON, err := DecodeProblem(jsonU)
	if err != nil {
		t.Fatal(err)
	}
	h0, hb, hj := service.HashProblem(p), service.HashProblem(fromBin), service.HashProblem(fromJSON)
	if h0 != hb || h0 != hj {
		t.Fatalf("content address drift: original %s binary %s json %s", h0, hb, hj)
	}
	groups := groupsFor(p)
	requireSameEstimates(t, "binary-decoded problem",
		diffusion.NewEstimator(p, 8, 5).RunBatchPi(groups, nil),
		diffusion.NewEstimator(fromBin, 8, 5).RunBatchPi(groups, nil))
}

// TestProblemUploadBinarySmaller quantifies the wire win on a real
// problem: the binary frame must be well under half the bytes of the
// same upload as JSON.
func TestProblemUploadBinarySmaller(t *testing.T) {
	u := EncodeProblem(sampleProblem(t, 120, 3))
	jsonBytes, err := json.Marshal(u)
	if err != nil {
		t.Fatal(err)
	}
	bin := u.AppendBinary(nil)
	if len(bin)*2 >= len(jsonBytes) {
		t.Fatalf("binary upload %d bytes not < half of JSON %d", len(bin), len(jsonBytes))
	}
	t.Logf("problem upload: json=%d binary=%d (%.1fx)", len(jsonBytes), len(bin), float64(len(jsonBytes))/float64(len(bin)))
}

func TestEstimateRequestBinaryRoundTrip(t *testing.T) {
	key := service.Key{Hi: 0xdeadbeefcafef00d, Lo: 0x0123456789abcdef}
	cases := []EstimateRequest{
		{Problem: key.String(), Seed: 42, Lo: 3, Hi: 17, WithPi: true,
			Groups: [][]diffusion.Seed{{{User: 1, Item: 2, T: 3}}, {}},
			Market: []int32{0, 4, 9}},
		{Problem: key.String(), Groups: [][]diffusion.Seed{{}},
			Market: []int32{}, // empty non-nil: the all-false mask
			Lo:     0, Hi: 1},
		{Problem: key.String(), Groups: [][]diffusion.Seed{{}, {{User: 0, Item: 0, T: 1}}},
			PerGroupMasks: [][]int32{nil, {2, 5}},
			Lo:            0, Hi: 4},
	}
	for ci, req := range cases {
		frame, err := req.AppendBinary(nil)
		if err != nil {
			t.Fatalf("case %d: %v", ci, err)
		}
		got, err := DecodeEstimateRequestBinary(frame)
		if err != nil {
			t.Fatalf("case %d: %v", ci, err)
		}
		// encoding/json is the independent reference oracle: the binary
		// round trip must preserve nil-vs-empty on every mask field
		jb, _ := json.Marshal(req)
		var viaJSON EstimateRequest
		_ = json.Unmarshal(jb, &viaJSON)
		gb, _ := json.Marshal(got)
		if !bytes.Equal(jb, gb) {
			t.Fatalf("case %d: binary round trip drifted:\n json: %s\n  got: %s", ci, jb, gb)
		}
		if (req.Market == nil) != (got.Market == nil) {
			t.Fatalf("case %d: market nil-ness lost", ci)
		}
		if (req.PerGroupMasks == nil) != (got.PerGroupMasks == nil) {
			t.Fatalf("case %d: masks nil-ness lost", ci)
		}
		for g := range req.PerGroupMasks {
			if (req.PerGroupMasks[g] == nil) != (got.PerGroupMasks[g] == nil) {
				t.Fatalf("case %d: mask %d nil-ness lost", ci, g)
			}
		}
	}
}

func TestEstimateResponseBinaryRoundTrip(t *testing.T) {
	p := sampleProblem(t, 120, 3)
	est := diffusion.NewEstimator(p, 6, 13)
	resp := EstimateResponse{Samples: est.RunBatchSamples(groupsFor(p), nil, nil, true, 0, 6)}
	frame := resp.AppendBinary(nil)
	got, err := DecodeEstimateResponseBinary(frame)
	if err != nil {
		t.Fatal(err)
	}
	want := diffusion.ReduceSampleGrid(resp.Samples, p.NumItems())
	have := diffusion.ReduceSampleGrid(got.Samples, p.NumItems())
	requireSameEstimates(t, "binary response", want, have)
}

// TestFrameFlags pins the uncompressed framing: no frame kind sets
// flags bit 0 (version 1's DEFLATE flag), a large grid round-trips
// bit-exactly with its payload stored as is, and a frame with bit 0
// set is refused with a typed error before any payload decoding.
func TestFrameFlags(t *testing.T) {
	grid := make([][]diffusion.SampleResult, 4)
	for g := range grid {
		grid[g] = make([]diffusion.SampleResult, 512)
		for i := range grid[g] {
			grid[g][i] = diffusion.SampleResult{Sigma: float64(i) * 1.000000001, Adoptions: float64(i % 7)}
		}
		grid[g][0].Items, grid[g][0].Counts = []int32{1, 5, 9}, []float64{512, 1024, 512}
	}
	key := service.Key{Hi: 1, Lo: 2}.String()
	req := EstimateRequest{Problem: key, Hi: 1, Groups: [][]diffusion.Seed{{{User: 1, Item: 2, T: 1}}}}
	traced := req
	traced.TraceID, traced.SpanID = 7, 9
	reqFrame, err := req.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	tracedFrame, err := traced.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	resp := EstimateResponse{Samples: grid}
	frames := map[string][]byte{
		"problem":         EncodeProblem(sampleProblem(t, 120, 3)).AppendBinary(nil),
		"request":         reqFrame,
		"traced request":  tracedFrame,
		"response":        resp.AppendBinary(nil),
		"traced response": (&EstimateResponse{Samples: grid, Spans: []obs.SpanRec{{TraceID: 7, SpanID: 8, Name: "s"}}}).AppendBinary(nil),
	}
	for name, frame := range frames {
		if frame[3] != frameVersion || frame[5]&1 != 0 {
			t.Fatalf("%s frame: version %d flags %#02x, want version %d with bit 0 clear", name, frame[3], frame[5], frameVersion)
		}
	}
	got, err := DecodeEstimateResponseBinary(frames["response"])
	if err != nil {
		t.Fatal(err)
	}
	if want := diffusion.AppendSampleGrid(nil, grid); !bytes.Equal(frames["response"][frameHeaderLen:], want) {
		t.Fatal("response payload is not the plain sample-grid encoding")
	}
	for g := range grid {
		for i := range grid[g] {
			if math.Float64bits(grid[g][i].Sigma) != math.Float64bits(got.Samples[g][i].Sigma) {
				t.Fatalf("sample (%d,%d) sigma drifted through the frame", g, i)
			}
		}
	}
	for name, frame := range frames {
		bad := append([]byte(nil), frame...)
		bad[5] |= 1
		var fe *frameFlagsError
		if err := decodeFrame(bad); !errors.As(err, &fe) || fe.Flags != bad[5] {
			t.Fatalf("%s frame with bit 0 set: %v, want a *frameFlagsError", name, err)
		}
	}
}

// decodeFrame decodes frame with the decoder of its kind byte.
func decodeFrame(frame []byte) error {
	var err error
	switch frame[4] {
	case frameProblem:
		_, err = DecodeProblemUploadBinary(frame)
	case frameEstimateReq:
		_, err = DecodeEstimateRequestBinary(frame)
	case frameEstimateResp:
		_, err = DecodeEstimateResponseBinary(frame)
	default:
		err = errors.New("unknown frame kind")
	}
	return err
}

// TestFuzzSeedsOpen keeps the committed fuzz seeds on the current
// framing: each must pass openFrame's header check and decode, so the
// fuzzers start inside the payload decoders rather than at the version
// byte.
func TestFuzzSeedsOpen(t *testing.T) {
	kinds := map[string]byte{
		"FuzzDecodeProblemUploadBinary":    frameProblem,
		"FuzzDecodeEstimateRequestBinary":  frameEstimateReq,
		"FuzzDecodeEstimateResponseBinary": frameEstimateResp,
	}
	for target, kind := range kinds {
		files, err := filepath.Glob(filepath.Join("testdata", "fuzz", target, "*"))
		if err != nil || len(files) == 0 {
			t.Fatalf("%s: no committed seeds (%v)", target, err)
		}
		for _, f := range files {
			raw, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			header, lit, ok := strings.Cut(strings.TrimSpace(string(raw)), "\n")
			lit, ok2 := strings.CutPrefix(lit, "[]byte(")
			lit, ok3 := strings.CutSuffix(lit, ")")
			if header != "go test fuzz v1" || !ok || !ok2 || !ok3 {
				t.Fatalf("%s: not a one-[]byte corpus file", f)
			}
			frame, err := strconv.Unquote(lit)
			if err != nil {
				t.Fatalf("%s: %v", f, err)
			}
			if _, _, err := openFrame([]byte(frame), kind); err != nil {
				t.Fatalf("%s: %v", f, err)
			}
			if err := decodeFrame([]byte(frame)); err != nil {
				t.Fatalf("%s: header opens but payload does not decode: %v", f, err)
			}
		}
	}
}

// TestFrameRejectsDrift pins the typed failures: wrong magic, wrong
// version, wrong kind, truncation, and length-field lies all error
// before any payload decoding.
func TestFrameRejectsDrift(t *testing.T) {
	good := (&EstimateResponse{Samples: [][]diffusion.SampleResult{{}}}).AppendBinary(nil)
	mutations := map[string]func([]byte) []byte{
		"magic":     func(b []byte) []byte { b[0] = 'X'; return b },
		"version":   func(b []byte) []byte { b[3] = 99; return b },
		"kind":      func(b []byte) []byte { b[4] = frameProblem; return b },
		"truncated": func(b []byte) []byte { return b[:len(b)-1] },
		"length":    func(b []byte) []byte { b[6]++; return b },
		"short":     func(b []byte) []byte { return b[:4] },
	}
	for name, mutate := range mutations {
		b := mutate(append([]byte(nil), good...))
		if _, err := DecodeEstimateResponseBinary(b); err == nil {
			t.Fatalf("%s mutation decoded without error", name)
		}
	}
}

func FuzzDecodeProblemUploadBinary(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("IMB\x03\x01\x00\x00\x00\x00\x00"))
	f.Fuzz(func(t *testing.T, data []byte) {
		u, err := DecodeProblemUploadBinary(data)
		if err != nil {
			return
		}
		// a decodable frame must re-encode decodably (not necessarily
		// byte-identically: varint widths may differ)
		if _, err := DecodeProblemUploadBinary(u.AppendBinary(nil)); err != nil {
			t.Fatalf("re-encode of decoded upload failed: %v", err)
		}
	})
}

func FuzzDecodeEstimateRequestBinary(f *testing.F) {
	f.Add([]byte{})
	seed, _ := (&EstimateRequest{Problem: service.Key{}.String(), Hi: 1,
		Groups: [][]diffusion.Seed{{}}}).AppendBinary(nil)
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := DecodeEstimateRequestBinary(data)
		if err != nil {
			return
		}
		again, err := req.AppendBinary(nil)
		if err != nil {
			t.Fatalf("re-encode of decoded request failed: %v", err)
		}
		if _, err := DecodeEstimateRequestBinary(again); err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
	})
}

func FuzzDecodeEstimateResponseBinary(f *testing.F) {
	f.Add([]byte{})
	f.Add((&EstimateResponse{Samples: [][]diffusion.SampleResult{{{Sigma: 1.5, Items: []int32{2}, Counts: []float64{1}}}}}).AppendBinary(nil))
	f.Fuzz(func(t *testing.T, data []byte) {
		resp, err := DecodeEstimateResponseBinary(data)
		if err != nil {
			return
		}
		if _, err := DecodeEstimateResponseBinary(resp.AppendBinary(nil)); err != nil {
			t.Fatalf("re-encode of decoded response failed: %v", err)
		}
	})
}

// BenchmarkEstimateFrame encodes and decodes one realistic estimate
// response frame per op: the grid of a scheduling-shaped batch (a
// three-promotion schedule plus 16 candidates in promotion 4, under
// one market mask with π) over a 16-sample range, on the Amazon
// sample problem. B/frame is the frame's size on the wire.
func BenchmarkEstimateFrame(b *testing.B) {
	p := sampleProblem(b, 500, 4)
	n, items := p.NumUsers(), p.NumItems()
	var schedule []diffusion.Seed
	for t := 1; t <= 3; t++ {
		for j := 0; j < 3; j++ {
			u := (37*t + 11*j) % n
			schedule = append(schedule, diffusion.Seed{User: u, Item: (u * 7) % items, T: t})
		}
	}
	groups := [][]diffusion.Seed{schedule}
	for c := 0; c < 16; c++ {
		groups = append(groups, diffusion.WithSeed(schedule, diffusion.Seed{User: (5 + 13*c) % n, Item: (c * 3) % items, T: 4}))
	}
	market := make([]bool, n)
	for u := range market {
		market[u] = u%4 != 0
	}
	const span = 16
	resp := EstimateResponse{Samples: diffusion.NewEstimator(p, 64, 7).RunBatchSamples(groups, market, nil, true, 32, 32+span)}
	var frame []byte
	b.ReportAllocs()
	for b.Loop() {
		frame = resp.AppendBinary(frame[:0])
		if _, err := DecodeEstimateResponseBinary(frame); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(frame)), "B/frame")
}

// sampleBits pins, per frame version, the σ bits a local estimator
// draws for groupsFor's groups on sampleProblem(t, 120, 3) at M = 13,
// seed 99 (TestShardedBitIdenticalGolden's batch). A frame carries
// sample values, so a worker folds its bits into the coordinator's
// grid: a change that moves the engine's bits must bump frameVersion,
// so registration refuses workers built before it (DESIGN.md §8).
var sampleBits = map[int][]uint64{
	2: {0x400c13132cba26ec, 0x401a33f69ebf6845, 0x3fefa20e7e29aed9, 0}, // uniform-draw skips
	3: {0x400c13132cba26ec, 0x401884a70f538fa0, 0x3fe44fd121ef2f5e, 0}, // Exp-draw skips
}

// TestFrameVersionPinsSampleBits fails when the engine's sample bits
// move without a frameVersion bump (or a bump without their record).
func TestFrameVersionPinsSampleBits(t *testing.T) {
	p := sampleProblem(t, 120, 3)
	want, ok := sampleBits[frameVersion]
	if !ok {
		t.Fatalf("no sample bits recorded for frame version %d", frameVersion)
	}
	for g, est := range diffusion.NewEstimator(p, 13, 99).RunBatch(groupsFor(p), nil) {
		if got := math.Float64bits(est.Sigma); got != want[g] {
			t.Errorf("group %d: σ = %v (bits %#016x), frame version %d records %#016x: sample bits moved; bump frameVersion and record them", g, est.Sigma, got, frameVersion, want[g])
		}
	}
}
