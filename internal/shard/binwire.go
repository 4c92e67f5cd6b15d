package shard

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"
	"sort"

	"imdpp/internal/diffusion"
	"imdpp/internal/graph"
	"imdpp/internal/obs"
	"imdpp/internal/pin"
	"imdpp/internal/wirebin"
)

// Binary wire format of the shard RPC (DESIGN.md §8), its only wire
// format. The coordinator opens a stream with GET PathEstimate and
// Connection: Upgrade, Upgrade: imdpp-shard; once the worker answers
// 101 Switching Protocols, the connection carries frames only, one
// request frame answered by one reply frame at a time:
//
//	magic   [3]byte  "IMB"
//	version byte     4
//	kind    byte     frameProblem | frameEstimateReq (requests),
//	                 frameProblemAck | frameEstimateResp | frameError (replies)
//	flags   byte     bit 1: traced; every other bit must be clear
//	length  u32 LE   payload byte count
//	payload [length]byte
//
// The payload is a wirebin stream (little-endian, length-prefixed
// slices, tagged compact floats — see internal/wirebin). A problem
// upload is answered by an ack carrying the content address the worker
// computed, an estimate by its response, and any failure by an error
// frame with a typed code and message. Frames are self-describing
// enough to reject version or kind drift before any payload decoding;
// a worker closes the stream on a request frame of another version or
// kind, or one declaring a payload past maxFramePayload. Semantic
// compatibility between coordinator and worker builds is still gated
// by the content hash: a worker whose decoder disagrees with the
// coordinator's encoder lands on a different hash, and the upload fails
// loudly with hash_mismatch.
//
// There is no per-stream negotiation: frame-version compatibility is
// checked by the failure detector's /healthz probe (DESIGN.md §13),
// whose answer stays JSON.
//
// Payloads are never compressed: deflating and inflating an estimate
// response costs more CPU time than sending the bytes it saves takes on
// any link faster than about 65 Mb/s (DESIGN.md §8). Version 1 frames,
// which could be DEFLATE-compressed, and any frame with that flag (bit
// 0) set are refused.

// upgradeToken names the stream protocol in the Upgrade header.
const upgradeToken = "imdpp-shard"

// Frame kind bytes.
const (
	frameProblem      = 1
	frameEstimateReq  = 2
	frameEstimateResp = 3
	frameProblemAck   = 4
	frameError        = 5
)

const (
	// frameVersion 4 carries the same sample bits as version 3; it
	// marks the move from one HTTP POST per frame to upgraded streams.
	frameVersion = 4
	// flagTraced marks a frame whose payload ends with trace-context
	// fields (request: trace + parent span id; response: worker span
	// records, DESIGN.md §11). Untraced frames carry neither the bit
	// nor the fields. It is the only flag; a frame with any other bit
	// set is refused.
	flagTraced = 1 << 1
	// maxFramePayload bounds a declared payload so a hostile length
	// field cannot provoke an absurd allocation. 1 GiB is orders of
	// magnitude above any real grid.
	maxFramePayload = 1 << 30
)

var frameMagic = [3]byte{'I', 'M', 'B'}

// beginFrame starts a frame in place: the caller appends the header
// with it, then the payload, then calls finishFrame to patch the
// length.
func beginFrame(b []byte, kind, flags byte) []byte {
	b = append(b, frameMagic[0], frameMagic[1], frameMagic[2], frameVersion, kind, flags)
	b = wirebin.AppendU32(b, 0) // length, patched by finishFrame
	return b
}

const frameHeaderLen = 10

// finishFrame completes the frame begun at offset start in b by
// patching its length word.
func finishFrame(b []byte, start int) []byte {
	n := len(b) - start - frameHeaderLen
	b[start+6] = byte(n)
	b[start+7] = byte(n >> 8)
	b[start+8] = byte(n >> 16)
	b[start+9] = byte(n >> 24)
	return b
}

// openFrame validates a frame's header and returns its payload plus
// the flags byte, for decoders whose payload shape depends on a flag
// (flagTraced).
func openFrame(data []byte, wantKind byte) ([]byte, byte, error) {
	if len(data) < frameHeaderLen {
		return nil, 0, fmt.Errorf("shard: binary frame truncated at %d bytes", len(data))
	}
	if data[0] != frameMagic[0] || data[1] != frameMagic[1] || data[2] != frameMagic[2] {
		return nil, 0, fmt.Errorf("shard: bad frame magic %q", data[:3])
	}
	if data[3] != frameVersion {
		return nil, 0, fmt.Errorf("shard: unsupported frame version %d (want %d)", data[3], frameVersion)
	}
	if data[4] != wantKind {
		return nil, 0, fmt.Errorf("shard: frame kind %d, want %d", data[4], wantKind)
	}
	flags := data[5]
	if flags&^flagTraced != 0 {
		return nil, 0, &frameFlagsError{Flags: flags}
	}
	n := int(uint32(data[6]) | uint32(data[7])<<8 | uint32(data[8])<<16 | uint32(data[9])<<24)
	if n > maxFramePayload {
		return nil, 0, fmt.Errorf("shard: frame payload %d exceeds %d-byte bound", n, maxFramePayload)
	}
	if len(data) != frameHeaderLen+n {
		return nil, 0, fmt.Errorf("shard: frame length %d != header-declared %d", len(data)-frameHeaderLen, n)
	}
	return data[frameHeaderLen:], flags, nil
}

// readFrame reads one frame off a stream into buf, reusing its
// storage, and returns it whole for the decoder of its kind (openFrame
// checks the rest). A frame of another magic or version, or one
// declaring a payload past maxFramePayload, fails before anything is
// allocated for the payload; the payload's storage then grows only as
// its bytes arrive, so a length field alone cannot make the reader
// allocate. Any error leaves the stream out of step: close it.
func readFrame(r io.Reader, buf []byte) ([]byte, error) {
	buf = slices.Grow(buf[:0], frameHeaderLen)[:frameHeaderLen]
	if _, err := io.ReadFull(r, buf); err != nil {
		return buf, err
	}
	if buf[0] != frameMagic[0] || buf[1] != frameMagic[1] || buf[2] != frameMagic[2] {
		return buf, fmt.Errorf("shard: bad frame magic %q", buf[:3])
	}
	if buf[3] != frameVersion {
		return buf, fmt.Errorf("shard: unsupported frame version %d (want %d)", buf[3], frameVersion)
	}
	n := int(binary.LittleEndian.Uint32(buf[6:frameHeaderLen]))
	if n > maxFramePayload {
		return buf, fmt.Errorf("shard: frame payload %d exceeds %d-byte bound", n, maxFramePayload)
	}
	total := frameHeaderLen + n
	for len(buf) < total {
		if len(buf) == cap(buf) {
			buf = slices.Grow(buf, min(total-len(buf), max(len(buf), 64<<10)))
		}
		m, err := r.Read(buf[len(buf):min(cap(buf), total)])
		buf = buf[:len(buf)+m]
		if err != nil && len(buf) < total {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return buf, err
		}
	}
	return buf, nil
}

// appendAck appends the ack of a problem upload: the content address
// the worker computed over its decoded copy.
func appendAck(b []byte, key diffusion.Digest) []byte {
	start := len(b)
	b = beginFrame(b, frameProblemAck, 0)
	b = wirebin.AppendU64(b, key.Hi)
	b = wirebin.AppendU64(b, key.Lo)
	return finishFrame(b, start)
}

func decodeAck(data []byte) (diffusion.Digest, error) {
	payload, _, err := openFrame(data, frameProblemAck)
	if err != nil {
		return diffusion.Digest{}, err
	}
	r := wirebin.NewReader(payload)
	key := diffusion.Digest{Hi: r.U64(), Lo: r.U64()}
	return key, r.Done()
}

// appendError appends an error frame: the typed code and message of a
// request the worker refused or failed.
func appendError(b []byte, code string, err error) []byte {
	start := len(b)
	b = beginFrame(b, frameError, 0)
	b = wirebin.AppendString(b, code)
	b = wirebin.AppendString(b, err.Error())
	return finishFrame(b, start)
}

func decodeError(data []byte) error {
	payload, _, err := openFrame(data, frameError)
	if err != nil {
		return err
	}
	r := wirebin.NewReader(payload)
	se := &shardError{code: r.String(), msg: r.String()}
	if err := r.Done(); err != nil {
		return fmt.Errorf("shard: error frame: %w", err)
	}
	return se
}

// shardError is a worker's error frame, or a refusal of the
// coordinator's own, with its typed code.
type shardError struct {
	code string
	msg  string
}

func (e *shardError) Error() string {
	return fmt.Sprintf("shard rpc: code %q: %s", e.code, e.msg)
}

// frameFlagsError reports a frame whose flags byte sets a bit this
// version does not define — bit 0 among them, version 1's DEFLATE flag.
type frameFlagsError struct {
	Flags byte
}

func (e *frameFlagsError) Error() string {
	return fmt.Sprintf("shard: frame flags %#02x set undefined bits (only %#02x is defined)", e.Flags, flagTraced)
}

// AppendBinary appends the problem upload's binary frame to b.
func (u ProblemUpload) AppendBinary(b []byte) []byte {
	start := len(b)
	b = beginFrame(b, frameProblem, 0)
	b = wirebin.AppendUvarint(b, uint64(u.Users))
	b = wirebin.AppendUvarint(b, uint64(u.Items))
	b = u.Graph.AppendBinary(b)
	b = wirebin.AppendUvarint(b, uint64(u.NumC))
	b = wirebin.AppendFloats(b, u.InitWeights)
	b = pin.AppendRowsBinary(b, u.Rows)
	b = wirebin.AppendFloats(b, u.Importance)
	b = wirebin.AppendFloats(b, u.BasePref)
	b = wirebin.AppendFloats(b, u.Cost)
	b = wirebin.AppendFloat(b, u.Budget)
	b = wirebin.AppendUvarint(b, uint64(u.T))
	b = wirebin.AppendFloat(b, u.Params.Eta)
	b = wirebin.AppendFloat(b, u.Params.Lambda)
	b = wirebin.AppendFloat(b, u.Params.Gamma)
	b = wirebin.AppendFloat(b, u.Params.Chi)
	b = wirebin.AppendUvarint(b, uint64(u.Params.MaxSteps))
	b = wirebin.AppendU8(b, byte(u.Params.AIS))
	b = wirebin.AppendBool(b, u.Params.Static)
	return finishFrame(b, start)
}

// DecodeProblemUploadBinary reads one binary problem-upload frame. The
// result is untrusted: DecodeProblem performs the structural
// validation.
func DecodeProblemUploadBinary(data []byte) (ProblemUpload, error) {
	var u ProblemUpload
	payload, _, err := openFrame(data, frameProblem)
	if err != nil {
		return u, err
	}
	r := wirebin.NewReader(payload)
	users, items := r.Uvarint(), r.Uvarint()
	if users > math.MaxInt32 || items > math.MaxInt32 {
		return u, fmt.Errorf("shard: binary upload users/items %d/%d out of range", users, items)
	}
	u.Users, u.Items = int(users), int(items)
	if u.Graph, err = graph.DecodeBinaryExport(r); err != nil {
		return u, err
	}
	numC := r.Uvarint()
	if numC > math.MaxInt32 {
		return u, fmt.Errorf("shard: binary upload numC %d out of range", numC)
	}
	u.NumC = int(numC)
	u.InitWeights = r.Floats()
	if u.Rows, err = pin.DecodeRowsBinary(r); err != nil {
		return u, err
	}
	u.Importance = r.Floats()
	u.BasePref = r.Floats()
	u.Cost = r.Floats()
	u.Budget = r.Float()
	tt := r.Uvarint()
	if tt > math.MaxInt32 {
		return u, fmt.Errorf("shard: binary upload T %d out of range", tt)
	}
	u.T = int(tt)
	u.Params.Eta = r.Float()
	u.Params.Lambda = r.Float()
	u.Params.Gamma = r.Float()
	u.Params.Chi = r.Float()
	steps := r.Uvarint()
	if steps > math.MaxInt32 {
		return u, fmt.Errorf("shard: binary upload max_steps %d out of range", steps)
	}
	u.Params.MaxSteps = int(steps)
	u.Params.AIS = diffusion.AISModel(r.U8())
	u.Params.Static = r.Bool()
	if err := r.Done(); err != nil {
		return u, fmt.Errorf("shard: binary upload: %w", err)
	}
	return u, nil
}

// appendSeedGroups encodes seed groups; seeds are small non-negative
// triples in every valid request, but the codec passes any int through
// zig-zag varints so the worker-side range validation sees exactly
// what was sent.
func appendSeedGroups(b []byte, groups [][]diffusion.Seed) []byte {
	b = wirebin.AppendUvarint(b, uint64(len(groups)))
	for _, g := range groups {
		b = wirebin.AppendUvarint(b, uint64(len(g)))
		for _, s := range g {
			b = wirebin.AppendVarint(b, int64(s.User))
			b = wirebin.AppendVarint(b, int64(s.Item))
			b = wirebin.AppendVarint(b, int64(s.T))
		}
	}
	return b
}

func decodeSeedGroups(r *wirebin.Reader) ([][]diffusion.Seed, error) {
	k := r.Count(1)
	if r.Err() != nil {
		return nil, r.Err()
	}
	groups := make([][]diffusion.Seed, k)
	for g := range groups {
		n := r.Count(3)
		if r.Err() != nil {
			return nil, r.Err()
		}
		seeds := make([]diffusion.Seed, n)
		for i := range seeds {
			seeds[i].User = int(r.Varint())
			seeds[i].Item = int(r.Varint())
			seeds[i].T = int(r.Varint())
		}
		groups[g] = seeds
	}
	return groups, r.Err()
}

// appendOptInt32s encodes a possibly-nil id list: absence and an empty
// non-nil list stay distinguishable, matching the EstimateRequest
// contract for masks (nil = all users, empty = all-false).
func appendOptInt32s(b []byte, vs []int32) []byte {
	if vs == nil {
		return wirebin.AppendBool(b, false)
	}
	b = wirebin.AppendBool(b, true)
	return wirebin.AppendAscInt32s(b, vs)
}

func decodeOptInt32s(r *wirebin.Reader) []int32 {
	if !r.Bool() {
		return nil
	}
	vs := r.AscInt32s()
	if vs == nil && r.Err() == nil {
		vs = []int32{} // present-but-empty survives the round trip
	}
	return vs
}

// AppendBinary appends the estimate request's binary frame to b.
func (req *EstimateRequest) AppendBinary(b []byte) []byte {
	var flags byte
	if req.TraceID != 0 {
		flags = flagTraced
	}
	start := len(b)
	b = beginFrame(b, frameEstimateReq, flags)
	b = wirebin.AppendU64(b, req.Problem.Hi)
	b = wirebin.AppendU64(b, req.Problem.Lo)
	b = wirebin.AppendU64(b, req.Seed)
	b = wirebin.AppendVarint(b, int64(req.Lo))
	b = wirebin.AppendVarint(b, int64(req.Hi))
	b = wirebin.AppendBool(b, req.WithPi)
	b = appendSeedGroups(b, req.Groups)
	b = appendOptInt32s(b, req.Market)
	if req.PerGroupMasks == nil {
		b = wirebin.AppendBool(b, false)
	} else {
		b = wirebin.AppendBool(b, true)
		b = wirebin.AppendUvarint(b, uint64(len(req.PerGroupMasks)))
		for _, mask := range req.PerGroupMasks {
			b = appendOptInt32s(b, mask)
		}
	}
	if req.TraceID != 0 {
		b = wirebin.AppendU64(b, uint64(req.TraceID))
		b = wirebin.AppendU64(b, uint64(req.SpanID))
	}
	return finishFrame(b, start)
}

// DecodeEstimateRequestBinary reads one binary estimate-request frame.
func DecodeEstimateRequestBinary(data []byte) (EstimateRequest, error) {
	var req EstimateRequest
	payload, flags, err := openFrame(data, frameEstimateReq)
	if err != nil {
		return req, err
	}
	r := wirebin.NewReader(payload)
	req.Problem = diffusion.Digest{Hi: r.U64(), Lo: r.U64()}
	req.Seed = r.U64()
	req.Lo = int(r.Varint())
	req.Hi = int(r.Varint())
	req.WithPi = r.Bool()
	if req.Groups, err = decodeSeedGroups(r); err != nil {
		return req, fmt.Errorf("shard: binary estimate request: %w", err)
	}
	req.Market = decodeOptInt32s(r)
	if r.Bool() {
		n := r.Count(1)
		if r.Err() != nil {
			return req, fmt.Errorf("shard: binary estimate request: %w", r.Err())
		}
		req.PerGroupMasks = make([][]int32, n)
		for i := range req.PerGroupMasks {
			req.PerGroupMasks[i] = decodeOptInt32s(r)
		}
	}
	if flags&flagTraced != 0 {
		req.TraceID = obs.ID(r.U64())
		req.SpanID = obs.ID(r.U64())
	}
	if err := r.Done(); err != nil {
		return req, fmt.Errorf("shard: binary estimate request: %w", err)
	}
	return req, nil
}

// AppendBinary appends the estimate response's binary frame — the hot
// path, one frame per computed shard — to b.
func (resp *EstimateResponse) AppendBinary(b []byte) []byte {
	var flags byte
	if len(resp.Spans) > 0 {
		flags = flagTraced
	}
	start := len(b)
	b = beginFrame(b, frameEstimateResp, flags)
	b = diffusion.AppendSampleGrid(b, resp.Samples)
	if flags != 0 {
		b = appendSpanRecs(b, resp.Spans)
	}
	return finishFrame(b, start)
}

// appendSpanRecs encodes worker span records. Attr keys are sorted so
// equal records produce equal bytes — the canonical-encoding rule the
// rest of the codec follows.
func appendSpanRecs(b []byte, spans []obs.SpanRec) []byte {
	b = wirebin.AppendUvarint(b, uint64(len(spans)))
	for _, s := range spans {
		b = wirebin.AppendU64(b, uint64(s.TraceID))
		b = wirebin.AppendU64(b, uint64(s.SpanID))
		b = wirebin.AppendU64(b, uint64(s.Parent))
		b = wirebin.AppendString(b, s.Name)
		b = wirebin.AppendVarint(b, s.Start)
		b = wirebin.AppendVarint(b, s.DurNS)
		keys := make([]string, 0, len(s.Attrs))
		for k := range s.Attrs {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		b = wirebin.AppendUvarint(b, uint64(len(keys)))
		for _, k := range keys {
			b = wirebin.AppendString(b, k)
			b = wirebin.AppendString(b, s.Attrs[k])
		}
	}
	return b
}

func decodeSpanRecs(r *wirebin.Reader) []obs.SpanRec {
	// 3 u64 ids + name len + start + dur + attr count ≥ 28 bytes each
	n := r.Count(28)
	if r.Err() != nil || n == 0 {
		return nil
	}
	spans := make([]obs.SpanRec, n)
	for i := range spans {
		spans[i].TraceID = obs.ID(r.U64())
		spans[i].SpanID = obs.ID(r.U64())
		spans[i].Parent = obs.ID(r.U64())
		spans[i].Name = r.String()
		spans[i].Start = r.Varint()
		spans[i].DurNS = r.Varint()
		if na := r.Count(2); na > 0 {
			attrs := make(map[string]string, na)
			for j := 0; j < na; j++ {
				k := r.String()
				attrs[k] = r.String()
			}
			spans[i].Attrs = attrs
		}
	}
	return spans
}

// DecodeEstimateResponseBinary reads one binary estimate-response
// frame. The coordinator's validateSamples still runs on the result.
func DecodeEstimateResponseBinary(data []byte) (EstimateResponse, error) {
	var resp EstimateResponse
	payload, flags, err := openFrame(data, frameEstimateResp)
	if err != nil {
		return resp, err
	}
	r := wirebin.NewReader(payload)
	if resp.Samples, err = diffusion.DecodeSampleGrid(r); err != nil {
		return resp, err
	}
	if flags&flagTraced != 0 {
		resp.Spans = decodeSpanRecs(r)
	}
	if err := r.Done(); err != nil {
		return resp, fmt.Errorf("shard: binary estimate response: %w", err)
	}
	return resp, nil
}
