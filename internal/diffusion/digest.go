package diffusion

import (
	"encoding/binary"
	"encoding/hex"
	"math"
)

const (
	fnvOffset uint64 = 14695981039346656037
	fnvPrime  uint64 = 1099511628211
)

// Digest is a two-lane FNV-1a over 64-bit words (one multiply per
// word instead of per byte: the matrices dominate and hashing must
// stay cheap next to a solve). The second lane starts from a
// different offset and rotates between words so the lanes stay
// decorrelated, giving a 128-bit content address. ContentDigest is a
// problem's: the key of the grid and sketch cache lanes and of shard
// uploads. The serving layer mixes its solve options into a copy of
// it to key a request.
type Digest struct {
	Hi, Lo uint64
}

// String renders the digest as 32 lower-case hex digits, Hi then Lo.
func (d Digest) String() string {
	b := binary.BigEndian.AppendUint64(binary.BigEndian.AppendUint64(make([]byte, 0, 16), d.Hi), d.Lo)
	return string(hex.AppendEncode(make([]byte, 0, 32), b))
}

// U64 mixes one word.
func (d *Digest) U64(x uint64) {
	d.Hi = (d.Hi ^ x) * fnvPrime
	d.Lo = (d.Lo ^ x) * fnvPrime
	d.Lo = d.Lo<<13 | d.Lo>>51
}

// Int mixes x as a 64-bit word.
func (d *Digest) Int(x int) { d.U64(uint64(int64(x))) }

// Float mixes the bits of x.
func (d *Digest) Float(x float64) { d.U64(math.Float64bits(x)) }

// Bool mixes v as 1 or 0.
func (d *Digest) Bool(v bool) {
	if v {
		d.U64(1)
	} else {
		d.U64(0)
	}
}

func (d *Digest) floats(xs []float64) {
	d.Int(len(xs))
	for _, x := range xs {
		d.Float(x)
	}
}

// ContentDigest returns the content address of p: the digest of every
// input the diffusion dynamics observe, so problems with equal digests
// estimate bit-identically. It walks the whole substrate (graph CSR,
// PIN rows and initial weights, economic tables), then the campaign.
// The substrate's walk is memoized, so over a warm substrate it mixes
// in the campaign's dozen words only.
func (p *Problem) ContentDigest() Digest {
	s := p.Substrate
	s.digestOnce.Do(func() {
		s.digest = Digest{Hi: fnvOffset, Lo: fnvOffset ^ 0x9e3779b97f4a7c15} // the empty digest
		s.hashTo(&s.digest)
	})
	d := s.digest
	p.hashCampaign(&d)
	return d
}

func (s *Substrate) hashTo(d *Digest) {
	n := s.NumUsers()
	items := s.NumItems()
	d.Int(n)
	d.Int(items)
	d.Bool(s.G.Directed())

	// social graph: CSR out-adjacency (arcs are sorted by target at
	// Build(), so equal edge multisets hash equally regardless of
	// insertion order — the same canonicalisation the determinism
	// contract relies on)
	for u := 0; u < n; u++ {
		arcs := s.G.Out(u)
		d.Int(arcs.Len())
		for i, v := range arcs.To {
			d.Int(int(v))
			d.Float(arcs.W[i])
		}
	}

	// PIN model: initial meta-graph weights plus the merged relevance
	// rows — everything the diffusion dynamics read from the
	// knowledge-graph side
	d.floats(s.PIN.InitWeights)
	d.Int(s.PIN.NumC())
	for x := 0; x < items; x++ {
		row := s.PIN.Row(x)
		d.Int(len(row))
		for _, pr := range row {
			d.Int(int(pr.Y))
			d.Int(len(pr.Contribs))
			for _, c := range pr.Contribs {
				d.Int(int(c.Meta))
				d.Float(c.S)
			}
		}
	}

	d.floats(s.Importance)
	for u := 0; u < n; u++ {
		d.floats(s.BasePref.Row(u))
	}
	for u := 0; u < n; u++ {
		d.floats(s.Cost.Row(u))
	}
}

func (p *Problem) hashCampaign(d *Digest) {
	d.Float(p.Budget)
	d.Int(p.T)

	pr := p.Params
	d.Float(pr.Eta)
	d.Float(pr.Lambda)
	d.Float(pr.Gamma)
	d.Float(pr.Chi)
	d.Int(pr.MaxSteps)
	d.Int(int(pr.AIS))
	d.Bool(pr.Static)
}
