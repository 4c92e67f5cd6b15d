package diffusion

import (
	"fmt"

	"imdpp/internal/wirebin"
)

// Binary codec of the per-sample outcome grid — the hot path of the
// shard estimator RPC (DESIGN.md §8). A sample is four floats: σ,
// market σ and π are genuine floats, the adoption total is a small
// integer in float64 clothing; the wirebin compact float makes such
// integers 2 bytes and keeps the floats bit-exact. Per-item counts are
// row totals carried by a row's first sample only (SampleResult), so a
// row's item entries are written once, not once per sample; their
// sparse ids, ascending as RunBatchSamples appends them, encode as
// ascending deltas. Shipping the grid binary instead of JSON changes
// no decoded bit, so the §7 merge contract (per-sample shipping +
// canonical fold) is untouched; the golden tests in internal/shard pin
// that.

// AppendSampleGrid appends the binary image of a (group × sample)
// outcome grid to b. Rows may have differing lengths (each carries its
// own span), matching the EstimateResponse JSON shape exactly.
func AppendSampleGrid(b []byte, grid [][]SampleResult) []byte {
	b = wirebin.AppendUvarint(b, uint64(len(grid)))
	for _, row := range grid {
		b = wirebin.AppendUvarint(b, uint64(len(row)))
		for i := range row {
			s := &row[i]
			b = wirebin.AppendFloat(b, s.Sigma)
			b = wirebin.AppendFloat(b, s.MarketSigma)
			b = wirebin.AppendFloat(b, s.Pi)
			b = wirebin.AppendFloat(b, s.Adoptions)
			b = wirebin.AppendAscInt32s(b, s.Items)
			for _, c := range s.Counts {
				b = wirebin.AppendFloat(b, c)
			}
		}
	}
	return b
}

// DecodeSampleGrid reads a grid written by AppendSampleGrid. Counts
// reuse the Items length (the two slices are parallel by the
// SampleResult contract), so a decoded sample can never carry an
// items/counts length mismatch; item ids are not checked here, that is
// ValidateSampleRow's job.
func DecodeSampleGrid(r *wirebin.Reader) ([][]SampleResult, error) {
	k := r.Count(1)
	if r.Err() != nil {
		return nil, fmt.Errorf("diffusion: decode sample grid: %w", r.Err())
	}
	grid := make([][]SampleResult, k)
	for g := range grid {
		span := r.Count(8) // 4 compact floats + items count ≥ 8 bytes each
		if r.Err() != nil {
			return nil, fmt.Errorf("diffusion: decode sample grid: %w", r.Err())
		}
		row := make([]SampleResult, span)
		for i := range row {
			s := &row[i]
			s.Sigma = r.Float()
			s.MarketSigma = r.Float()
			s.Pi = r.Float()
			s.Adoptions = r.Float()
			s.Items = r.AscInt32s()
			if len(s.Items) > 0 {
				if r.Err() != nil {
					return nil, fmt.Errorf("diffusion: decode sample grid: %w", r.Err())
				}
				s.Counts = make([]float64, len(s.Items))
				for j := range s.Counts {
					s.Counts[j] = r.Float()
				}
			}
		}
		grid[g] = row
	}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("diffusion: decode sample grid: %w", err)
	}
	return grid, nil
}
