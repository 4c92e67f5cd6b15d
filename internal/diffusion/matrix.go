package diffusion

import "fmt"

// Matrix is the per-(user,item) scalar table behind Problem.BasePref
// and Problem.Cost. It is an accessor type: callers address cells by
// (user, item) and never see the storage, so the dense row-major
// backing used today is an implementation detail — a sharded or
// memory-mapped backend can replace it without touching consumers.
//
// The zero Matrix is empty (0×0). Matrix values share their backing
// when copied, like slices.
type Matrix struct {
	cols int
	data []float64
}

// NewMatrix allocates a zeroed rows×cols matrix.
func NewMatrix(rows, cols int) Matrix {
	return Matrix{cols: cols, data: make([]float64, rows*cols)}
}

// MatrixFrom wraps an existing row-major slice as a matrix with the
// given number of columns, without copying. It panics when the slice
// does not divide evenly into rows.
func MatrixFrom(data []float64, cols int) Matrix {
	if cols <= 0 {
		panic("diffusion: MatrixFrom needs cols > 0")
	}
	if len(data)%cols != 0 {
		panic(fmt.Sprintf("diffusion: MatrixFrom len %d not divisible by cols %d", len(data), cols))
	}
	return Matrix{cols: cols, data: data}
}

// Rows returns the number of rows.
func (m Matrix) Rows() int {
	if m.cols == 0 {
		return 0
	}
	return len(m.data) / m.cols
}

// Cols returns the number of columns.
func (m Matrix) Cols() int { return m.cols }

// At returns the cell (r, c).
func (m Matrix) At(r, c int) float64 { return m.data[r*m.cols+c] }

// Row returns a mutable view of row r. Dataset generators fill
// matrices through row views; the diffusion engine only reads.
func (m Matrix) Row(r int) []float64 { return m.data[r*m.cols : (r+1)*m.cols] }

// Data returns the row-major backing slice without copying — the wire
// codec of the shard subsystem serialises matrices through it. The
// view must be treated as read-only by anyone other than the matrix's
// creator.
func (m Matrix) Data() []float64 { return m.data }
