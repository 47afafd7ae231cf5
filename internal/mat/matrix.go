package mat

import (
	"fmt"
	"math"
)

// Dense is a row-major dense matrix of float64 values.
//
// The zero value is an empty 0x0 matrix; use New or one of the other
// constructors to create a sized matrix.
type Dense struct {
	rows, cols int
	data       []float64
}

// New returns a zeroed rows x cols matrix.
func New(rows, cols int) *Dense {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("mat: negative dimension %dx%d", rows, cols))
	}
	return &Dense{rows: rows, cols: cols, data: make([]float64, rows*cols)}
}

// NewFromData wraps data (row-major, length rows*cols) in a Dense without
// copying. Mutating the returned matrix mutates data.
func NewFromData(rows, cols int, data []float64) *Dense {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("mat: data length %d != %d*%d", len(data), rows, cols))
	}
	return &Dense{rows: rows, cols: cols, data: data}
}

// NewFromRows builds a matrix from a slice of equal-length rows, copying.
func NewFromRows(rows [][]float64) *Dense {
	if len(rows) == 0 {
		return New(0, 0)
	}
	c := len(rows[0])
	m := New(len(rows), c)
	for i, r := range rows {
		if len(r) != c {
			panic(fmt.Sprintf("mat: ragged rows: row %d has %d entries, want %d", i, len(r), c))
		}
		copy(m.data[i*c:(i+1)*c], r)
	}
	return m
}

// Rows returns the number of rows.
func (m *Dense) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Dense) Cols() int { return m.cols }

// At returns the element at row i, column j.
func (m *Dense) At(i, j int) float64 {
	m.check(i, j)
	return m.data[i*m.cols+j]
}

// Set assigns the element at row i, column j.
func (m *Dense) Set(i, j int, v float64) {
	m.check(i, j)
	m.data[i*m.cols+j] = v
}

func (m *Dense) check(i, j int) {
	if i < 0 || i >= m.rows || j < 0 || j >= m.cols {
		panic(fmt.Sprintf("mat: index (%d,%d) out of bounds %dx%d", i, j, m.rows, m.cols))
	}
}

// RawRow returns the i'th row as a slice aliasing the matrix storage.
func (m *Dense) RawRow(i int) []float64 {
	if i < 0 || i >= m.rows {
		panic(fmt.Sprintf("mat: row %d out of bounds %d", i, m.rows))
	}
	return m.data[i*m.cols : (i+1)*m.cols]
}

// Raw returns the underlying row-major storage, aliased.
func (m *Dense) Raw() []float64 { return m.data }

// SubRows returns the half-open row range [i, j) as a view aliasing the
// matrix storage — row-major layout makes any contiguous row band a
// valid matrix without copying. Mutations are visible through both.
func (m *Dense) SubRows(i, j int) *Dense {
	if i < 0 || j < i || j > m.rows {
		panic(fmt.Sprintf("mat: row range [%d,%d) out of bounds %d", i, j, m.rows))
	}
	return &Dense{rows: j - i, cols: m.cols, data: m.data[i*m.cols : j*m.cols]}
}

// Clone returns a deep copy of m.
func (m *Dense) Clone() *Dense {
	c := New(m.rows, m.cols)
	copy(c.data, m.data)
	return c
}

// CopyFrom copies src into m; dimensions must match.
func (m *Dense) CopyFrom(src *Dense) {
	if m.rows != src.rows || m.cols != src.cols {
		panic(fmt.Sprintf("mat: copy shape mismatch %dx%d vs %dx%d", m.rows, m.cols, src.rows, src.cols))
	}
	copy(m.data, src.data)
}

// T returns a new matrix that is the transpose of m.
func (m *Dense) T() *Dense {
	t := New(m.cols, m.rows)
	for i := 0; i < m.rows; i++ {
		row := m.data[i*m.cols : (i+1)*m.cols]
		for j, v := range row {
			t.data[j*t.cols+i] = v
		}
	}
	return t
}

// Add sets m = m + b element-wise.
func (m *Dense) Add(b *Dense) {
	m.sameShape(b, "Add")
	for i, v := range b.data {
		m.data[i] += v
	}
}

// Sub sets m = m - b element-wise.
func (m *Dense) Sub(b *Dense) {
	m.sameShape(b, "Sub")
	for i, v := range b.data {
		m.data[i] -= v
	}
}

// Scale multiplies every element of m by s.
func (m *Dense) Scale(s float64) {
	for i := range m.data {
		m.data[i] *= s
	}
}

// AddDiag adds v to every diagonal element of a square matrix.
func (m *Dense) AddDiag(v float64) {
	if m.rows != m.cols {
		panic("mat: AddDiag on non-square matrix")
	}
	for i := 0; i < m.rows; i++ {
		m.data[i*m.cols+i] += v
	}
}

// Diag returns a copy of the diagonal of a square matrix.
func (m *Dense) Diag() []float64 {
	if m.rows != m.cols {
		panic("mat: Diag on non-square matrix")
	}
	d := make([]float64, m.rows)
	for i := range d {
		d[i] = m.data[i*m.cols+i]
	}
	return d
}

// Trace returns the sum of diagonal elements of a square matrix.
func (m *Dense) Trace() float64 {
	if m.rows != m.cols {
		panic("mat: Trace on non-square matrix")
	}
	var t float64
	for i := 0; i < m.rows; i++ {
		t += m.data[i*m.cols+i]
	}
	return t
}

func (m *Dense) sameShape(b *Dense, op string) {
	if m.rows != b.rows || m.cols != b.cols {
		panic(fmt.Sprintf("mat: %s shape mismatch %dx%d vs %dx%d", op, m.rows, m.cols, b.rows, b.cols))
	}
}

// MaxAbs returns the largest absolute element value, or 0 for an empty matrix.
func (m *Dense) MaxAbs() float64 {
	var mx float64
	for _, v := range m.data {
		if a := math.Abs(v); a > mx {
			mx = a
		}
	}
	return mx
}

// Symmetrize replaces m with (m + mᵀ)/2; m must be square.
func (m *Dense) Symmetrize() {
	if m.rows != m.cols {
		panic("mat: Symmetrize on non-square matrix")
	}
	n := m.rows
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			v := 0.5 * (m.data[i*n+j] + m.data[j*n+i])
			m.data[i*n+j] = v
			m.data[j*n+i] = v
		}
	}
}

// String renders the matrix for debugging; large matrices are elided.
func (m *Dense) String() string {
	const maxShow = 8
	s := fmt.Sprintf("Dense %dx%d", m.rows, m.cols)
	if m.rows > maxShow || m.cols > maxShow {
		return s + " (elided)"
	}
	for i := 0; i < m.rows; i++ {
		s += "\n["
		for j := 0; j < m.cols; j++ {
			if j > 0 {
				s += " "
			}
			s += fmt.Sprintf("%9.4g", m.data[i*m.cols+j])
		}
		s += "]"
	}
	return s
}
