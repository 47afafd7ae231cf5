package mat

import (
	"fmt"
	"math"
)

// Vec is a dense float64 vector. Most routines treat it as a plain slice
// with linear-algebra helpers attached.
type Vec []float64

// NewVec returns a zeroed vector of length n.
func NewVec(n int) Vec { return make(Vec, n) }

// Clone returns a copy of v.
func (v Vec) Clone() Vec {
	c := make(Vec, len(v))
	copy(c, v)
	return c
}

// Dot returns vᵀw.
func Dot(v, w Vec) float64 {
	if len(v) != len(w) {
		panic(fmt.Sprintf("mat: Dot length mismatch %d vs %d", len(v), len(w)))
	}
	var s float64
	for i, x := range v {
		s += x * w[i]
	}
	return s
}

// Norm2 returns the Euclidean norm of v.
func Norm2(v Vec) float64 {
	// Scaled accumulation avoids overflow for extreme magnitudes.
	var scale, ssq float64 = 0, 1
	for _, x := range v {
		if x == 0 {
			continue
		}
		a := math.Abs(x)
		if scale < a {
			r := scale / a
			ssq = 1 + ssq*r*r
			scale = a
		} else {
			r := a / scale
			ssq += r * r
		}
	}
	return scale * math.Sqrt(ssq)
}

// NormInf returns the maximum absolute entry of v.
func NormInf(v Vec) float64 {
	var mx float64
	for _, x := range v {
		if a := math.Abs(x); a > mx {
			mx = a
		}
	}
	return mx
}

// Axpy sets y = a*x + y and returns y.
func Axpy(a float64, x, y Vec) Vec {
	if len(x) != len(y) {
		panic(fmt.Sprintf("mat: Axpy length mismatch %d vs %d", len(x), len(y)))
	}
	for i, xv := range x {
		y[i] += a * xv
	}
	return y
}

// ScaleVec multiplies every entry of v by a in place and returns v.
func ScaleVec(a float64, v Vec) Vec {
	for i := range v {
		v[i] *= a
	}
	return v
}

// AddVec returns x + y as a new vector.
func AddVec(x, y Vec) Vec {
	if len(x) != len(y) {
		panic(fmt.Sprintf("mat: AddVec length mismatch %d vs %d", len(x), len(y)))
	}
	out := make(Vec, len(x))
	for i := range x {
		out[i] = x[i] + y[i]
	}
	return out
}

// SubVec returns x - y as a new vector.
func SubVec(x, y Vec) Vec {
	if len(x) != len(y) {
		panic(fmt.Sprintf("mat: SubVec length mismatch %d vs %d", len(x), len(y)))
	}
	out := make(Vec, len(x))
	for i := range x {
		out[i] = x[i] - y[i]
	}
	return out
}

// MulVec returns m·v as a new vector.
func (m *Dense) MulVec(v Vec) Vec {
	if m.cols != len(v) {
		panic(fmt.Sprintf("mat: MulVec shape mismatch %dx%d · %d", m.rows, m.cols, len(v)))
	}
	out := make(Vec, m.rows)
	for i := 0; i < m.rows; i++ {
		row := m.data[i*m.cols : (i+1)*m.cols]
		var s float64
		for j, a := range row {
			s += a * v[j]
		}
		out[i] = s
	}
	return out
}

// MulVecT returns mᵀ·v as a new vector without forming the transpose.
func (m *Dense) MulVecT(v Vec) Vec {
	if m.rows != len(v) {
		panic(fmt.Sprintf("mat: MulVecT shape mismatch %dx%d ᵀ· %d", m.rows, m.cols, len(v)))
	}
	out := make(Vec, m.cols)
	for i := 0; i < m.rows; i++ {
		row := m.data[i*m.cols : (i+1)*m.cols]
		vi := v[i]
		if vi == 0 {
			continue
		}
		for j, a := range row {
			out[j] += a * vi
		}
	}
	return out
}
