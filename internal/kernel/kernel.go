package kernel

import (
	"fmt"
	"math"

	"repro/internal/mat"
)

// Bounds is an inclusive box constraint on one log-hyperparameter.
type Bounds struct {
	Lo, Hi float64
}

// Clamp returns v restricted to [Lo, Hi].
func (b Bounds) Clamp(v float64) float64 {
	if v < b.Lo {
		return b.Lo
	}
	if v > b.Hi {
		return b.Hi
	}
	return v
}

// DefaultBounds spans length scales / amplitudes from 1e-5 to 1e5.
var DefaultBounds = Bounds{Lo: math.Log(1e-5), Hi: math.Log(1e5)}

// Kernel is a positive semi-definite covariance function k(x, x') with
// differentiable log-hyperparameters.
type Kernel interface {
	// Eval returns k(x, y).
	Eval(x, y []float64) float64

	// EvalGrad returns k(x, y) and writes ∂k/∂θ_i into grad, where θ is
	// the log-hyperparameter vector. len(grad) must equal NumHyper.
	EvalGrad(x, y []float64, grad []float64) float64

	// NumHyper returns the number of hyperparameters.
	NumHyper() int

	// Hyper returns a copy of the current log-hyperparameters.
	Hyper() []float64

	// SetHyper replaces the log-hyperparameters.
	SetHyper(theta []float64)

	// Bounds returns per-hyperparameter log-space box constraints, one
	// entry per hyperparameter.
	Bounds() []Bounds

	// HyperNames returns a human-readable name per hyperparameter.
	HyperNames() []string

	// Name identifies the kernel family.
	Name() string
}

// Matrix fills the n x n covariance matrix K with K[i][j] = k(X_i, X_j),
// where X holds one input point per row.
func Matrix(k Kernel, x *mat.Dense) *mat.Dense {
	n := x.Rows()
	return MatrixInto(mat.New(n, n), k, x)
}

// MatrixInto is Matrix writing into dst, which must be n x n for the n
// rows of x; it returns dst.
func MatrixInto(dst *mat.Dense, k Kernel, x *mat.Dense) *mat.Dense {
	n := x.Rows()
	checkShape(dst, n, n, "MatrixInto")
	out := dst.Raw()
	for i := 0; i < n; i++ {
		xi := x.RawRow(i)
		for j := i; j < n; j++ {
			v := k.Eval(xi, x.RawRow(j))
			out[i*n+j] = v
			out[j*n+i] = v
		}
	}
	return dst
}

// DistanceKernel is the optional interface of isotropic kernels whose
// value depends on the inputs only through the squared Euclidean
// distance: k(x, y) = EvalSq(‖x−y‖²). Implementations unlock the
// cache-blocked cross-matrix assembly of CrossMatrixDist.
type DistanceKernel interface {
	Kernel
	EvalSq(d2 float64) float64
}

// CrossMatrixDist fills K*[i][j] = k(A_i, B_j) like CrossMatrix, but
// when k is a DistanceKernel it assembles the pairwise squared-distance
// matrix with mat.PairSqDist (the blocked-GEMM panel pattern) and maps
// it through EvalSq — the large-n path for sparse-GP Knm assembly.
// Non-distance kernels fall back to the generic evaluation loop.
// Note: the blocked distance uses ‖a‖²+‖b‖²−2a·b, which can differ from
// the direct (a−b)² form in the last floating-point bits; callers that
// pin bit-exact traces against the generic path should use CrossMatrix.
func CrossMatrixDist(k Kernel, a, b *mat.Dense) *mat.Dense {
	dk, ok := k.(DistanceKernel)
	if !ok {
		return CrossMatrix(k, a, b)
	}
	d2 := mat.PairSqDist(a, b)
	raw := d2.Raw()
	for i, v := range raw {
		raw[i] = dk.EvalSq(v)
	}
	return d2
}

// CrossMatrix fills the n x m matrix K* with K*[i][j] = k(A_i, B_j).
func CrossMatrix(k Kernel, a, b *mat.Dense) *mat.Dense {
	return CrossMatrixInto(mat.New(a.Rows(), b.Rows()), k, a, b)
}

// CrossMatrixInto is CrossMatrix writing into dst, which must be
// a.Rows() x b.Rows(); it returns dst.
func CrossMatrixInto(dst *mat.Dense, k Kernel, a, b *mat.Dense) *mat.Dense {
	m := b.Rows()
	checkShape(dst, a.Rows(), m, "CrossMatrixInto")
	out := dst.Raw()
	for i := 0; i < a.Rows(); i++ {
		ai := a.RawRow(i)
		row := out[i*m : (i+1)*m]
		for j := range row {
			row[j] = k.Eval(ai, b.RawRow(j))
		}
	}
	return dst
}

// MatrixGrad fills K and one gradient matrix per hyperparameter:
// grads[p][i][j] = ∂k(X_i, X_j)/∂θ_p. Used by the LML gradient.
func MatrixGrad(k Kernel, x *mat.Dense) (kmat *mat.Dense, grads []*mat.Dense) {
	n := x.Rows()
	kmat = mat.New(n, n)
	grads = make([]*mat.Dense, k.NumHyper())
	for p := range grads {
		grads[p] = mat.New(n, n)
	}
	MatrixGradInto(kmat, grads, k, x)
	return kmat, grads
}

// MatrixGradInto is MatrixGrad writing into kmat and grads, which must
// hold n x n matrices, one gradient matrix per hyperparameter. The LML
// optimizer calls it once per evaluation on buffers reused across a fit.
func MatrixGradInto(kmat *mat.Dense, grads []*mat.Dense, k Kernel, x *mat.Dense) {
	n := x.Rows()
	checkShape(kmat, n, n, "MatrixGradInto")
	checkHyperLen(len(grads), k.NumHyper(), "MatrixGradInto")
	for _, gm := range grads {
		checkShape(gm, n, n, "MatrixGradInto")
	}
	out := kmat.Raw()
	g := make([]float64, len(grads))
	for i := 0; i < n; i++ {
		xi := x.RawRow(i)
		for j := i; j < n; j++ {
			v := k.EvalGrad(xi, x.RawRow(j), g)
			out[i*n+j] = v
			out[j*n+i] = v
			for p, gv := range g {
				gr := grads[p].Raw()
				gr[i*n+j] = gv
				gr[j*n+i] = gv
			}
		}
	}
}

// sqDist returns |x-y|² and panics on dimension mismatch.
func sqDist(x, y []float64) float64 {
	if len(x) != len(y) {
		panic(fmt.Sprintf("kernel: dimension mismatch %d vs %d", len(x), len(y)))
	}
	var s float64
	for i, xv := range x {
		d := xv - y[i]
		s += d * d
	}
	return s
}

func checkShape(m *mat.Dense, rows, cols int, op string) {
	if m.Rows() != rows || m.Cols() != cols {
		panic(fmt.Sprintf("kernel: %s wants %dx%d, got %dx%d", op, rows, cols, m.Rows(), m.Cols()))
	}
}

func checkHyperLen(got, want int, name string) {
	if got != want {
		panic(fmt.Sprintf("kernel: %s expects %d hyperparameters, got %d", name, want, got))
	}
}
