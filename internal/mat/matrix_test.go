package mat

import (
	"math"
	"math/rand"
	"testing"
)

func almostEq(a, b, tol float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return false
	}
	d := math.Abs(a - b)
	if d <= tol {
		return true
	}
	return d <= tol*math.Max(math.Abs(a), math.Abs(b))
}

// eye returns the n×n identity matrix.
func eye(n int) *Dense {
	m := New(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// outer returns the outer product x yᵀ.
func outer(x, y Vec) *Dense {
	m := New(len(x), len(y))
	for i, xv := range x {
		for j, yv := range y {
			m.Set(i, j, xv*yv)
		}
	}
	return m
}

// isSymmetric reports whether m is square and symmetric to within tol.
func isSymmetric(m *Dense, tol float64) bool {
	if m.Rows() != m.Cols() {
		return false
	}
	for i := 0; i < m.Rows(); i++ {
		for j := i + 1; j < m.Cols(); j++ {
			if math.Abs(m.At(i, j)-m.At(j, i)) > tol {
				return false
			}
		}
	}
	return true
}

func randomDense(rng *rand.Rand, r, c int) *Dense {
	m := New(r, c)
	for i := range m.data {
		m.data[i] = rng.NormFloat64()
	}
	return m
}

// randomSPD builds a well-conditioned SPD matrix A = GᵀG + n·I.
func randomSPD(rng *rand.Rand, n int) *Dense {
	g := randomDense(rng, n, n)
	a := SyrkT(g)
	a.AddDiag(float64(n))
	return a
}

func TestNewAndAtSet(t *testing.T) {
	m := New(3, 4)
	if m.Rows() != 3 || m.Cols() != 4 {
		t.Fatalf("shape = %dx%d, want 3x4", m.Rows(), m.Cols())
	}
	m.Set(1, 2, 7.5)
	if got := m.At(1, 2); got != 7.5 {
		t.Fatalf("At(1,2) = %g, want 7.5", got)
	}
	if got := m.At(0, 0); got != 0 {
		t.Fatalf("zero value not zero: %g", got)
	}
}

func TestNewFromRows(t *testing.T) {
	m := NewFromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	if m.Rows() != 3 || m.Cols() != 2 {
		t.Fatalf("shape = %dx%d", m.Rows(), m.Cols())
	}
	if m.At(2, 1) != 6 {
		t.Fatalf("At(2,1) = %g", m.At(2, 1))
	}
	// Copies: mutating the source must not change the matrix.
	src := [][]float64{{9}}
	m2 := NewFromRows(src)
	src[0][0] = -1
	if m2.At(0, 0) != 9 {
		t.Fatal("NewFromRows did not copy")
	}
}

func TestNewFromRowsRaggedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on ragged rows")
		}
	}()
	NewFromRows([][]float64{{1, 2}, {3}})
}

func TestOutOfBoundsPanics(t *testing.T) {
	m := New(2, 2)
	for _, f := range []func(){
		func() { m.At(2, 0) },
		func() { m.At(0, -1) },
		func() { m.Set(-1, 0, 1) },
		func() { m.RawRow(5) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected bounds panic")
				}
			}()
			f()
		}()
	}
}

func TestTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := randomDense(rng, 5, 3)
	tr := m.T()
	if tr.Rows() != 3 || tr.Cols() != 5 {
		t.Fatalf("Tᵀ shape %dx%d", tr.Rows(), tr.Cols())
	}
	for i := 0; i < 5; i++ {
		for j := 0; j < 3; j++ {
			if m.At(i, j) != tr.At(j, i) {
				t.Fatalf("transpose mismatch at %d,%d", i, j)
			}
		}
	}
	// Double transpose restores.
	trtr := tr.T()
	for i := range m.data {
		if m.data[i] != trtr.data[i] {
			t.Fatal("double transpose differs")
		}
	}
}

func TestAddSubScale(t *testing.T) {
	a := NewFromRows([][]float64{{1, 2}, {3, 4}})
	b := NewFromRows([][]float64{{10, 20}, {30, 40}})
	c := a.Clone()
	c.Add(b)
	if c.At(1, 1) != 44 {
		t.Fatalf("Add: %g", c.At(1, 1))
	}
	c.Sub(b)
	for i := range a.data {
		if c.data[i] != a.data[i] {
			t.Fatal("Add then Sub is not identity")
		}
	}
	c.Scale(2)
	if c.At(0, 1) != 4 {
		t.Fatalf("Scale: %g", c.At(0, 1))
	}
}

func TestAddDiagTraceDiag(t *testing.T) {
	m := eye(3)
	m.AddDiag(2)
	if m.Trace() != 9 {
		t.Fatalf("Trace = %g, want 9", m.Trace())
	}
	d := m.Diag()
	for _, v := range d {
		if v != 3 {
			t.Fatalf("Diag entry %g, want 3", v)
		}
	}
}

func TestNorms(t *testing.T) {
	m := NewFromRows([][]float64{{1, -2}, {-3, 4}})
	if got := m.MaxAbs(); got != 4 {
		t.Fatalf("MaxAbs = %g, want 4", got)
	}
}

func TestSymmetric(t *testing.T) {
	m := NewFromRows([][]float64{{1, 2}, {2.0000001, 1}})
	if isSymmetric(m, 1e-9) {
		t.Fatal("should not be symmetric at tol 1e-9")
	}
	if !isSymmetric(m, 1e-3) {
		t.Fatal("should be symmetric at tol 1e-3")
	}
	m.Symmetrize()
	if !isSymmetric(m, 0) {
		t.Fatal("Symmetrize failed")
	}
}

func TestCloneIndependence(t *testing.T) {
	a := NewFromRows([][]float64{{1, 2}})
	b := a.Clone()
	b.Set(0, 0, 99)
	if a.At(0, 0) != 1 {
		t.Fatal("Clone aliases source")
	}
}

func TestCopyFrom(t *testing.T) {
	a := New(2, 2)
	b := NewFromRows([][]float64{{1, 2}, {3, 4}})
	a.CopyFrom(b)
	if a.At(1, 0) != 3 {
		t.Fatal("CopyFrom failed")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected shape panic")
		}
	}()
	a.CopyFrom(New(3, 3))
}

func TestNewFromDataAliases(t *testing.T) {
	d := []float64{1, 2, 3, 4}
	m := NewFromData(2, 2, d)
	d[3] = 40
	if m.At(1, 1) != 40 {
		t.Fatal("NewFromData should alias")
	}
}

func TestStringSmallAndElided(t *testing.T) {
	small := eye(2)
	if s := small.String(); s == "" {
		t.Fatal("empty String")
	}
	big := New(20, 20)
	if s := big.String(); s != "Dense 20x20 (elided)" {
		t.Fatalf("big String = %q", s)
	}
}
