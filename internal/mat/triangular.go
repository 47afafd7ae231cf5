package mat

import "fmt"

// ForwardSubst solves L·y = b where L is lower triangular (only the lower
// triangle of l is read) and returns y.
func ForwardSubst(l *Dense, b Vec) Vec {
	n := l.rows
	if l.cols != n || len(b) != n {
		panic(fmt.Sprintf("mat: ForwardSubst shapes %dx%d, b %d", l.rows, l.cols, len(b)))
	}
	y := b.Clone()
	forwardSubstInPlace(l, y, 0)
	return y
}

// forwardSubstInPlace overwrites y with the solution of L·x = y. The
// caller guarantees y[:from] is zero; since L is nonsingular the
// solution is zero there too, so the solve starts at row from and sums
// only columns ≥ from. For a factor with finite entries the skipped
// terms are all ±0 and would not change a single bit of the result.
func forwardSubstInPlace(l *Dense, y Vec, from int) {
	n := l.rows
	for i := from; i < n; i++ {
		row := l.data[i*n+from : i*n+i]
		s := y[i]
		for k, v := range row {
			s -= v * y[from+k]
		}
		y[i] = s / l.data[i*n+i]
	}
}

// BackSubstT solves Lᵀ·x = y where L is lower triangular, without forming
// the transpose, and returns x.
func BackSubstT(l *Dense, y Vec) Vec {
	n := l.rows
	if l.cols != n || len(y) != n {
		panic(fmt.Sprintf("mat: BackSubstT shapes %dx%d, y %d", l.rows, l.cols, len(y)))
	}
	x := y.Clone()
	backSubstTInPlace(l, x)
	return x
}

// backSubstTInPlace overwrites x with the solution of Lᵀ·z = x.
func backSubstTInPlace(l *Dense, x Vec) {
	n := l.rows
	for i := n - 1; i >= 0; i-- {
		x[i] /= l.data[i*n+i]
		xi := x[i]
		// Subtract column i of Lᵀ (= row entries l[i][0..i-1] transposed).
		for k := 0; k < i; k++ {
			x[k] -= l.data[i*n+k] * xi
		}
	}
}

// BackSubst solves U·x = b where U is upper triangular (only the upper
// triangle of u is read) and returns x.
func BackSubst(u *Dense, b Vec) Vec {
	n := u.rows
	if u.cols != n || len(b) != n {
		panic(fmt.Sprintf("mat: BackSubst shapes %dx%d, b %d", u.rows, u.cols, len(b)))
	}
	x := make(Vec, n)
	for i := n - 1; i >= 0; i-- {
		s := b[i]
		row := u.data[i*n : (i+1)*n]
		for k := i + 1; k < n; k++ {
			s -= row[k] * x[k]
		}
		x[i] = s / row[i]
	}
	return x
}

// ForwardSubstMat solves L·Y = B for the matrix Y, column by column.
func ForwardSubstMat(l, b *Dense) *Dense {
	if l.rows != b.rows {
		panic(fmt.Sprintf("mat: ForwardSubstMat rows %d vs %d", l.rows, b.rows))
	}
	y := New(b.rows, b.cols)
	col := make(Vec, b.rows)
	for j := 0; j < b.cols; j++ {
		for i := 0; i < b.rows; i++ {
			col[i] = b.data[i*b.cols+j]
		}
		sol := ForwardSubst(l, col)
		for i := 0; i < b.rows; i++ {
			y.data[i*b.cols+j] = sol[i]
		}
	}
	return y
}
