package kernel

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/mat"
)

// refKernel recomputes every θ-derived value (exp(log l), exp(2 log σf),
// …) on each call, exactly as the kernels did before they cached them.
// The cached kernels must match these formulas bit for bit.
type refKernel struct {
	k         Kernel
	eval      func(th, x, y []float64) float64
	evalGrad  func(th, x, y, g []float64) float64
	evalSq    func(th []float64, d2 float64) float64 // nil unless k is a DistanceKernel
	inputGrad func(th, x, y, g []float64) float64    // nil unless k is an InputGradient
}

func refRBFEval(th, x, y []float64) float64 {
	l := math.Exp(th[0])
	sf2 := math.Exp(2 * th[1])
	return sf2 * math.Exp(-sqDist(x, y)/(2*l*l))
}

func refPeriodicEval(th, x, y []float64) float64 {
	l := math.Exp(th[0])
	sf2 := math.Exp(2 * th[1])
	p := math.Exp(th[2])
	s := math.Sin(math.Pi * math.Sqrt(sqDist(x, y)) / p)
	return sf2 * math.Exp(-2*s*s/(l*l))
}

func refRBFGrad(th, x, y, g []float64) float64 {
	l := math.Exp(th[0])
	sf2 := math.Exp(2 * th[1])
	r2 := sqDist(x, y)
	v := sf2 * math.Exp(-r2/(2*l*l))
	g[0] = v * r2 / (l * l)
	g[1] = 2 * v
	return v
}

func refPeriodicGrad(th, x, y, g []float64) float64 {
	l := math.Exp(th[0])
	sf2 := math.Exp(2 * th[1])
	p := math.Exp(th[2])
	r := math.Sqrt(sqDist(x, y))
	u := math.Pi * r / p
	s := math.Sin(u)
	v := sf2 * math.Exp(-2*s*s/(l*l))
	g[0] = v * 4 * s * s / (l * l)
	g[1] = 2 * v
	g[2] = v * 4 * s * math.Cos(u) * u / (l * l)
	return v
}

func refARDEval(th, x, y []float64) float64 {
	var s float64
	for d, xv := range x {
		l := math.Exp(th[d])
		dd := (xv - y[d]) / l
		s += dd * dd
	}
	return math.Exp(2*th[len(x)]) * math.Exp(-0.5*s)
}

func refKernels() []refKernel {
	return []refKernel{
		{
			k:        NewRBF(1.3, 0.8),
			eval:     refRBFEval,
			evalGrad: refRBFGrad,
			evalSq: func(th []float64, d2 float64) float64 {
				l := math.Exp(th[0])
				sf2 := math.Exp(2 * th[1])
				return sf2 * math.Exp(-d2/(2*l*l))
			},
			inputGrad: func(th, x, y, g []float64) float64 {
				l := math.Exp(th[0])
				v := refRBFEval(th, x, y)
				inv := 1 / (l * l)
				for d := range x {
					g[d] = -v * (x[d] - y[d]) * inv
				}
				return v
			},
		},
		{
			k:    NewARD([]float64{0.5, 2.0, 1.1}, 1.5),
			eval: refARDEval,
			evalGrad: func(th, x, y, g []float64) float64 {
				var s float64
				scaled := make([]float64, len(x))
				for d, xv := range x {
					l := math.Exp(th[d])
					dd := (xv - y[d]) / l
					scaled[d] = dd * dd
					s += scaled[d]
				}
				v := math.Exp(2*th[len(x)]) * math.Exp(-0.5*s)
				for d := range x {
					g[d] = v * scaled[d]
				}
				g[len(x)] = 2 * v
				return v
			},
			inputGrad: func(th, x, y, g []float64) float64 {
				v := refARDEval(th, x, y)
				for d := range x {
					l := math.Exp(th[d])
					g[d] = -v * (x[d] - y[d]) / (l * l)
				}
				return v
			},
		},
		{
			k: NewMatern32(0.9, 1.2),
			eval: func(th, x, y []float64) float64 {
				l := math.Exp(th[0])
				sf2 := math.Exp(2 * th[1])
				a := math.Sqrt(3*sqDist(x, y)) / l
				return sf2 * (1 + a) * math.Exp(-a)
			},
			evalGrad: func(th, x, y, g []float64) float64 {
				l := math.Exp(th[0])
				sf2 := math.Exp(2 * th[1])
				a := math.Sqrt(3*sqDist(x, y)) / l
				e := math.Exp(-a)
				v := sf2 * (1 + a) * e
				g[0] = sf2 * a * a * e
				g[1] = 2 * v
				return v
			},
		},
		{
			k: NewMatern52(1.7, 0.6),
			eval: func(th, x, y []float64) float64 {
				l := math.Exp(th[0])
				sf2 := math.Exp(2 * th[1])
				r2 := sqDist(x, y)
				a := math.Sqrt(5*r2) / l
				return sf2 * (1 + a + a*a/3) * math.Exp(-a)
			},
			evalGrad: func(th, x, y, g []float64) float64 {
				l := math.Exp(th[0])
				sf2 := math.Exp(2 * th[1])
				a := math.Sqrt(5*sqDist(x, y)) / l
				e := math.Exp(-a)
				v := sf2 * (1 + a + a*a/3) * e
				g[0] = sf2 * e * a * a * (1 + a) / 3
				g[1] = 2 * v
				return v
			},
			inputGrad: func(th, x, y, g []float64) float64 {
				l := math.Exp(th[0])
				sf2 := math.Exp(2 * th[1])
				r2 := sqDist(x, y)
				a := math.Sqrt(5*r2) / l
				e := math.Exp(-a)
				v := sf2 * (1 + a + a*a/3) * e
				coef := -sf2 * 5 / (3 * l * l) * (1 + a) * e
				for d := range x {
					g[d] = coef * (x[d] - y[d])
				}
				return v
			},
		},
		{
			k: NewRationalQuadratic(1.1, 0.9, 2.0),
			eval: func(th, x, y []float64) float64 {
				l := math.Exp(th[0])
				sf2 := math.Exp(2 * th[1])
				alpha := math.Exp(th[2])
				base := 1 + sqDist(x, y)/(2*alpha*l*l)
				return sf2 * math.Pow(base, -alpha)
			},
			evalGrad: func(th, x, y, g []float64) float64 {
				l := math.Exp(th[0])
				sf2 := math.Exp(2 * th[1])
				alpha := math.Exp(th[2])
				u := sqDist(x, y) / (2 * alpha * l * l)
				base := 1 + u
				v := sf2 * math.Pow(base, -alpha)
				g[0] = v * 2 * alpha * u / base
				g[1] = 2 * v
				g[2] = v * alpha * (u/base - math.Log(base))
				return v
			},
		},
		{k: NewPeriodic(0.8, 1.1, 2.5), eval: refPeriodicEval, evalGrad: refPeriodicGrad},
		{
			k:    NewConstant(0.7),
			eval: func(th, _, _ []float64) float64 { return math.Exp(2 * th[0]) },
			evalGrad: func(th, _, _, g []float64) float64 {
				v := math.Exp(2 * th[0])
				g[0] = 2 * v
				return v
			},
			inputGrad: func(th, _, _, g []float64) float64 {
				for i := range g {
					g[i] = 0
				}
				return math.Exp(2 * th[0])
			},
		},
		{
			k: NewWhite(0.3),
			eval: func(th, x, y []float64) float64 {
				if !sameVec(x, y) {
					return 0
				}
				return math.Exp(2 * th[0])
			},
			evalGrad: func(th, x, y, g []float64) float64 {
				if !sameVec(x, y) {
					g[0] = 0
					return 0
				}
				v := math.Exp(2 * th[0])
				g[0] = 2 * v
				return v
			},
		},
		{
			k: NewLinear(0.5),
			eval: func(th, x, y []float64) float64 {
				var s float64
				for i, xv := range x {
					s += xv * y[i]
				}
				return math.Exp(2*th[0]) * s
			},
			evalGrad: func(th, x, y, g []float64) float64 {
				var s float64
				for i, xv := range x {
					s += xv * y[i]
				}
				v := math.Exp(2*th[0]) * s
				g[0] = 2 * v
				return v
			},
		},
		{
			// A composite must pass SetHyper through to both parts'
			// caches: k = RBF · Periodic, θ = [θ_rbf, θ_periodic].
			k: NewProduct(NewRBF(1, 1), NewPeriodic(1, 1, 1)),
			eval: func(th, x, y []float64) float64 {
				return refRBFEval(th[:2], x, y) * refPeriodicEval(th[2:], x, y)
			},
			evalGrad: func(th, x, y, g []float64) float64 {
				va := refRBFGrad(th[:2], x, y, g[:2])
				vb := refPeriodicGrad(th[2:], x, y, g[2:])
				for i := 0; i < 2; i++ {
					g[i] *= vb
				}
				for i := 2; i < len(g); i++ {
					g[i] *= va
				}
				return va * vb
			},
		},
	}
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// randTheta draws a hyperparameter vector uniformly inside the kernel's
// bounds.
func randTheta(rng *rand.Rand, k Kernel) []float64 {
	bs := k.Bounds()
	th := make([]float64, len(bs))
	for i, b := range bs {
		th[i] = b.Lo + rng.Float64()*(b.Hi-b.Lo)
	}
	return th
}

// TestCachedHyperBitIdentical pins the cached-derived-value contract:
// after the constructor and after every SetHyper in a random sequence,
// Eval, EvalGrad, EvalSq and EvalInputGrad return exactly the bits of
// the per-call formulas.
func TestCachedHyperBitIdentical(t *testing.T) {
	const dim = 3
	rng := rand.New(rand.NewSource(12))
	for _, rk := range refKernels() {
		k := rk.k
		nh := k.NumHyper()
		g, want := make([]float64, nh), make([]float64, nh)
		ig, wantIG := make([]float64, dim), make([]float64, dim)
		check := func(step int) {
			th := k.Hyper()
			for trial := 0; trial < 20; trial++ {
				x := randPoint(rng, dim)
				y := randPoint(rng, dim)
				switch trial % 5 {
				case 0:
					y = append([]float64(nil), x...) // r = 0, and White's diagonal
				case 1:
					for d := range y {
						y[d] = x[d] + 1e-3*rng.NormFloat64() // near neighbours
					}
				}
				if got, ref := k.Eval(x, y), rk.eval(th, x, y); !sameBits(got, ref) {
					t.Fatalf("%s step %d θ=%v: Eval %v, per-call formula %v", k.Name(), step, th, got, ref)
				}
				v := k.EvalGrad(x, y, g)
				rv := rk.evalGrad(th, x, y, want)
				if !sameBits(v, rv) {
					t.Fatalf("%s step %d θ=%v: EvalGrad value %v, per-call formula %v", k.Name(), step, th, v, rv)
				}
				for p := range g {
					if !sameBits(g[p], want[p]) {
						t.Fatalf("%s step %d θ=%v: ∂k/∂θ_%d %v, per-call formula %v", k.Name(), step, th, p, g[p], want[p])
					}
				}
				if rk.evalSq != nil {
					d2 := sqDist(x, y)
					if got, ref := k.(DistanceKernel).EvalSq(d2), rk.evalSq(th, d2); !sameBits(got, ref) {
						t.Fatalf("%s step %d θ=%v: EvalSq %v, per-call formula %v", k.Name(), step, th, got, ref)
					}
				}
				if rk.inputGrad != nil {
					v := k.(InputGradient).EvalInputGrad(x, y, ig)
					rv := rk.inputGrad(th, x, y, wantIG)
					if !sameBits(v, rv) {
						t.Fatalf("%s step %d θ=%v: EvalInputGrad value %v, per-call formula %v", k.Name(), step, th, v, rv)
					}
					for d := range ig {
						if !sameBits(ig[d], wantIG[d]) {
							t.Fatalf("%s step %d θ=%v: ∂k/∂x_%d %v, per-call formula %v", k.Name(), step, th, d, ig[d], wantIG[d])
						}
					}
				}
			}
		}
		check(0) // values derived by the constructor
		for step := 1; step <= 40; step++ {
			th := randTheta(rng, k)
			if step%2 == 0 {
				// Across the whole box many values under- or overflow;
				// every other step stays where kernel values are O(1).
				for i := range th {
					th[i] = 2*rng.Float64() - 1
				}
			}
			k.SetHyper(th)
			check(step)
		}
	}
}

// TestARDEvalGradAllocationFree pins the per-pair allocation fix: the
// gradient of the ARD kernel needs no scratch slice.
func TestARDEvalGradAllocationFree(t *testing.T) {
	k := NewARD([]float64{0.5, 2.0, 1.1}, 1.5)
	x, y := []float64{1, 2, 3}, []float64{0.5, -1, 2}
	g := make([]float64, k.NumHyper())
	if allocs := testing.AllocsPerRun(100, func() { k.EvalGrad(x, y, g) }); allocs != 0 {
		t.Fatalf("ARD.EvalGrad allocates %v times per call, want 0", allocs)
	}
}

// TestAssemblyIntoBitIdentical checks the Into assembly variants write
// exactly k.Eval / k.EvalGrad of every pair into dirty, reused buffers,
// and that the allocating wrappers agree.
func TestAssemblyIntoBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	const n, m, dim = 9, 5, 3
	x, z := mat.New(n, dim), mat.New(m, dim)
	for _, a := range []*mat.Dense{x, z} {
		for i, raw := 0, a.Raw(); i < len(raw); i++ {
			raw[i] = 3 * rng.NormFloat64()
		}
	}
	for _, rk := range refKernels() {
		k := rk.k
		nh := k.NumHyper()
		kmat, cross := mat.New(n, n), mat.New(n, m)
		grads := make([]*mat.Dense, nh)
		for p := range grads {
			grads[p] = mat.New(n, n)
		}
		g := make([]float64, nh)
		for round := 0; round < 3; round++ {
			k.SetHyper(randTheta(rng, k))
			MatrixInto(kmat, k, x)
			CrossMatrixInto(cross, k, x, z)
			gk := mat.New(n, n)
			MatrixGradInto(gk, grads, k, x)
			wk, wg := MatrixGrad(k, x)
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					v := k.EvalGrad(x.RawRow(i), x.RawRow(j), g)
					// Assembly evaluates each pair once, at i ≤ j.
					if j < i {
						v = k.EvalGrad(x.RawRow(j), x.RawRow(i), g)
					}
					for _, got := range []float64{kmat.At(i, j), gk.At(i, j), Matrix(k, x).At(i, j), wk.At(i, j)} {
						if !sameBits(got, v) {
							t.Fatalf("%s K[%d,%d] = %v, want %v", k.Name(), i, j, got, v)
						}
					}
					for p := range g {
						if !sameBits(grads[p].At(i, j), g[p]) || !sameBits(wg[p].At(i, j), g[p]) {
							t.Fatalf("%s ∂K/∂θ_%d[%d,%d] = %v, want %v", k.Name(), p, i, j, grads[p].At(i, j), g[p])
						}
					}
				}
				for j := 0; j < m; j++ {
					want := k.Eval(x.RawRow(i), z.RawRow(j))
					if !sameBits(cross.At(i, j), want) || !sameBits(CrossMatrix(k, x, z).At(i, j), want) {
						t.Fatalf("%s K*[%d,%d] = %v, want %v", k.Name(), i, j, cross.At(i, j), want)
					}
				}
			}
		}
	}
}
