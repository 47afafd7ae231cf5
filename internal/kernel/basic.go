package kernel

import "math"

// Constant is the constant kernel k(x, y) = c². θ = [log c].
// Summed with another kernel it models a constant offset in the prior.
type Constant struct {
	logC float64
	c2   float64 // exp(2·logC); derived by SetHyper
}

// NewConstant returns a constant kernel with value c² (c > 0).
func NewConstant(c float64) *Constant {
	if c <= 0 {
		panic("kernel: Constant parameter must be positive")
	}
	k := &Constant{}
	k.SetHyper([]float64{math.Log(c)})
	return k
}

// Eval implements Kernel.
func (k *Constant) Eval(_, _ []float64) float64 { return k.c2 }

// EvalGrad implements Kernel.
func (k *Constant) EvalGrad(_, _ []float64, grad []float64) float64 {
	checkHyperLen(len(grad), 1, "Constant")
	v := k.c2
	grad[0] = 2 * v
	return v
}

// NumHyper implements Kernel.
func (k *Constant) NumHyper() int { return 1 }

// Hyper implements Kernel.
func (k *Constant) Hyper() []float64 { return []float64{k.logC} }

// SetHyper implements Kernel.
func (k *Constant) SetHyper(theta []float64) {
	checkHyperLen(len(theta), 1, "Constant")
	k.logC = theta[0]
	k.c2 = math.Exp(2 * k.logC)
}

// Bounds implements Kernel.
func (k *Constant) Bounds() []Bounds { return []Bounds{DefaultBounds} }

// HyperNames implements Kernel.
func (k *Constant) HyperNames() []string { return []string{"log_c"} }

// Name implements Kernel.
func (k *Constant) Name() string { return "Constant" }

// White is the white-noise kernel k(x, y) = σ² 1[x == y]. θ = [log σ].
// Added to a smooth kernel it plays the role of the σn² noise term; the GP
// package usually models noise directly, but White allows expressing it as
// part of a composite kernel as scikit-learn's WhiteKernel does.
type White struct {
	logS float64
	s2   float64 // exp(2·logS); derived by SetHyper
}

// NewWhite returns a white-noise kernel with standard deviation s.
func NewWhite(s float64) *White {
	if s <= 0 {
		panic("kernel: White parameter must be positive")
	}
	k := &White{}
	k.SetHyper([]float64{math.Log(s)})
	return k
}

// Eval implements Kernel. Inputs are compared element-wise for exact
// equality, matching the pool-based setting where candidate points are
// drawn from a finite design.
func (k *White) Eval(x, y []float64) float64 {
	if !sameVec(x, y) {
		return 0
	}
	return k.s2
}

// EvalGrad implements Kernel.
func (k *White) EvalGrad(x, y []float64, grad []float64) float64 {
	checkHyperLen(len(grad), 1, "White")
	if !sameVec(x, y) {
		grad[0] = 0
		return 0
	}
	v := k.s2
	grad[0] = 2 * v
	return v
}

func sameVec(x, y []float64) bool {
	if len(x) != len(y) {
		return false
	}
	for i, v := range x {
		if v != y[i] {
			return false
		}
	}
	return true
}

// NumHyper implements Kernel.
func (k *White) NumHyper() int { return 1 }

// Hyper implements Kernel.
func (k *White) Hyper() []float64 { return []float64{k.logS} }

// SetHyper implements Kernel.
func (k *White) SetHyper(theta []float64) {
	checkHyperLen(len(theta), 1, "White")
	k.logS = theta[0]
	k.s2 = math.Exp(2 * k.logS)
}

// Bounds implements Kernel.
func (k *White) Bounds() []Bounds { return []Bounds{DefaultBounds} }

// HyperNames implements Kernel.
func (k *White) HyperNames() []string { return []string{"log_sn"} }

// Name implements Kernel.
func (k *White) Name() string { return "White" }

// Linear is the (homogeneous) dot-product kernel k(x, y) = σv² xᵀy.
// θ = [log σv]. Summed with Constant it yields Bayesian linear regression
// as a GP.
type Linear struct {
	logSV float64
	sv2   float64 // exp(2·logSV); derived by SetHyper
}

// NewLinear returns a linear kernel with slope variance sv².
func NewLinear(sv float64) *Linear {
	if sv <= 0 {
		panic("kernel: Linear parameter must be positive")
	}
	k := &Linear{}
	k.SetHyper([]float64{math.Log(sv)})
	return k
}

// Eval implements Kernel.
func (k *Linear) Eval(x, y []float64) float64 {
	var s float64
	for i, xv := range x {
		s += xv * y[i]
	}
	return k.sv2 * s
}

// EvalGrad implements Kernel.
func (k *Linear) EvalGrad(x, y []float64, grad []float64) float64 {
	checkHyperLen(len(grad), 1, "Linear")
	v := k.Eval(x, y)
	grad[0] = 2 * v
	return v
}

// NumHyper implements Kernel.
func (k *Linear) NumHyper() int { return 1 }

// Hyper implements Kernel.
func (k *Linear) Hyper() []float64 { return []float64{k.logSV} }

// SetHyper implements Kernel.
func (k *Linear) SetHyper(theta []float64) {
	checkHyperLen(len(theta), 1, "Linear")
	k.logSV = theta[0]
	k.sv2 = math.Exp(2 * k.logSV)
}

// Bounds implements Kernel.
func (k *Linear) Bounds() []Bounds { return []Bounds{DefaultBounds} }

// HyperNames implements Kernel.
func (k *Linear) HyperNames() []string { return []string{"log_sv"} }

// Name implements Kernel.
func (k *Linear) Name() string { return "Linear" }
