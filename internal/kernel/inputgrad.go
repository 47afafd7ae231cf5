package kernel

import "math"

// InputGradient is implemented by kernels that expose the gradient of
// k(x, y) with respect to the first argument x. It powers gradient-based
// continuous candidate optimization (paper §VI: "Gradient-based methods,
// which are available with GPR, would provide an important benefit for
// problems with high-dimensional parameter spaces").
type InputGradient interface {
	// EvalInputGrad returns k(x, y) and writes ∂k/∂x_d into grad
	// (len(grad) == len(x)).
	EvalInputGrad(x, y []float64, grad []float64) float64
}

// EvalInputGrad implements InputGradient for RBF:
// ∂k/∂x_d = −k · (x_d − y_d)/l².
func (k *RBF) EvalInputGrad(x, y []float64, grad []float64) float64 {
	checkHyperLen(len(grad), len(x), "RBF input gradient")
	l := k.l
	v := k.Eval(x, y)
	inv := 1 / (l * l)
	for d := range x {
		grad[d] = -v * (x[d] - y[d]) * inv
	}
	return v
}

// EvalInputGrad implements InputGradient for ARD:
// ∂k/∂x_d = −k · (x_d − y_d)/l_d².
func (k *ARD) EvalInputGrad(x, y []float64, grad []float64) float64 {
	checkHyperLen(len(grad), len(x), "ARD input gradient")
	v := k.Eval(x, y)
	for d := range x {
		l := k.l[d]
		grad[d] = -v * (x[d] - y[d]) / (l * l)
	}
	return v
}

// EvalInputGrad implements InputGradient for Matern52. With a = √5 r/l:
// k = σf²(1 + a + a²/3)e^{−a} and
// ∂k/∂x_d = −σf² · (5/(3l²)) · (1 + a) e^{−a} · (x_d − y_d).
func (k *Matern52) EvalInputGrad(x, y []float64, grad []float64) float64 {
	checkHyperLen(len(grad), len(x), "Matern52 input gradient")
	l, sf2 := k.l, k.sf2
	r2 := sqDist(x, y)
	a := math.Sqrt(5*r2) / l
	e := math.Exp(-a)
	v := sf2 * (1 + a + a*a/3) * e
	coef := -sf2 * 5 / (3 * l * l) * (1 + a) * e
	for d := range x {
		grad[d] = coef * (x[d] - y[d])
	}
	return v
}

// EvalInputGrad implements InputGradient for Sum when both parts do.
func (k *Sum) EvalInputGrad(x, y []float64, grad []float64) float64 {
	ga, ok1 := k.A.(InputGradient)
	gb, ok2 := k.B.(InputGradient)
	if !ok1 || !ok2 {
		panic("kernel: Sum input gradient requires both parts to implement InputGradient")
	}
	tmp := make([]float64, len(grad))
	va := ga.EvalInputGrad(x, y, grad)
	vb := gb.EvalInputGrad(x, y, tmp)
	for i := range grad {
		grad[i] += tmp[i]
	}
	return va + vb
}

// EvalInputGrad implements InputGradient for Product when both parts do.
func (k *Product) EvalInputGrad(x, y []float64, grad []float64) float64 {
	ga, ok1 := k.A.(InputGradient)
	gb, ok2 := k.B.(InputGradient)
	if !ok1 || !ok2 {
		panic("kernel: Product input gradient requires both parts to implement InputGradient")
	}
	tmp := make([]float64, len(grad))
	va := ga.EvalInputGrad(x, y, grad)
	vb := gb.EvalInputGrad(x, y, tmp)
	for i := range grad {
		grad[i] = grad[i]*vb + va*tmp[i]
	}
	return va * vb
}

// EvalInputGrad implements InputGradient for Constant (zero gradient).
func (k *Constant) EvalInputGrad(x, _ []float64, grad []float64) float64 {
	for i := range grad {
		grad[i] = 0
	}
	return k.c2
}
