package kernel

import "math"

// Matern32 is the Matérn kernel with smoothness ν = 3/2:
//
//	k(x, y) = σf² (1 + √3 r/l) exp(-√3 r/l),  r = |x-y|
//
// θ = [log l, log σf]. Once-differentiable sample paths make it a common
// robust alternative to RBF for rough performance surfaces.
type Matern32 struct {
	logL, logSF float64
	l, sf2      float64 // exp(logL), exp(2·logSF); derived by SetHyper
}

// NewMatern32 returns a Matérn-3/2 kernel with length scale l and
// amplitude sf.
func NewMatern32(l, sf float64) *Matern32 {
	if l <= 0 || sf <= 0 {
		panic("kernel: Matern32 parameters must be positive")
	}
	k := &Matern32{}
	k.SetHyper([]float64{math.Log(l), math.Log(sf)})
	return k
}

// Eval implements Kernel.
func (k *Matern32) Eval(x, y []float64) float64 {
	l, sf2 := k.l, k.sf2
	a := math.Sqrt(3*sqDist(x, y)) / l
	return sf2 * (1 + a) * math.Exp(-a)
}

// EvalGrad implements Kernel. With a = √3 r/l:
//
//	∂k/∂log l  = σf² a² e^{-a}
//	∂k/∂log σf = 2k
func (k *Matern32) EvalGrad(x, y []float64, grad []float64) float64 {
	checkHyperLen(len(grad), 2, "Matern32")
	l, sf2 := k.l, k.sf2
	a := math.Sqrt(3*sqDist(x, y)) / l
	e := math.Exp(-a)
	v := sf2 * (1 + a) * e
	grad[0] = sf2 * a * a * e
	grad[1] = 2 * v
	return v
}

// NumHyper implements Kernel.
func (k *Matern32) NumHyper() int { return 2 }

// Hyper implements Kernel.
func (k *Matern32) Hyper() []float64 { return []float64{k.logL, k.logSF} }

// SetHyper implements Kernel.
func (k *Matern32) SetHyper(theta []float64) {
	checkHyperLen(len(theta), 2, "Matern32")
	k.logL, k.logSF = theta[0], theta[1]
	k.l, k.sf2 = math.Exp(k.logL), math.Exp(2*k.logSF)
}

// Bounds implements Kernel.
func (k *Matern32) Bounds() []Bounds { return []Bounds{DefaultBounds, DefaultBounds} }

// HyperNames implements Kernel.
func (k *Matern32) HyperNames() []string { return []string{"log_l", "log_sf"} }

// Name implements Kernel.
func (k *Matern32) Name() string { return "Matern32" }

// Matern52 is the Matérn kernel with smoothness ν = 5/2:
//
//	k(x, y) = σf² (1 + √5 r/l + 5r²/(3l²)) exp(-√5 r/l)
//
// θ = [log l, log σf].
type Matern52 struct {
	logL, logSF float64
	l, sf2      float64 // exp(logL), exp(2·logSF); derived by SetHyper
}

// NewMatern52 returns a Matérn-5/2 kernel with length scale l and
// amplitude sf.
func NewMatern52(l, sf float64) *Matern52 {
	if l <= 0 || sf <= 0 {
		panic("kernel: Matern52 parameters must be positive")
	}
	k := &Matern52{}
	k.SetHyper([]float64{math.Log(l), math.Log(sf)})
	return k
}

// Eval implements Kernel.
func (k *Matern52) Eval(x, y []float64) float64 {
	l, sf2 := k.l, k.sf2
	r2 := sqDist(x, y)
	a := math.Sqrt(5*r2) / l
	return sf2 * (1 + a + a*a/3) * math.Exp(-a)
}

// EvalGrad implements Kernel. With a = √5 r/l:
//
//	∂k/∂log l  = σf² e^{-a} · a²(1+a)/3
//	∂k/∂log σf = 2k
func (k *Matern52) EvalGrad(x, y []float64, grad []float64) float64 {
	checkHyperLen(len(grad), 2, "Matern52")
	l, sf2 := k.l, k.sf2
	a := math.Sqrt(5*sqDist(x, y)) / l
	e := math.Exp(-a)
	v := sf2 * (1 + a + a*a/3) * e
	grad[0] = sf2 * e * a * a * (1 + a) / 3
	grad[1] = 2 * v
	return v
}

// NumHyper implements Kernel.
func (k *Matern52) NumHyper() int { return 2 }

// Hyper implements Kernel.
func (k *Matern52) Hyper() []float64 { return []float64{k.logL, k.logSF} }

// SetHyper implements Kernel.
func (k *Matern52) SetHyper(theta []float64) {
	checkHyperLen(len(theta), 2, "Matern52")
	k.logL, k.logSF = theta[0], theta[1]
	k.l, k.sf2 = math.Exp(k.logL), math.Exp(2*k.logSF)
}

// Bounds implements Kernel.
func (k *Matern52) Bounds() []Bounds { return []Bounds{DefaultBounds, DefaultBounds} }

// HyperNames implements Kernel.
func (k *Matern52) HyperNames() []string { return []string{"log_l", "log_sf"} }

// Name implements Kernel.
func (k *Matern52) Name() string { return "Matern52" }

// RationalQuadratic is a scale mixture of RBF kernels:
//
//	k(x, y) = σf² (1 + r²/(2 α l²))^{-α}
//
// θ = [log l, log σf, log α].
type RationalQuadratic struct {
	logL, logSF, logAlpha float64
	l, sf2, alpha         float64 // exp(logL), exp(2·logSF), exp(logAlpha); derived by SetHyper
}

// NewRationalQuadratic returns an RQ kernel with length scale l, amplitude
// sf, and mixture parameter alpha.
func NewRationalQuadratic(l, sf, alpha float64) *RationalQuadratic {
	if l <= 0 || sf <= 0 || alpha <= 0 {
		panic("kernel: RationalQuadratic parameters must be positive")
	}
	k := &RationalQuadratic{}
	k.SetHyper([]float64{math.Log(l), math.Log(sf), math.Log(alpha)})
	return k
}

// Eval implements Kernel.
func (k *RationalQuadratic) Eval(x, y []float64) float64 {
	l, sf2, alpha := k.l, k.sf2, k.alpha
	base := 1 + sqDist(x, y)/(2*alpha*l*l)
	return sf2 * math.Pow(base, -alpha)
}

// EvalGrad implements Kernel. With u = r²/(2αl²), base = 1+u:
//
//	∂k/∂log l  = k · 2αu/base
//	∂k/∂log σf = 2k
//	∂k/∂log α  = k · α(u/base − log base)
func (k *RationalQuadratic) EvalGrad(x, y []float64, grad []float64) float64 {
	checkHyperLen(len(grad), 3, "RationalQuadratic")
	l, sf2, alpha := k.l, k.sf2, k.alpha
	u := sqDist(x, y) / (2 * alpha * l * l)
	base := 1 + u
	v := sf2 * math.Pow(base, -alpha)
	grad[0] = v * 2 * alpha * u / base
	grad[1] = 2 * v
	grad[2] = v * alpha * (u/base - math.Log(base))
	return v
}

// NumHyper implements Kernel.
func (k *RationalQuadratic) NumHyper() int { return 3 }

// Hyper implements Kernel.
func (k *RationalQuadratic) Hyper() []float64 {
	return []float64{k.logL, k.logSF, k.logAlpha}
}

// SetHyper implements Kernel.
func (k *RationalQuadratic) SetHyper(theta []float64) {
	checkHyperLen(len(theta), 3, "RationalQuadratic")
	k.logL, k.logSF, k.logAlpha = theta[0], theta[1], theta[2]
	k.l, k.sf2, k.alpha = math.Exp(k.logL), math.Exp(2*k.logSF), math.Exp(k.logAlpha)
}

// Bounds implements Kernel.
func (k *RationalQuadratic) Bounds() []Bounds {
	return []Bounds{DefaultBounds, DefaultBounds, {Lo: math.Log(1e-3), Hi: math.Log(1e3)}}
}

// HyperNames implements Kernel.
func (k *RationalQuadratic) HyperNames() []string {
	return []string{"log_l", "log_sf", "log_alpha"}
}

// Name implements Kernel.
func (k *RationalQuadratic) Name() string { return "RationalQuadratic" }
