package kernel

import "math"

// Periodic is the exp-sine-squared kernel:
//
//	k(x, y) = σf² exp(−2 sin²(π r / p) / l²),  r = |x−y|
//
// θ = [log l, log σf, log p]. Useful for responses with cyclic structure
// (e.g. performance modulated by a periodic system activity); included to
// round out the kernel algebra for composite models like
// Periodic × RBF (locally periodic).
type Periodic struct {
	logL, logSF, logP float64
	l, sf2, p         float64 // exp(logL), exp(2·logSF), exp(logP); derived by SetHyper
}

// NewPeriodic returns a periodic kernel with length scale l, amplitude
// sf, and period p.
func NewPeriodic(l, sf, p float64) *Periodic {
	if l <= 0 || sf <= 0 || p <= 0 {
		panic("kernel: Periodic parameters must be positive")
	}
	k := &Periodic{}
	k.SetHyper([]float64{math.Log(l), math.Log(sf), math.Log(p)})
	return k
}

// Eval implements Kernel.
func (k *Periodic) Eval(x, y []float64) float64 {
	l, sf2, p := k.l, k.sf2, k.p
	s := math.Sin(math.Pi * math.Sqrt(sqDist(x, y)) / p)
	return sf2 * math.Exp(-2*s*s/(l*l))
}

// EvalGrad implements Kernel. With u = π r / p, s = sin u:
//
//	∂k/∂log l  = k · 4 s²/l²
//	∂k/∂log σf = 2k
//	∂k/∂log p  = k · (4 s cos u · u) / l²
func (k *Periodic) EvalGrad(x, y []float64, grad []float64) float64 {
	checkHyperLen(len(grad), 3, "Periodic")
	l, sf2, p := k.l, k.sf2, k.p
	r := math.Sqrt(sqDist(x, y))
	u := math.Pi * r / p
	s := math.Sin(u)
	v := sf2 * math.Exp(-2*s*s/(l*l))
	grad[0] = v * 4 * s * s / (l * l)
	grad[1] = 2 * v
	grad[2] = v * 4 * s * math.Cos(u) * u / (l * l)
	return v
}

// NumHyper implements Kernel.
func (k *Periodic) NumHyper() int { return 3 }

// Hyper implements Kernel.
func (k *Periodic) Hyper() []float64 { return []float64{k.logL, k.logSF, k.logP} }

// SetHyper implements Kernel.
func (k *Periodic) SetHyper(theta []float64) {
	checkHyperLen(len(theta), 3, "Periodic")
	k.logL, k.logSF, k.logP = theta[0], theta[1], theta[2]
	k.l, k.sf2, k.p = math.Exp(k.logL), math.Exp(2*k.logSF), math.Exp(k.logP)
}

// Bounds implements Kernel.
func (k *Periodic) Bounds() []Bounds {
	return []Bounds{DefaultBounds, DefaultBounds, {Lo: math.Log(1e-3), Hi: math.Log(1e3)}}
}

// HyperNames implements Kernel.
func (k *Periodic) HyperNames() []string { return []string{"log_l", "log_sf", "log_p"} }

// Name implements Kernel.
func (k *Periodic) Name() string { return "Periodic" }
