package kernel

import "math"

// RBF is the isotropic squared-exponential (radial basis function) kernel
// used throughout the paper (Eq. 11):
//
//	k(x, y) = σf² exp(-|x-y|² / (2 l²))
//
// Hyperparameters in log space: θ = [log l, log σf].
type RBF struct {
	logL, logSF float64
	l, sf2      float64 // exp(logL), exp(2·logSF); derived by SetHyper
	bounds      [2]Bounds
}

// NewRBF returns an RBF kernel with length scale l and amplitude sf
// (standard-deviation scale, so the prior variance is sf²).
func NewRBF(l, sf float64) *RBF {
	if l <= 0 || sf <= 0 {
		panic("kernel: RBF parameters must be positive")
	}
	k := &RBF{bounds: [2]Bounds{DefaultBounds, DefaultBounds}}
	k.SetHyper([]float64{math.Log(l), math.Log(sf)})
	return k
}

// SetBounds replaces the log-space search bounds for (l, sf).
func (k *RBF) SetBounds(l, sf Bounds) { k.bounds = [2]Bounds{l, sf} }

// LengthScale returns l.
func (k *RBF) LengthScale() float64 { return k.l }

// Amplitude returns σf.
func (k *RBF) Amplitude() float64 { return math.Exp(k.logSF) }

// Eval implements Kernel.
func (k *RBF) Eval(x, y []float64) float64 {
	l := k.l
	return k.sf2 * math.Exp(-sqDist(x, y)/(2*l*l))
}

// EvalSq implements DistanceKernel: the kernel value as a function of
// the squared distance alone, enabling blocked cross-matrix assembly.
func (k *RBF) EvalSq(d2 float64) float64 {
	l := k.l
	return k.sf2 * math.Exp(-d2/(2*l*l))
}

// EvalGrad implements Kernel. With r² = |x-y|²:
//
//	∂k/∂log l  = k · r²/l²
//	∂k/∂log σf = 2k
func (k *RBF) EvalGrad(x, y []float64, grad []float64) float64 {
	checkHyperLen(len(grad), 2, "RBF")
	l := k.l
	r2 := sqDist(x, y)
	v := k.sf2 * math.Exp(-r2/(2*l*l))
	grad[0] = v * r2 / (l * l)
	grad[1] = 2 * v
	return v
}

// NumHyper implements Kernel.
func (k *RBF) NumHyper() int { return 2 }

// Hyper implements Kernel.
func (k *RBF) Hyper() []float64 { return []float64{k.logL, k.logSF} }

// SetHyper implements Kernel.
func (k *RBF) SetHyper(theta []float64) {
	checkHyperLen(len(theta), 2, "RBF")
	k.logL, k.logSF = theta[0], theta[1]
	k.l, k.sf2 = math.Exp(k.logL), math.Exp(2*k.logSF)
}

// Bounds implements Kernel.
func (k *RBF) Bounds() []Bounds { return []Bounds{k.bounds[0], k.bounds[1]} }

// HyperNames implements Kernel.
func (k *RBF) HyperNames() []string { return []string{"log_l", "log_sf"} }

// Name implements Kernel.
func (k *RBF) Name() string { return "RBF" }

// ARD is the squared-exponential kernel with one length scale per input
// dimension (automatic relevance determination):
//
//	k(x, y) = σf² exp(-½ Σ_d (x_d - y_d)² / l_d²)
//
// θ = [log l_1, …, log l_D, log σf].
type ARD struct {
	logL   []float64
	logSF  float64
	l      []float64 // exp(logL[d]); derived by SetHyper
	sf2    float64   // exp(2·logSF)
	bounds []Bounds
}

// NewARD returns an ARD kernel with per-dimension length scales ls and
// amplitude sf.
func NewARD(ls []float64, sf float64) *ARD {
	if len(ls) == 0 {
		panic("kernel: ARD needs at least one dimension")
	}
	k := &ARD{logL: make([]float64, len(ls)), l: make([]float64, len(ls))}
	theta := make([]float64, len(ls)+1)
	for i, l := range ls {
		if l <= 0 {
			panic("kernel: ARD length scales must be positive")
		}
		theta[i] = math.Log(l)
	}
	theta[len(ls)] = math.Log(sf)
	k.SetHyper(theta)
	k.bounds = make([]Bounds, len(ls)+1)
	for i := range k.bounds {
		k.bounds[i] = DefaultBounds
	}
	return k
}

// LengthScales returns the per-dimension length scales.
func (k *ARD) LengthScales() []float64 { return append([]float64(nil), k.l...) }

// Eval implements Kernel.
func (k *ARD) Eval(x, y []float64) float64 {
	checkHyperLen(len(x), len(k.logL), "ARD input")
	var s float64
	for d, xv := range x {
		dd := (xv - y[d]) / k.l[d]
		s += dd * dd
	}
	return k.sf2 * math.Exp(-0.5*s)
}

// EvalGrad implements Kernel.
func (k *ARD) EvalGrad(x, y []float64, grad []float64) float64 {
	checkHyperLen(len(grad), k.NumHyper(), "ARD")
	checkHyperLen(len(x), len(k.logL), "ARD input")
	var s float64
	for d, xv := range x {
		dd := (xv - y[d]) / k.l[d]
		grad[d] = dd * dd
		s += grad[d]
	}
	v := k.sf2 * math.Exp(-0.5*s)
	for d := range k.logL {
		grad[d] *= v // ∂k/∂log l_d = k · (x_d-y_d)²/l_d²
	}
	grad[len(k.logL)] = 2 * v
	return v
}

// NumHyper implements Kernel.
func (k *ARD) NumHyper() int { return len(k.logL) + 1 }

// Hyper implements Kernel.
func (k *ARD) Hyper() []float64 {
	out := make([]float64, 0, k.NumHyper())
	out = append(out, k.logL...)
	return append(out, k.logSF)
}

// SetHyper implements Kernel.
func (k *ARD) SetHyper(theta []float64) {
	checkHyperLen(len(theta), k.NumHyper(), "ARD")
	copy(k.logL, theta[:len(k.logL)])
	k.logSF = theta[len(k.logL)]
	for d, v := range k.logL {
		k.l[d] = math.Exp(v)
	}
	k.sf2 = math.Exp(2 * k.logSF)
}

// Bounds implements Kernel.
func (k *ARD) Bounds() []Bounds {
	out := make([]Bounds, len(k.bounds))
	copy(out, k.bounds)
	return out
}

// HyperNames implements Kernel.
func (k *ARD) HyperNames() []string {
	names := make([]string, 0, k.NumHyper())
	for d := range k.logL {
		names = append(names, "log_l"+itoa(d))
	}
	return append(names, "log_sf")
}

// Name implements Kernel.
func (k *ARD) Name() string { return "ARD" }

func itoa(d int) string {
	if d < 10 {
		return string(rune('0' + d))
	}
	return itoa(d/10) + itoa(d%10)
}
