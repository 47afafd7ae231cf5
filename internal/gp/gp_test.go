package gp

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/kernel"
	"repro/internal/mat"
	"repro/internal/optimize"
)

func col(xs ...float64) *mat.Dense {
	m := mat.New(len(xs), 1)
	for i, x := range xs {
		m.Set(i, 0, x)
	}
	return m
}

func fitBasic(t *testing.T, x *mat.Dense, y []float64, opt bool) *GP {
	t.Helper()
	cfg := Config{
		Kernel:     kernel.NewRBF(1, 1),
		NoiseInit:  0.1,
		NoiseFloor: 1e-4,
		Optimize:   opt,
		Restarts:   3,
	}
	g, err := Fit(cfg, x, y, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestFitValidation(t *testing.T) {
	if _, err := Fit(Config{}, col(1), []float64{1}, nil); err == nil {
		t.Fatal("expected error without kernel")
	}
	cfg := Config{Kernel: kernel.NewRBF(1, 1)}
	if _, err := Fit(cfg, nil, nil, nil); !errors.Is(err, ErrNoData) {
		t.Fatalf("err = %v, want ErrNoData", err)
	}
	if _, err := Fit(cfg, col(1, 2), []float64{1}, nil); err == nil {
		t.Fatal("expected length mismatch error")
	}
}

// A GP must interpolate near-noiselessly observed data when the noise is
// small.
func TestInterpolation(t *testing.T) {
	x := col(0, 1, 2, 3, 4)
	y := []float64{0, 0.8, 0.9, 0.1, -0.8} // roughly sin(x)
	cfg := Config{
		Kernel:     kernel.NewRBF(1, 1),
		NoiseInit:  1e-4,
		NoiseFloor: 1e-6,
		FixedNoise: true,
	}
	g, err := Fit(cfg, x, y, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < x.Rows(); i++ {
		p := g.Predict(x.RawRow(i))
		if math.Abs(p.Mean-y[i]) > 1e-2 {
			t.Fatalf("mean at training point %d = %g, want %g", i, p.Mean, y[i])
		}
		if p.SD > 0.05 {
			t.Fatalf("SD at training point %d = %g, too large", i, p.SD)
		}
	}
}

// Predictive SD must grow away from the data — the property AL exploits.
func TestUncertaintyGrowsAwayFromData(t *testing.T) {
	g := fitBasic(t, col(0, 1, 2), []float64{0, 1, 0}, false)
	sdAt := func(x float64) float64 { return g.Predict([]float64{x}).SD }
	if !(sdAt(10) > sdAt(2.5) && sdAt(2.5) > sdAt(1)) {
		t.Fatalf("SD not increasing away from data: %g %g %g", sdAt(1), sdAt(2.5), sdAt(10))
	}
	// Far from data, SD approaches the prior amplitude.
	far := sdAt(100)
	prior := math.Sqrt(g.Kernel().Eval([]float64{100}, []float64{100}))
	if math.Abs(far-prior)/prior > 0.05 {
		t.Fatalf("far-field SD %g should approach prior %g", far, prior)
	}
}

// The posterior mean must revert to the prior mean (0, or the data mean
// when normalizing) far from observations.
func TestMeanReversion(t *testing.T) {
	g := fitBasic(t, col(0, 1), []float64{5, 6}, false)
	if m := g.Predict([]float64{100}).Mean; math.Abs(m) > 1e-6 {
		t.Fatalf("unnormalized far mean = %g, want ~0", m)
	}
	cfg := Config{Kernel: kernel.NewRBF(1, 1), NoiseInit: 0.1, Normalize: true}
	gn, err := Fit(cfg, col(0, 1), []float64{5, 6}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if m := gn.Predict([]float64{100}).Mean; math.Abs(m-5.5) > 1e-6 {
		t.Fatalf("normalized far mean = %g, want 5.5", m)
	}
}

// Exactness check against hand-computed 1-point GPR:
// with one observation (x0, y0), μ(x) = k(x,x0)/(k(x0,x0)+σn²)·y0.
func TestSinglePointClosedForm(t *testing.T) {
	k := kernel.NewRBF(1, 1)
	sn := 0.5
	cfg := Config{Kernel: k, NoiseInit: sn, FixedNoise: true}
	g, err := Fit(cfg, col(2), []float64{3}, nil)
	if err != nil {
		t.Fatal(err)
	}
	xq := []float64{2.7}
	kxx := k.Eval([]float64{2}, []float64{2})
	kq := k.Eval(xq, []float64{2})
	wantMean := kq / (kxx + sn*sn) * 3
	wantVar := k.Eval(xq, xq) - kq*kq/(kxx+sn*sn)
	p := g.Predict(xq)
	if math.Abs(p.Mean-wantMean) > 1e-10 {
		t.Fatalf("mean = %g, want %g", p.Mean, wantMean)
	}
	if math.Abs(p.SD-math.Sqrt(wantVar)) > 1e-10 {
		t.Fatalf("SD = %g, want %g", p.SD, math.Sqrt(wantVar))
	}
}

// The LML gradient must match finite differences — this is what makes
// hyperparameter fitting trustworthy.
func TestLMLGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n := 12
	x := mat.New(n, 2)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		x.Set(i, 0, rng.NormFloat64())
		x.Set(i, 1, rng.NormFloat64())
		y[i] = math.Sin(x.At(i, 0)) + 0.3*rng.NormFloat64()
	}
	cfg := Config{Kernel: kernel.NewRBF(0.8, 1.2), NoiseInit: 0.3}
	g, err := Fit(cfg, x, y, nil)
	if err != nil {
		t.Fatal(err)
	}
	theta := g.hyperVector()
	rel := optimize.CheckGradient(g.negLML, theta, 1e-6)
	if rel > 1e-4 {
		t.Fatalf("LML gradient relative error %g", rel)
	}
}

func TestLMLGradientFixedNoise(t *testing.T) {
	x := col(0, 0.7, 1.9, 3.1)
	y := []float64{0, 1, 0.5, -0.2}
	cfg := Config{Kernel: kernel.NewMatern52(1, 1), NoiseInit: 0.2, FixedNoise: true}
	g, err := Fit(cfg, x, y, nil)
	if err != nil {
		t.Fatal(err)
	}
	rel := optimize.CheckGradient(g.negLML, g.hyperVector(), 1e-6)
	if rel > 1e-4 {
		t.Fatalf("fixed-noise LML gradient relative error %g", rel)
	}
}

// Optimizing hyperparameters must not decrease the LML.
func TestOptimizeImprovesLML(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	n := 25
	x := mat.New(n, 1)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		xv := float64(i) * 0.4
		x.Set(i, 0, xv)
		y[i] = math.Sin(xv) + 0.1*rng.NormFloat64()
	}
	mk := func(opt bool) *GP {
		cfg := Config{
			Kernel:     kernel.NewRBF(3, 0.2), // deliberately bad start
			NoiseInit:  1.0,
			NoiseFloor: 1e-3,
			Optimize:   opt,
			Restarts:   3,
		}
		g, err := Fit(cfg, x, y, rand.New(rand.NewSource(2)))
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	if lmlOpt, lml0 := mk(true).LML(), mk(false).LML(); lmlOpt < lml0 {
		t.Fatalf("optimization decreased LML: %g < %g", lmlOpt, lml0)
	}
}

// Fitted GP on clean sin data must predict well between training points.
func TestPredictionAccuracySin(t *testing.T) {
	n := 20
	x := mat.New(n, 1)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		xv := float64(i) * 2 * math.Pi / float64(n-1)
		x.Set(i, 0, xv)
		y[i] = math.Sin(xv)
	}
	cfg := Config{
		Kernel:     kernel.NewRBF(1, 1),
		NoiseInit:  1e-2,
		NoiseFloor: 1e-6,
		Optimize:   true,
		Restarts:   2,
	}
	g, err := Fit(cfg, x, y, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	for xv := 0.3; xv < 6; xv += 0.37 {
		p := g.Predict([]float64{xv})
		if math.Abs(p.Mean-math.Sin(xv)) > 0.05 {
			t.Fatalf("at %g: mean %g vs sin %g", xv, p.Mean, math.Sin(xv))
		}
	}
}

// Noise floor semantics (Fig. 7): with aligned few points and a tiny
// floor, the fitted σn collapses; with floor 0.1 it cannot.
func TestNoiseFloorPreventsCollapse(t *testing.T) {
	// Perfectly linear points: a flexible GP can fit them exactly.
	x := col(0, 1, 2, 3)
	y := []float64{0, 1, 2, 3}
	fit := func(floor float64) float64 {
		cfg := Config{
			Kernel:     kernel.NewRBF(1, 1),
			NoiseInit:  0.1,
			NoiseFloor: floor,
			Optimize:   true,
			Restarts:   4,
		}
		g, err := Fit(cfg, x, y, rand.New(rand.NewSource(4)))
		if err != nil {
			t.Fatal(err)
		}
		return g.Noise()
	}
	low := fit(1e-8)
	high := fit(1e-1)
	if high < 0.1-1e-9 {
		t.Fatalf("floored σn = %g violates floor", high)
	}
	if low > high {
		t.Fatalf("σn with tiny floor (%g) should be below floored fit (%g)", low, high)
	}
}

func TestDynamicNoiseFloor(t *testing.T) {
	if got := DynamicNoiseFloor(1, 4); got != 0.5 {
		t.Fatalf("DynamicNoiseFloor(1,4) = %g", got)
	}
	if got := DynamicNoiseFloor(2, 1); got != 2 {
		t.Fatalf("DynamicNoiseFloor(2,1) = %g", got)
	}
	// Degenerate arguments fall back safely.
	if got := DynamicNoiseFloor(0, 0); got != 1 {
		t.Fatalf("DynamicNoiseFloor(0,0) = %g", got)
	}
	// Monotone decreasing in n.
	prev := math.Inf(1)
	for n := 1; n < 100; n *= 2 {
		v := DynamicNoiseFloor(1, n)
		if v >= prev {
			t.Fatalf("not decreasing at n=%d", n)
		}
		prev = v
	}
}

func TestPredictBatchMatchesPredict(t *testing.T) {
	g := fitBasic(t, col(0, 1, 2, 3), []float64{0, 1, 4, 9}, true)
	xs := col(0.5, 1.5, 2.5, 7)
	batch := g.PredictBatch(xs)
	for i := 0; i < xs.Rows(); i++ {
		single := g.Predict(xs.RawRow(i))
		if math.Abs(batch[i].Mean-single.Mean) > 1e-12 || math.Abs(batch[i].SD-single.SD) > 1e-12 {
			t.Fatalf("batch[%d] = %+v, single = %+v", i, batch[i], single)
		}
	}
	ms, sds := Means(batch), SDs(batch)
	if len(ms) != 4 || len(sds) != 4 {
		t.Fatal("Means/SDs lengths")
	}
	if ms[0] != batch[0].Mean || sds[0] != batch[0].SD {
		t.Fatal("Means/SDs extraction wrong")
	}
}

func TestCI(t *testing.T) {
	p := Prediction{Mean: 10, SD: 2}
	lo, hi := p.CI(2)
	if lo != 6 || hi != 14 {
		t.Fatalf("CI = %g, %g", lo, hi)
	}
}

func TestRepeatedMeasurementsRaiseNoise(t *testing.T) {
	// Same x with scattered y forces the model to attribute variance
	// to noise — the "multiple y for the same x" requirement (§III).
	x := col(1, 1, 1, 2, 2, 2)
	y := []float64{0.5, 1.5, 1.0, 2.4, 1.6, 2.0}
	cfg := Config{
		Kernel:     kernel.NewRBF(1, 1),
		NoiseInit:  0.05,
		NoiseFloor: 1e-6,
		Optimize:   true,
		Restarts:   4,
	}
	g, err := Fit(cfg, x, y, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	if g.Noise() < 0.1 {
		t.Fatalf("σn = %g; repeated noisy measurements should raise it", g.Noise())
	}
	// The predictive mean at x=1 should be near the group mean 1.0.
	if m := g.Predict([]float64{1}).Mean; math.Abs(m-1.0) > 0.3 {
		t.Fatalf("mean at repeated point = %g, want ≈1.0", m)
	}
}

func TestLMLGridAndPeak(t *testing.T) {
	g := fitBasic(t, col(0, 1, 2, 3, 4), []float64{0, 1, 0, -1, 0}, true)
	names := g.HyperNames()
	if len(names) != 3 { // log_l, log_sf, log_sn
		t.Fatalf("HyperNames = %v", names)
	}
	la := Linspace(-2, 2, 9)
	lb := Linspace(-3, 0, 7)
	z := g.LMLGrid(0, 2, la, lb) // l vs σn, as in Fig. 4
	if len(z) != 9 || len(z[0]) != 7 {
		t.Fatalf("grid shape %dx%d", len(z), len(z[0]))
	}
	i, j, v := GridPeak(z)
	if v < z[0][0] || i < 0 || j < 0 {
		t.Fatal("GridPeak wrong")
	}
	// The grid peak cannot exceed the optimized LML by much (optimizer
	// should have found at least a nearby optimum).
	if v > g.LML()+math.Abs(g.LML())*0.5+1 {
		t.Fatalf("grid peak %g much better than fitted LML %g — optimizer failed", v, g.LML())
	}
}

func TestLMLGridBadIndicesPanic(t *testing.T) {
	g := fitBasic(t, col(0, 1), []float64{0, 1}, false)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	g.LMLGrid(0, 0, []float64{0}, []float64{0})
}

func TestLinspace(t *testing.T) {
	v := Linspace(0, 1, 5)
	want := []float64{0, 0.25, 0.5, 0.75, 1}
	for i := range want {
		if math.Abs(v[i]-want[i]) > 1e-15 {
			t.Fatalf("Linspace = %v", v)
		}
	}
	if len(Linspace(3, 9, 1)) != 1 {
		t.Fatal("n<2 should return single value")
	}
}

func TestPredictDimMismatchPanics(t *testing.T) {
	g := fitBasic(t, col(0, 1), []float64{0, 1}, false)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	g.Predict([]float64{0, 0})
}

func TestAccessors(t *testing.T) {
	g := fitBasic(t, col(0, 1, 2), []float64{0, 1, 2}, false)
	if g.NumTrain() != 3 {
		t.Fatalf("NumTrain = %d", g.NumTrain())
	}
	if g.TrainX().Rows() != 3 {
		t.Fatal("TrainX")
	}
	if g.Jitter() < 0 {
		t.Fatal("negative jitter")
	}
	if len(g.Hyper()) != 3 {
		t.Fatalf("Hyper = %v", g.Hyper())
	}
}

// Training data is copied: mutating the caller's matrix afterwards must not
// change predictions.
func TestFitCopiesData(t *testing.T) {
	x := col(0, 1, 2)
	y := []float64{0, 1, 2}
	g := fitBasic(t, x, y, false)
	before := g.Predict([]float64{0.5}).Mean
	x.Set(0, 0, 99)
	y[0] = -99
	after := g.Predict([]float64{0.5}).Mean
	if before != after {
		t.Fatal("GP aliases caller data")
	}
}

func BenchmarkFitOptimized100(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	n := 100
	x := mat.New(n, 2)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		x.Set(i, 0, rng.Float64()*10)
		x.Set(i, 1, rng.Float64()*10)
		y[i] = math.Sin(x.At(i, 0)) * math.Cos(x.At(i, 1))
	}
	cfg := Config{Kernel: kernel.NewRBF(1, 1), NoiseInit: 0.1, Optimize: true, Restarts: 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Fit(cfg, x, y, rand.New(rand.NewSource(2))); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPredict500(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	n := 500
	x := mat.New(n, 2)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		x.Set(i, 0, rng.Float64())
		x.Set(i, 1, rng.Float64())
		y[i] = rng.NormFloat64()
	}
	cfg := Config{Kernel: kernel.NewRBF(1, 1), NoiseInit: 0.1}
	g, err := Fit(cfg, x, y, nil)
	if err != nil {
		b.Fatal(err)
	}
	q := []float64{0.5, 0.5}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Predict(q)
	}
}
