package gp

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/kernel"
	"repro/internal/mat"
)

// Brute-force LOO: refit the GP n times, each time leaving one point out,
// and sum the predictive log densities of the held-out points.
func bruteLOO(t *testing.T, cfg Config, x *mat.Dense, y []float64) float64 {
	t.Helper()
	n := x.Rows()
	var ll float64
	for leave := 0; leave < n; leave++ {
		xs := mat.New(n-1, x.Cols())
		ys := make([]float64, 0, n-1)
		r := 0
		for i := 0; i < n; i++ {
			if i == leave {
				continue
			}
			copy(xs.RawRow(r), x.RawRow(i))
			ys = append(ys, y[i])
			r++
		}
		g, err := Fit(cfg, xs, ys, nil)
		if err != nil {
			t.Fatal(err)
		}
		// A held-out measurement's variance: latent variance plus σn².
		p := g.Predict(x.RawRow(leave))
		sn := g.yStd * g.Noise()
		v := p.SD*p.SD + sn*sn
		d := y[leave] - p.Mean
		ll += -0.5*math.Log(v) - d*d/(2*v) - 0.5*math.Log(2*math.Pi)
	}
	return ll
}

// The closed-form LOO pseudo-likelihood must match brute-force
// leave-one-out refitting — the identity from Rasmussen & Williams ch. 5.
func TestLOOCVMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(70))
	n := 10
	x := mat.New(n, 1)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		x.Set(i, 0, float64(i)*0.5)
		y[i] = math.Sin(x.At(i, 0)) + 0.1*rng.NormFloat64()
	}
	cfg := Config{Kernel: kernel.NewRBF(1, 1), NoiseInit: 0.2, FixedNoise: true}
	g, err := Fit(cfg, x, y, nil)
	if err != nil {
		t.Fatal(err)
	}
	closed := g.LOOCV()
	brute := bruteLOO(t, cfg, x, y)
	if math.Abs(closed-brute) > 1e-6*(1+math.Abs(brute)) {
		t.Fatalf("closed-form LOO %g vs brute force %g", closed, brute)
	}
}

func TestFitLOOCVImprovesPseudoLikelihood(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	n := 20
	x := mat.New(n, 1)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		x.Set(i, 0, float64(i)*0.3)
		y[i] = math.Sin(x.At(i, 0)) + 0.05*rng.NormFloat64()
	}
	cfg := Config{
		Kernel:     kernel.NewRBF(5, 0.3), // deliberately poor start
		NoiseInit:  1.0,
		NoiseFloor: 1e-3,
		Restarts:   3,
	}
	base, err := Fit(cfg, x, y, nil)
	if err != nil {
		t.Fatal(err)
	}
	fitted, err := FitLOOCV(cfg, x, y, rand.New(rand.NewSource(72)))
	if err != nil {
		t.Fatal(err)
	}
	if fitted.LOOCV() < base.LOOCV() {
		t.Fatalf("LOO-CV fit decreased pseudo-likelihood: %g < %g", fitted.LOOCV(), base.LOOCV())
	}
	// The CV-fitted model must also predict well.
	for xv := 0.5; xv < 5; xv += 0.7 {
		p := fitted.Predict([]float64{xv})
		if math.Abs(p.Mean-math.Sin(xv)) > 0.15 {
			t.Fatalf("LOO-CV model inaccurate at %g: %g vs %g", xv, p.Mean, math.Sin(xv))
		}
	}
}

// LML and LOO-CV model selection should broadly agree on well-behaved
// data (both near the truth) — this is the comparison the paper deferred.
func TestLMLvsLOOCVAgreeOnCleanData(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	n := 25
	x := mat.New(n, 1)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		x.Set(i, 0, float64(i)*0.25)
		y[i] = math.Sin(x.At(i, 0)) + 0.05*rng.NormFloat64()
	}
	// Each fit gets its own kernel: Fit mutates kernel hyperparameters.
	mkCfg := func() Config {
		return Config{Kernel: kernel.NewRBF(1, 1), NoiseInit: 0.1, NoiseFloor: 1e-3,
			Optimize: true, Restarts: 3}
	}
	lml, err := Fit(mkCfg(), x, y, rand.New(rand.NewSource(74)))
	if err != nil {
		t.Fatal(err)
	}
	cv, err := FitLOOCV(mkCfg(), x, y, rand.New(rand.NewSource(74)))
	if err != nil {
		t.Fatal(err)
	}
	// Both selection routes must track the ground truth closely at
	// interior points; they may extrapolate differently outside the
	// data, so compare to truth rather than pairwise.
	check := func(name string, g *GP) {
		var worst float64
		for xv := 0.5; xv < 5.5; xv += 0.4 {
			if d := math.Abs(g.Predict([]float64{xv}).Mean - math.Sin(xv)); d > worst {
				worst = d
			}
		}
		if worst > 0.25 {
			t.Fatalf("%s-selected model off truth by %g on clean data", name, worst)
		}
	}
	check("LML", lml)
	check("LOO-CV", cv)
}

// Conditioning by UpdateWithPoint must equal Augmented (full refit with the same
// hyperparameters) in its predictions.
func TestConditionMatchesAugmented(t *testing.T) {
	rng := rand.New(rand.NewSource(75))
	n := 15
	x := mat.New(n, 2)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		x.Set(i, 0, rng.Float64()*4)
		x.Set(i, 1, rng.Float64()*4)
		y[i] = math.Sin(x.At(i, 0)) * math.Cos(x.At(i, 1))
	}
	cfg := Config{Kernel: kernel.NewRBF(1, 1), NoiseInit: 0.1, Normalize: true}
	g, err := Fit(cfg, x, y, nil)
	if err != nil {
		t.Fatal(err)
	}
	newX := []float64{2, 2}
	newY := 0.3
	fast, err := g.UpdateWithPoint(newX, newY)
	if err != nil {
		t.Fatal(err)
	}
	slow, err := g.Augmented(newX, newY)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 20; trial++ {
		q := []float64{rng.Float64() * 4, rng.Float64() * 4}
		pf := fast.Predict(q)
		ps := slow.Predict(q)
		if math.Abs(pf.Mean-ps.Mean) > 1e-8 || math.Abs(pf.SD-ps.SD) > 1e-8 {
			t.Fatalf("UpdateWithPoint %+v vs Augmented %+v at %v", pf, ps, q)
		}
	}
	if fast.NumTrain() != n+1 {
		t.Fatalf("NumTrain = %d", fast.NumTrain())
	}
	// LMLs must agree too.
	if math.Abs(fast.LML()-slow.LML()) > 1e-6*(1+math.Abs(slow.LML())) {
		t.Fatalf("LML %g vs %g", fast.LML(), slow.LML())
	}
}

func TestConditionChainsRepeatedly(t *testing.T) {
	x := mat.NewFromRows([][]float64{{0}})
	g, err := Fit(Config{Kernel: kernel.NewRBF(1, 1), NoiseInit: 0.1}, x, []float64{0}, nil)
	if err != nil {
		t.Fatal(err)
	}
	cur := g
	for i := 1; i <= 10; i++ {
		cur, err = cur.UpdateWithPoint([]float64{float64(i) * 0.5}, math.Sin(float64(i)*0.5))
		if err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}
	if cur.NumTrain() != 11 {
		t.Fatalf("NumTrain = %d", cur.NumTrain())
	}
	// The chained model interpolates its data.
	p := cur.Predict([]float64{2.5})
	if math.Abs(p.Mean-math.Sin(2.5)) > 0.1 {
		t.Fatalf("chained model inaccurate: %g vs %g", p.Mean, math.Sin(2.5))
	}
}

func TestConditionDimMismatch(t *testing.T) {
	x := mat.NewFromRows([][]float64{{0}})
	g, err := Fit(Config{Kernel: kernel.NewRBF(1, 1), NoiseInit: 0.1}, x, []float64{0}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.UpdateWithPoint([]float64{0, 1}, 0); err == nil {
		t.Fatal("expected dimension error")
	}
}

func BenchmarkConditionVsAugmented(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	n := 300
	x := mat.New(n, 2)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		x.Set(i, 0, rng.Float64()*10)
		x.Set(i, 1, rng.Float64()*10)
		y[i] = math.Sin(x.At(i, 0))
	}
	g, err := Fit(Config{Kernel: kernel.NewRBF(1, 1), NoiseInit: 0.1}, x, y, nil)
	if err != nil {
		b.Fatal(err)
	}
	newX := []float64{5, 5}
	b.Run("condition-o_n2", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := g.UpdateWithPoint(newX, 0.5); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("augmented-o_n3", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := g.Augmented(newX, 0.5); err != nil {
				b.Fatal(err)
			}
		}
	})
}
