package gp

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/kernel"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(130))
	x, y := sinData(rng, 25, 0.05)
	for _, mkKernel := range []func() kernel.Kernel{
		func() kernel.Kernel { return kernel.NewRBF(1, 1) },
		func() kernel.Kernel { return kernel.NewMatern52(1, 1) },
		func() kernel.Kernel { return kernel.NewARD([]float64{1}, 1) },
	} {
		g, err := Fit(Config{
			Kernel: mkKernel(), NoiseInit: 0.1, NoiseFloor: 1e-3,
			Optimize: true, Restarts: 2, Normalize: true,
		}, x, y, rand.New(rand.NewSource(131)))
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := g.Save(&buf); err != nil {
			t.Fatalf("%s: %v", g.Kernel().Name(), err)
		}
		back, err := Load(&buf)
		if err != nil {
			t.Fatalf("%s: %v", g.Kernel().Name(), err)
		}
		for q := 0.0; q <= 6; q += 0.4 {
			a, b := g.Predict([]float64{q}), back.Predict([]float64{q})
			if math.Abs(a.Mean-b.Mean) > 1e-10 || math.Abs(a.SD-b.SD) > 1e-10 {
				t.Fatalf("%s: round trip differs at %g: %+v vs %+v", g.Kernel().Name(), q, a, b)
			}
		}
		if math.Abs(back.LML()-g.LML()) > 1e-8*(1+math.Abs(g.LML())) {
			t.Fatalf("LML %g vs %g", back.LML(), g.LML())
		}
		if back.Noise() != g.Noise() {
			t.Fatal("noise lost")
		}
	}
}

func TestSaveRejectsCompositeKernel(t *testing.T) {
	rng := rand.New(rand.NewSource(132))
	x, y := sinData(rng, 6, 0.05)
	k := kernel.NewSum(kernel.NewRBF(1, 1), kernel.NewConstant(1))
	g, err := Fit(Config{Kernel: k, NoiseInit: 0.1}, x, y, nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := g.Save(&buf); err == nil {
		t.Fatal("expected composite-kernel error")
	}
}

func TestLoadRejectsCorruptFiles(t *testing.T) {
	cases := []string{
		"not json",
		`{"kernel":"RBF","kernel_hyper":[0,0],"dims":1,"x":[],"y":[],"y_std":1}`,
		`{"kernel":"RBF","kernel_hyper":[0,0],"dims":1,"x":[[1]],"y":[1,2],"y_std":1}`,
		`{"kernel":"Nope","kernel_hyper":[0],"dims":1,"x":[[1]],"y":[1],"y_std":1}`,
		`{"kernel":"RBF","kernel_hyper":[0],"dims":1,"x":[[1]],"y":[1],"y_std":1}`,
		`{"kernel":"RBF","kernel_hyper":[0,0],"dims":2,"x":[[1]],"y":[1],"y_std":1}`,
		`{"kernel":"RBF","kernel_hyper":[0,0],"dims":1,"x":[[1]],"y":[1],"y_std":0}`,
	}
	for i, c := range cases {
		if _, err := Load(strings.NewReader(c)); err == nil {
			t.Fatalf("case %d: expected error", i)
		}
	}
}

// A loaded model keeps working as a live GP: conditioning and sampling.
func TestLoadedModelIsLive(t *testing.T) {
	rng := rand.New(rand.NewSource(133))
	x, y := sinData(rng, 15, 0.05)
	g, err := Fit(Config{Kernel: kernel.NewRBF(1, 1), NoiseInit: 0.1}, x, y, nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := g.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	cond, err := back.UpdateWithPoint([]float64{7}, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if cond.NumTrain() != 16 {
		t.Fatalf("NumTrain = %d", cond.NumTrain())
	}
}
