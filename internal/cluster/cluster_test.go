package cluster

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestWisconsinSpec(t *testing.T) {
	n := Wisconsin()
	if n.Cores() != 16 {
		t.Fatalf("Cores = %d", n.Cores())
	}
	if n.MaxFreq() != 2.4 {
		t.Fatalf("MaxFreq = %g", n.MaxFreq())
	}
	for _, f := range []float64{1.2, 1.5, 1.8, 2.1, 2.4} {
		if !n.ValidFreq(f) {
			t.Fatalf("%g should be a valid level", f)
		}
	}
	if n.ValidFreq(2.0) {
		t.Fatal("2.0 is not a level")
	}
}

func TestPlace(t *testing.T) {
	cases := []struct {
		np, cpn       int
		nodes, packed int
	}{
		{1, 16, 1, 1},
		{16, 16, 1, 16},
		{17, 16, 2, 16},
		{32, 16, 2, 16},
		{48, 16, 3, 16},
		{128, 16, 8, 16},
	}
	for _, tc := range cases {
		p, err := Place(tc.np, tc.cpn)
		if err != nil {
			t.Fatal(err)
		}
		if p.Nodes != tc.nodes || p.CoresPerNode != tc.packed || p.Total != tc.np {
			t.Fatalf("Place(%d,%d) = %+v", tc.np, tc.cpn, p)
		}
	}
	if _, err := Place(0, 16); err == nil {
		t.Fatal("expected error")
	}
	if _, err := Place(4, 0); err == nil {
		t.Fatal("expected error")
	}
}

func TestExecTimeComputeBound(t *testing.T) {
	spec := Wisconsin()
	p, _ := Place(1, spec.Cores())
	// Pure compute: 4.8e9 flops on one 2.4 GHz core at 2 flops/cycle
	// takes 1 second.
	w := Work{Flops: 4.8e9 * 2}
	got, err := spec.ExecTime(w, p, 2.4)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-2.0) > 1e-9 {
		t.Fatalf("ExecTime = %g, want 2", got)
	}
}

func TestExecTimeScalesWithFreqWhenComputeBound(t *testing.T) {
	spec := Wisconsin()
	p, _ := Place(4, spec.Cores())
	w := Work{Flops: 1e12}
	t24, _ := spec.ExecTime(w, p, 2.4)
	t12, _ := spec.ExecTime(w, p, 1.2)
	if math.Abs(t12/t24-2.0) > 1e-9 {
		t.Fatalf("freq scaling ratio = %g, want 2", t12/t24)
	}
}

func TestExecTimeMemoryBoundIgnoresFreq(t *testing.T) {
	spec := Wisconsin()
	p, _ := Place(16, spec.Cores())
	w := Work{Flops: 1, MemBytes: 1e12}
	t24, _ := spec.ExecTime(w, p, 2.4)
	t12, _ := spec.ExecTime(w, p, 1.2)
	if math.Abs(t12-t24) > 1e-12 {
		t.Fatalf("memory-bound time should not depend on frequency: %g vs %g", t12, t24)
	}
}

func TestExecTimeStrongScaling(t *testing.T) {
	spec := Wisconsin()
	w := Work{Flops: 1e13}
	prev := math.Inf(1)
	for _, np := range []int{1, 2, 4, 8, 16} {
		p, _ := Place(np, spec.Cores())
		tt, err := spec.ExecTime(w, p, 2.4)
		if err != nil {
			t.Fatal(err)
		}
		if tt >= prev {
			t.Fatalf("no strong scaling at np=%d: %g >= %g", np, tt, prev)
		}
		prev = tt
	}
}

func TestExecTimeMultiNodeAddsNetwork(t *testing.T) {
	spec := Wisconsin()
	w := Work{Flops: 1e10, NetBytes: 1e8, NetMsgs: 1000}
	p1, _ := Place(16, spec.Cores())
	p2, _ := Place(32, spec.Cores())
	t1, _ := spec.ExecTime(w, p1, 2.4)
	t2raw := w.Flops / (32 * 2.4e9 * spec.FlopsPerCycle)
	t2, _ := spec.ExecTime(w, p2, 2.4)
	if t2 <= t2raw {
		t.Fatalf("multi-node run must pay network cost: %g <= %g", t2, t2raw)
	}
	_ = t1
}

func TestExecTimeInvalidInputs(t *testing.T) {
	spec := Wisconsin()
	p, _ := Place(1, 16)
	if _, err := spec.ExecTime(Work{Flops: 1}, p, 2.0); err == nil {
		t.Fatal("expected invalid-frequency error")
	}
	if _, err := spec.ExecTime(Work{Flops: 1}, Placement{}, 2.4); err == nil {
		t.Fatal("expected empty-placement error")
	}
}

func TestPowerModel(t *testing.T) {
	spec := Wisconsin()
	idle := spec.Power(0, 2.4)
	if idle != spec.IdleWatts {
		t.Fatalf("idle power = %g", idle)
	}
	full := spec.Power(16, 2.4)
	want := spec.IdleWatts + 16*spec.DynWattsPerCore
	if math.Abs(full-want) > 1e-9 {
		t.Fatalf("full power = %g, want %g", full, want)
	}
	// Cubic DVFS scaling: at half frequency dynamic power is 1/8.
	half := spec.Power(16, 1.2)
	wantHalf := spec.IdleWatts + 16*spec.DynWattsPerCore/8
	if math.Abs(half-wantHalf) > 1e-9 {
		t.Fatalf("half-freq power = %g, want %g", half, wantHalf)
	}
	// Clamping.
	if spec.Power(99, 2.4) != full {
		t.Fatal("activeCores should clamp to node size")
	}
	if spec.Power(-1, 2.4) != idle {
		t.Fatal("negative cores should clamp to 0")
	}
}

func TestJobPower(t *testing.T) {
	spec := Wisconsin()
	p, _ := Place(24, 16) // one full node + 8 cores on the second
	got := spec.JobPower(p, 2.4)
	want := spec.Power(16, 2.4) + spec.Power(8, 2.4)
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("JobPower = %g, want %g", got, want)
	}
	if spec.JobPower(Placement{}, 2.4) != 0 {
		t.Fatal("empty placement should draw 0")
	}
}

// constWatts is a constant true power draw for SampleTraceFunc.
func constWatts(w float64) func(float64) float64 { return func(float64) float64 { return w } }

func TestSampleTraceDense(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	tr := SampleTraceFunc(rng, 60, constWatts(200), TraceConfig{PeriodS: 1})
	if len(tr) != 61 {
		t.Fatalf("%d samples, want 61", len(tr))
	}
	for _, s := range tr {
		if s.Watts != 200 {
			t.Fatalf("noise-free trace perturbed: %g", s.Watts)
		}
	}
}

func TestSampleTraceDropout(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	tr := SampleTraceFunc(rng, 600, constWatts(200), TraceConfig{PeriodS: 1, Dropout: 0.5})
	if len(tr) > 450 || len(tr) < 200 {
		t.Fatalf("dropout ineffective: %d samples of 601", len(tr))
	}
}

func TestSampleTraceJitterNonNegative(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	tr := SampleTraceFunc(rng, 100, constWatts(1), TraceConfig{PeriodS: 1, JitterW: 50})
	for _, s := range tr {
		if s.Watts < 0 {
			t.Fatalf("negative power %g", s.Watts)
		}
	}
}

func TestEnergyFromTraceConstantPower(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	tr := SampleTraceFunc(rng, 120, constWatts(250), TraceConfig{PeriodS: 1})
	e, err := EnergyFromTrace(tr, 120)
	if err != nil {
		t.Fatal(err)
	}
	want := 250.0 * 120.0
	if math.Abs(e-want)/want > 0.01 {
		t.Fatalf("energy = %g, want %g", e, want)
	}
}

func TestEnergyFromTraceSparseRejected(t *testing.T) {
	// 120 s of computation needs ≥ 20 samples; give it 5.
	tr := []PowerSample{{0, 200}, {30, 200}, {60, 200}, {90, 200}, {119, 200}}
	if _, err := EnergyFromTrace(tr, 120); !errors.Is(err, ErrTraceTooSparse) {
		t.Fatalf("err = %v, want ErrTraceTooSparse", err)
	}
}

func TestEnergyFromTraceEdgeExtension(t *testing.T) {
	// Samples cover [10, 50] of a 60-second job; edges extend flat.
	var tr []PowerSample
	for ts := 10.0; ts <= 50; ts++ {
		tr = append(tr, PowerSample{T: ts, Watts: 100})
	}
	e, err := EnergyFromTrace(tr, 60)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(e-6000) > 1 {
		t.Fatalf("energy = %g, want 6000", e)
	}
}

func TestEnergyFromTraceInvalidDuration(t *testing.T) {
	if _, err := EnergyFromTrace(nil, 0); err == nil {
		t.Fatal("expected error")
	}
}

// Property: energy with dropout approximates the dense-trace energy.
func TestEnergyDropoutRobustProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		dur := 200.0
		watts := 100 + 200*rng.Float64()
		tr := SampleTraceFunc(rng, dur, constWatts(watts), TraceConfig{PeriodS: 1, Dropout: 0.3})
		e, err := EnergyFromTrace(tr, dur)
		if errors.Is(err, ErrTraceTooSparse) {
			return true // acceptable outcome
		}
		if err != nil {
			return false
		}
		want := watts * dur
		return math.Abs(e-want)/want < 0.05
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: ExecTime is monotone non-increasing in frequency for any mix.
func TestExecTimeFreqMonotoneProperty(t *testing.T) {
	spec := Wisconsin()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		w := Work{
			Flops:    1e9 * (1 + rng.Float64()*1000),
			MemBytes: 1e8 * rng.Float64() * 1000,
		}
		np := []int{1, 2, 4, 8, 16, 32, 64, 128}[rng.Intn(8)]
		p, err := Place(np, spec.Cores())
		if err != nil {
			return false
		}
		prev := math.Inf(1)
		for _, fq := range spec.FreqLevels {
			tt, err := spec.ExecTime(w, p, fq)
			if err != nil || tt > prev+1e-12 {
				return false
			}
			prev = tt
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
