package faults

import (
	"math"
	"testing"
)

func TestNilAndZeroInjectNothing(t *testing.T) {
	for _, inj := range []*Injector{nil, New(Config{Seed: 1})} {
		if inj.Enabled() {
			t.Fatal("disabled injector reports Enabled")
		}
		for job := 0; job < 100; job++ {
			if inj.JobFails(job, 0) || inj.NodeFails(job, 0) {
				t.Fatalf("disabled injector injected a fault for job %d", job)
			}
			if f := inj.Slowdown(job, 0); f != 1 {
				t.Fatalf("disabled injector slowdown %g", f)
			}
			if y, bad := inj.Corrupt(job, 0, 1.5); bad || y != 1.5 {
				t.Fatalf("disabled injector corrupted %g", y)
			}
		}
	}
}

// Decisions must depend only on (seed, kind, keys), not on the sequence
// of prior calls — the property checkpoint/resume leans on.
func TestDeterministicAndOrderIndependent(t *testing.T) {
	cfg := CompositeConfig(42, 0.3)
	cfg.NodeFailRate = 0.1
	a, b := New(cfg), New(cfg)

	// Warm b with unrelated queries to shift any hidden state.
	for i := 0; i < 57; i++ {
		b.JobFails(i+1000, 3)
		b.Corrupt(i+2000, 1, 7)
	}
	for job := 0; job < 200; job++ {
		for attempt := 0; attempt < 3; attempt++ {
			if a.JobFails(job, attempt) != b.JobFails(job, attempt) {
				t.Fatalf("JobFails(%d,%d) order-dependent", job, attempt)
			}
			if a.NodeFails(job, attempt) != b.NodeFails(job, attempt) {
				t.Fatalf("NodeFails(%d,%d) order-dependent", job, attempt)
			}
			if a.Slowdown(job, attempt) != b.Slowdown(job, attempt) {
				t.Fatalf("Slowdown(%d,%d) order-dependent", job, attempt)
			}
			ya, oka := a.Corrupt(job, attempt, 2.5)
			yb, okb := b.Corrupt(job, attempt, 2.5)
			if oka != okb || (ya != yb && !(math.IsNaN(ya) && math.IsNaN(yb))) {
				t.Fatalf("Corrupt(%d,%d) order-dependent: %g/%v vs %g/%v",
					job, attempt, ya, oka, yb, okb)
			}
		}
	}
}

func TestSeedChangesDecisions(t *testing.T) {
	a := New(CompositeConfig(1, 0.5))
	b := New(CompositeConfig(2, 0.5))
	diff := 0
	for job := 0; job < 500; job++ {
		if a.JobFails(job, 0) != b.JobFails(job, 0) {
			diff++
		}
	}
	if diff == 0 {
		t.Fatal("different seeds made identical decisions")
	}
}

func TestRatesApproximatelyHonored(t *testing.T) {
	const n = 20000
	for _, rate := range []float64{0.05, 0.1, 0.5} {
		inj := New(Config{Seed: 7, JobFailRate: rate, StragglerRate: rate, CorruptRate: rate})
		var fails, slow, corrupt int
		for job := 0; job < n; job++ {
			if inj.JobFails(job, 0) {
				fails++
			}
			if inj.Slowdown(job, 0) > 1 {
				slow++
			}
			if _, bad := inj.Corrupt(job, 0, 3); bad {
				corrupt++
			}
		}
		for name, got := range map[string]int{"jobfail": fails, "straggler": slow, "corrupt": corrupt} {
			frac := float64(got) / n
			if math.Abs(frac-rate) > 0.02 {
				t.Errorf("%s rate %.3f observed %.3f", name, rate, frac)
			}
		}
	}
}

func TestFailFractionInUnitInterval(t *testing.T) {
	inj := New(Config{Seed: 3, JobFailRate: 1})
	for job := 0; job < 1000; job++ {
		f := inj.FailFraction(job, 0)
		if !(f > 0 && f <= 1) {
			t.Fatalf("FailFraction(%d) = %g out of (0,1]", job, f)
		}
	}
}

// Corruption must produce every flavor the guards have to handle: NaN,
// +Inf, -Inf and finite gross outliers.
func TestCorruptionModes(t *testing.T) {
	inj := New(Config{Seed: 11, CorruptRate: 1, OutlierFactor: 100})
	var nan, posInf, negInf, outlier int
	for job := 0; job < 400; job++ {
		y, bad := inj.Corrupt(job, 0, 2.0)
		if !bad {
			t.Fatalf("rate-1 injector did not corrupt job %d", job)
		}
		switch {
		case math.IsNaN(y):
			nan++
		case math.IsInf(y, 1):
			posInf++
		case math.IsInf(y, -1):
			negInf++
		case y == 200:
			outlier++
		default:
			t.Fatalf("unexpected corruption value %g", y)
		}
	}
	if nan == 0 || posInf == 0 || negInf == 0 || outlier == 0 {
		t.Fatalf("corruption modes missing: nan=%d +inf=%d -inf=%d outlier=%d",
			nan, posInf, negInf, outlier)
	}
}

func TestStragglerFactorDefaultsAndApplies(t *testing.T) {
	inj := New(Config{Seed: 5, StragglerRate: 1})
	if f := inj.Slowdown(0, 0); f != 4 {
		t.Fatalf("default straggler factor %g, want 4", f)
	}
	inj = New(Config{Seed: 5, StragglerRate: 1, StragglerFactor: 2.5})
	if f := inj.Slowdown(0, 0); f != 2.5 {
		t.Fatalf("straggler factor %g, want 2.5", f)
	}
}
