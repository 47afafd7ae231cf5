package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// benchOutput is `go test -bench` output in the shape CI records: a
// GOMAXPROCS suffix on every name, and the header and footer lines the
// parser must skip.
const benchOutput = `goos: linux
goarch: amd64
pkg: repro
BenchmarkALIteration-8         	       1	    245637 ns/op	        79.00 cand_evals/op	        20.00 cholesky/op	         1.000 gp_fits/op	        19.00 lml_evals/op	       110.0 predict_points/op	   31096 B/op	     239 allocs/op
BenchmarkALLoop/refit-8        	       1	  24551963 ns/op	         1.000 cholesky/op	   5304368 B/op
BenchmarkALLoop/incremental-8  	       1	    659650 ns/op	         0 cholesky/op	   1086576 B/op
BenchmarkGPHyperopt            	       1	   2531114 ns/op	        49.00 lml_evals/op	     80864 B/op
PASS
ok  	repro	1.234s
`

func writeFile(t *testing.T, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "bench.txt")
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestParseBenchOutput(t *testing.T) {
	cases := []struct {
		name    string
		input   string
		wantErr string
		check   func(t *testing.T, got map[string]benchResult)
	}{
		{
			name:  "parses every metric and strips the GOMAXPROCS suffix",
			input: benchOutput,
			check: func(t *testing.T, got map[string]benchResult) {
				if len(got) != 4 {
					t.Fatalf("got %d benchmarks, want 4: %v", len(got), got)
				}
				it := got["BenchmarkALIteration"]
				for unit, want := range map[string]float64{
					"ns/op": 245637, "cand_evals/op": 79, "cholesky/op": 20,
					"gp_fits/op": 1, "lml_evals/op": 19, "predict_points/op": 110, "B/op": 31096, "allocs/op": 239,
				} {
					if it[unit] != want {
						t.Errorf("BenchmarkALIteration %s = %v, want %v", unit, it[unit], want)
					}
				}
				if got["BenchmarkALLoop/incremental"]["B/op"] != 1086576 {
					t.Errorf("sub-benchmark name not kept: %v", got)
				}
				if got["BenchmarkGPHyperopt"]["lml_evals/op"] != 49 {
					t.Errorf("name without suffix not parsed: %v", got)
				}
			},
		},
		{name: "no benchmark lines", input: "PASS\nok  \trepro\t0.1s\n", wantErr: "no benchmark lines"},
		{
			name:    "bad metric value",
			input:   "BenchmarkX-8   1   12x ns/op\n",
			wantErr: "bad metric value",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := parseBenchOutput(writeFile(t, tc.input))
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("err = %v, want it to mention %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			tc.check(t, got)
		})
	}
}

func TestCompareTolerance(t *testing.T) {
	base := &baselineFile{Benchmarks: map[string]benchResult{
		"BenchmarkA": {"cholesky/op": 10, "lml_evals/op": 0, "ns/op": 100},
	}}
	cases := []struct {
		name    string
		got     map[string]benchResult
		wantErr string // "" means no failures
	}{
		{name: "equal counts", got: map[string]benchResult{"BenchmarkA": {"cholesky/op": 10, "lml_evals/op": 0}}},
		{name: "rise within tolerance", got: map[string]benchResult{"BenchmarkA": {"cholesky/op": 12, "lml_evals/op": 0}}},
		{name: "less work is fine", got: map[string]benchResult{"BenchmarkA": {"cholesky/op": 3, "lml_evals/op": 0}}},
		{name: "ns/op is not guarded", got: map[string]benchResult{"BenchmarkA": {"cholesky/op": 10, "lml_evals/op": 0, "ns/op": 1e9}}},
		{
			name:    "rise beyond tolerance",
			got:     map[string]benchResult{"BenchmarkA": {"cholesky/op": 12.5, "lml_evals/op": 0}},
			wantErr: "cholesky/op regressed",
		},
		{
			name:    "zero baseline allows only tol absolute",
			got:     map[string]benchResult{"BenchmarkA": {"cholesky/op": 10, "lml_evals/op": 1}},
			wantErr: "lml_evals/op regressed",
		},
		{
			name:    "guarded metric missing",
			got:     map[string]benchResult{"BenchmarkA": {"cholesky/op": 10}},
			wantErr: "lml_evals/op missing",
		},
		{name: "benchmark missing", got: map[string]benchResult{}, wantErr: "missing from bench output"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			failures := compare(base, tc.got, 0.20)
			if tc.wantErr == "" {
				if len(failures) != 0 {
					t.Fatalf("unexpected failures: %v", failures)
				}
				return
			}
			if len(failures) != 1 || !strings.Contains(failures[0], tc.wantErr) {
				t.Fatalf("failures = %v, want one mentioning %q", failures, tc.wantErr)
			}
		})
	}
}

// TestComparePredictPoints: a step that goes back to predicting every
// row of a grid with repeated points fails the predict_points/op guard.
func TestComparePredictPoints(t *testing.T) {
	base := &baselineFile{Benchmarks: map[string]benchResult{
		"BenchmarkSessionStepGrid": {"cand_evals/op": 3246, "predict_points/op": 990},
	}}
	if f := compare(base, map[string]benchResult{
		"BenchmarkSessionStepGrid": {"cand_evals/op": 3246, "predict_points/op": 990},
	}, 0.20); len(f) != 0 {
		t.Fatalf("unexpected failures: %v", f)
	}
	f := compare(base, map[string]benchResult{
		"BenchmarkSessionStepGrid": {"cand_evals/op": 3246, "predict_points/op": 3246},
	}, 0.20)
	if len(f) != 1 || !strings.Contains(f[0], "predict_points/op regressed") {
		t.Fatalf("failures = %v, want one predict_points/op regression", f)
	}
}

func TestSpeedupFloors(t *testing.T) {
	ns := func(pairs ...any) map[string]benchResult {
		out := make(map[string]benchResult)
		for i := 0; i < len(pairs); i += 2 {
			out[pairs[i].(string)] = benchResult{"ns/op": pairs[i+1].(float64)}
		}
		return out
	}
	const refit, incr = "BenchmarkALLoop/refit", "BenchmarkALLoop/incremental"
	const dense, sparse = "BenchmarkALLoop/dense_n2048", "BenchmarkALLoop/sparse_n2048"
	cases := []struct {
		name    string
		check   func(map[string]benchResult, float64) error
		results map[string]benchResult
		floor   float64
		wantErr string
	}{
		{"refit/incremental above floor", checkSpeedup, ns(refit, 300.0, incr, 10.0), 3, ""},
		{"refit/incremental below floor", checkSpeedup, ns(refit, 20.0, incr, 10.0), 3, "speedup 2.00x < required 3.00x"},
		{"refit/incremental pair absent", checkSpeedup, ns("BenchmarkOther", 1.0), 3, ""},
		{"refit/incremental pair incomplete", checkSpeedup, ns(refit, 300.0), 3, "pair incomplete"},
		{"incremental reports zero ns/op", checkSpeedup, ns(refit, 300.0, incr, 0.0), 3, "ns/op=0"},
		{"dense/sparse above floor", checkSparseSpeedup, ns(dense, 1e9, sparse, 1e6), 10, ""},
		{"dense/sparse below floor", checkSparseSpeedup, ns(dense, 5e6, sparse, 1e6), 10, "speedup 5.00x < required 10.00x"},
		{"dense/sparse pair incomplete", checkSparseSpeedup, ns(sparse, 1e6), 10, "pair incomplete"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.check(tc.results, tc.floor)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatal(err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("err = %v, want it to mention %q", err, tc.wantErr)
			}
		})
	}
}

func TestMaxBytesCeilings(t *testing.T) {
	ceilings := map[string]float64{"BenchmarkALLoop/incremental": 1000, "BenchmarkGPHyperopt": 500}
	cases := []struct {
		name    string
		results map[string]benchResult
		wantErr string
	}{
		{
			name: "every benchmark at or below its ceiling",
			results: map[string]benchResult{
				"BenchmarkALLoop/incremental": {"B/op": 1000},
				"BenchmarkGPHyperopt":         {"B/op": 80},
			},
		},
		{
			name:    "benchmark absent from the run is skipped",
			results: map[string]benchResult{"BenchmarkGPHyperopt": {"B/op": 80}},
		},
		{
			name: "hyperopt over its ceiling",
			results: map[string]benchResult{
				"BenchmarkALLoop/incremental": {"B/op": 10},
				"BenchmarkGPHyperopt":         {"B/op": 501},
			},
			wantErr: "BenchmarkGPHyperopt allocates 501 B/op > ceiling 500",
		},
		{
			name:    "incremental over its ceiling",
			results: map[string]benchResult{"BenchmarkALLoop/incremental": {"B/op": 2000}},
			wantErr: "BenchmarkALLoop/incremental allocates 2000 B/op",
		},
		{
			name:    "B/op not reported",
			results: map[string]benchResult{"BenchmarkGPHyperopt": {"ns/op": 1}},
			wantErr: "reported no B/op",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := checkMaxBytes(tc.results, ceilings)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatal(err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("err = %v, want it to mention %q", err, tc.wantErr)
			}
		})
	}
}

// TestCommittedBaselineCeilings keeps the checked-in baseline and the
// -update defaults in step: a ceiling edited in one place only would be
// enforced twice with different values.
func TestCommittedBaselineCeilings(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "..", "BENCH_baseline.json"))
	if err != nil {
		t.Fatal(err)
	}
	var base baselineFile
	if err := json.Unmarshal(raw, &base); err != nil {
		t.Fatal(err)
	}
	if len(base.MaxBOp) != len(defaultMaxBOp) {
		t.Fatalf("baseline max_b_op %v, defaults %v", base.MaxBOp, defaultMaxBOp)
	}
	for name, want := range defaultMaxBOp {
		if base.MaxBOp[name] != want {
			t.Fatalf("baseline max_b_op[%s] = %v, default %v", name, base.MaxBOp[name], want)
		}
		if _, ok := base.Benchmarks[name]; !ok {
			t.Fatalf("ceiling for %s, which the baseline does not record", name)
		}
	}
}
