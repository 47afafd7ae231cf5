// Command benchdiff is the CI benchmark-regression guard. It parses
// `go test -bench` output, extracts the deterministic work-count metrics
// emitted by reportObs (gp_fits/op, cholesky/op, cand_evals/op,
// lml_evals/op, predict_points/op), and compares them against a
// checked-in baseline JSON.
//
// Timing (ns/op) is far too noisy to gate CI on shared runners, but the
// amount of linear-algebra work a benchmark performs per op is exactly
// reproducible: a fit that starts factorizing twice, or an AL iteration
// that starts refitting where it used to update incrementally, shows up
// as a work-count jump regardless of hardware. benchdiff fails when any
// guarded metric regresses (increases) by more than -tol relative to the
// baseline.
//
// Two relative timing checks ARE stable enough to gate: ratios of
// sub-benchmarks inside BenchmarkALLoop run on the same machine in the
// same process, so machine speed cancels. benchdiff requires
// refit/incremental ≥ -min-speedup (default 3, the paper-repro
// acceptance floor for the O(n³)→O(n²) dense update path) and
// dense_n2048/sparse_n2048 ≥ -min-sparse-speedup (default 10, the
// large-n floor for the sparse tier's O(m²) step against the dense
// refit a campaign would otherwise pay at that size; the pair is
// matched in n, and the dense cost only grows faster beyond it).
//
// Absolute allocation figures are gated too: the baseline's max_b_op
// maps a benchmark name to its B/op ceiling (defaults in defaultMaxBOp).
// Go reports allocations deterministically for deterministic code, so
// these are not noisy timing gates. max_retained does the same for the
// live heap a benchmark reports as retained_B/campaign (defaults in
// defaultMaxRetained).
//
// Usage:
//
//	go test -run='^$' -bench 'BenchmarkALIteration|BenchmarkALLoop|BenchmarkGPHyperopt|BenchmarkGPPredictBatch|BenchmarkSessionStepGrid|BenchmarkGPScoreIncremental|BenchmarkRetainedHeap' -benchtime=1x . > bench.txt
//	go run ./scripts/benchdiff -baseline BENCH_baseline.json bench.txt   # compare
//	go run ./scripts/benchdiff -baseline BENCH_baseline.json -update bench.txt  # record
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// guardedMetrics are the work-count metrics gated against the baseline.
// They are deterministic per benchmark op, so any tolerance here is
// headroom for intentional small changes, not measurement noise.
var guardedMetrics = []string{"gp_fits/op", "cholesky/op", "cand_evals/op", "lml_evals/op", "predict_points/op"}

// defaultMaxBOp holds the B/op ceilings -update records:
//   - BenchmarkALLoop/incremental: 60% of the 2,152,336 B/op recorded
//     before the dense factor was stored packed;
//   - BenchmarkALLoop/refit: 70% of the 5,304,288 B/op recorded while
//     every fit factorized into a square factor and copied it packed;
//   - BenchmarkGPHyperopt: 15% of the 3,306,258 B/op recorded before the
//     LML evaluations of a fit shared one workspace;
//   - BenchmarkGPPredictBatch: 15% of the 893,245 B/op recorded while
//     PredictBatch built the full m×n cross-covariance;
//   - BenchmarkSessionStepGrid: about 2% over the 199,992 B/op
//     recorded when the score cache began to keep V = L⁻¹K* and its
//     predictions buffer, below the 209,000 B/op of the K* cache alone
//     and the 288,286 B/op of a step that predicted every row of the
//     grid, repeats included;
//   - BenchmarkGPScoreIncremental/cached: about 1.05× the 23,920 B/op
//     recorded then (the bordered update and one new 15,840 B row of
//     K* and V), against 33,136 B/op for the K* cache alone, which
//     allocated the predictions and a 4n scratch on every pass.
var defaultMaxBOp = map[string]float64{
	"BenchmarkALLoop/incremental":        1291402,
	"BenchmarkALLoop/refit":              3713002,
	"BenchmarkGPHyperopt":                495938,
	"BenchmarkGPPredictBatch":            133987,
	"BenchmarkSessionStepGrid":           204000,
	"BenchmarkGPScoreIncremental/cached": 25000,
}

// defaultMaxRetained holds the retained_B/campaign ceilings -update
// records:
//   - BenchmarkRetainedHeap/shared: about 1.5% over the 802,000 B a
//     parked campaign retained with the K*/V score cache, the shared grid
//     table and the shared replica rows, and below the 820,000 B it
//     retained before them with the K* cache alone;
//   - BenchmarkRetainedHeap/distinct: about 1.5% over the 959,000 B it
//     retained with nothing shared between campaigns, where V is not paid
//     for (819,000 B with the K* cache alone).
var defaultMaxRetained = map[string]float64{
	"BenchmarkRetainedHeap/shared":   815000,
	"BenchmarkRetainedHeap/distinct": 975000,
}

// benchResult holds every `value unit` metric pair reported on one
// benchmark output line, keyed by unit.
type benchResult map[string]float64

// baselineFile is the checked-in BENCH_baseline.json schema. Informational
// holds ns/op and allocation figures for human reference; only guarded
// metrics, the speedup floors and the B/op ceilings are enforced.
type baselineFile struct {
	Note             string                 `json:"note"`
	MinSpeedup       float64                `json:"min_alloop_speedup"`
	MinSparseSpeedup float64                `json:"min_sparse_speedup"`
	MaxBOp           map[string]float64     `json:"max_b_op"`
	MaxRetained      map[string]float64     `json:"max_retained"`
	Benchmarks       map[string]benchResult `json:"benchmarks"`
}

// benchLine matches one data line of `go test -bench` output, e.g.
//
//	BenchmarkALLoop/refit-8   1   19317649 ns/op   1.000 cholesky/op ...
//
// The trailing -N is the GOMAXPROCS suffix and is stripped so baselines
// transfer between machines with different core counts.
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+(.*)$`)

func parseBenchOutput(path string) (map[string]benchResult, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()

	out := make(map[string]benchResult)
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		name, rest := m[1], strings.Fields(m[2])
		res := out[name]
		if res == nil {
			res = make(benchResult)
			out[name] = res
		}
		// rest is alternating value/unit pairs.
		for i := 0; i+1 < len(rest); i += 2 {
			v, err := strconv.ParseFloat(rest[i], 64)
			if err != nil {
				return nil, fmt.Errorf("%s: bad metric value %q: %v", name, rest[i], err)
			}
			res[rest[i+1]] = v
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no benchmark lines found", path)
	}
	return out, nil
}

// checkRatio enforces one same-process timing ratio: the slow
// sub-benchmark must cost at least minSpeedup× the fast one. Both
// benchmarks absent is fine (not in this run); one absent is an error
// once the pair is expected.
func checkRatio(results map[string]benchResult, slow, fast string, minSpeedup float64) error {
	s, okS := results[slow]
	f, okF := results[fast]
	if !okS && !okF {
		return nil // pair not in this run; nothing to enforce
	}
	if !okS || !okF {
		return fmt.Errorf("speedup pair incomplete: have %s=%v, %s=%v", slow, okS, fast, okF)
	}
	sn, fn := s["ns/op"], f["ns/op"]
	if fn <= 0 {
		return fmt.Errorf("%s reported ns/op=%g", fast, fn)
	}
	ratio := sn / fn
	if ratio < minSpeedup {
		return fmt.Errorf("%s/%s speedup %.2fx < required %.2fx (%.0f ns/op vs %.0f ns/op)",
			slow, fast, ratio, minSpeedup, sn, fn)
	}
	fmt.Printf("ok\t%s / %s speedup %.1fx (floor %.1fx)\n", slow, fast, ratio, minSpeedup)
	return nil
}

// checkSpeedup enforces the incremental-update acceptance floor: the
// refit sub-benchmark must cost at least minSpeedup× the incremental one.
func checkSpeedup(results map[string]benchResult, minSpeedup float64) error {
	return checkRatio(results, "BenchmarkALLoop/refit", "BenchmarkALLoop/incremental", minSpeedup)
}

// checkSparseSpeedup enforces the large-n tier floor: at n = 2048 the
// dense from-scratch refit must cost at least minSpeedup× the sparse
// incremental step.
func checkSparseSpeedup(results map[string]benchResult, minSpeedup float64) error {
	return checkRatio(results, "BenchmarkALLoop/dense_n2048", "BenchmarkALLoop/sparse_n2048", minSpeedup)
}

// checkCeilings enforces absolute ceilings on one metric (unit): B/op
// for max_b_op, retained_B/campaign for max_retained. A benchmark absent
// from this run is skipped; compare reports baseline benchmarks missing
// from the output.
func checkCeilings(results map[string]benchResult, ceilings map[string]float64, unit string) error {
	names := make([]string, 0, len(ceilings))
	for name := range ceilings {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		res, ok := results[name]
		if !ok {
			continue
		}
		got, ok := res[unit]
		if !ok {
			return fmt.Errorf("%s reported no %s", name, unit)
		}
		if got > ceilings[name] {
			return fmt.Errorf("%s reports %.0f %s > ceiling %.0f", name, got, unit, ceilings[name])
		}
		fmt.Printf("ok\t%s %.0f %s (ceiling %.0f)\n", name, got, unit, ceilings[name])
	}
	return nil
}

func compare(base *baselineFile, results map[string]benchResult, tol float64) []string {
	var failures []string
	names := make([]string, 0, len(base.Benchmarks))
	for name := range base.Benchmarks {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		want := base.Benchmarks[name]
		got, ok := results[name]
		if !ok {
			failures = append(failures, fmt.Sprintf("%s: in baseline but missing from bench output", name))
			continue
		}
		for _, metric := range guardedMetrics {
			w, okW := want[metric]
			g, okG := got[metric]
			if !okW {
				continue // metric not recorded in baseline; nothing to guard
			}
			if !okG {
				failures = append(failures, fmt.Sprintf("%s: metric %s missing from bench output", name, metric))
				continue
			}
			// Only increases are regressions; doing less work is fine.
			limit := w * (1 + tol)
			if w == 0 {
				limit = tol // zero-baseline: allow only tiny absolute drift
			}
			if g > limit {
				failures = append(failures, fmt.Sprintf("%s: %s regressed %.3f → %.3f (limit %.3f, tol %.0f%%)",
					name, metric, w, g, limit, tol*100))
			} else {
				fmt.Printf("ok\t%s %s %.3f (baseline %.3f)\n", name, metric, g, w)
			}
		}
	}
	return failures
}

func writeBaseline(path string, results map[string]benchResult, minSpeedup, minSparse float64) error {
	base := baselineFile{
		Note: "Deterministic work counts per benchmark op, recorded by scripts/benchdiff -update. " +
			"CI fails if a guarded metric (" + strings.Join(guardedMetrics, ", ") + ") " +
			"rises more than the tolerance, if the ALLoop refit/incremental or dense_n2048/sparse_n2048 " +
			"speedup drops below its floor, or if a benchmark's B/op exceeds its max_b_op ceiling " +
			"or its retained_B/campaign its max_retained ceiling. " +
			"Other ns/op and allocation figures are informational only.",
		MinSpeedup:       minSpeedup,
		MinSparseSpeedup: minSparse,
		MaxBOp:           defaultMaxBOp,
		MaxRetained:      defaultMaxRetained,
		Benchmarks:       results,
	}
	buf, err := json.MarshalIndent(&base, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

func main() {
	baselinePath := flag.String("baseline", "BENCH_baseline.json", "baseline JSON to compare against (or write with -update)")
	update := flag.Bool("update", false, "record the bench output as the new baseline instead of comparing")
	tol := flag.Float64("tol", 0.20, "allowed relative increase of guarded work-count metrics")
	minSpeedup := flag.Float64("min-speedup", 3, "required BenchmarkALLoop refit/incremental ns-per-op ratio")
	minSparse := flag.Float64("min-sparse-speedup", 10, "required BenchmarkALLoop dense_n2048/sparse_n2048 ns-per-op ratio")
	flag.Parse()

	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: benchdiff [-baseline file] [-update] [-tol frac] [-min-speedup x] [-min-sparse-speedup x] bench.txt")
		os.Exit(2)
	}
	results, err := parseBenchOutput(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(1)
	}

	for _, err := range []error{
		checkSpeedup(results, *minSpeedup),
		checkSparseSpeedup(results, *minSparse),
		checkCeilings(results, defaultMaxBOp, "B/op"),
		checkCeilings(results, defaultMaxRetained, "retained_B/campaign"),
	} {
		if err != nil {
			fmt.Fprintln(os.Stderr, "FAIL\t"+err.Error())
			os.Exit(1)
		}
	}

	if *update {
		if err := writeBaseline(*baselinePath, results, *minSpeedup, *minSparse); err != nil {
			fmt.Fprintln(os.Stderr, "benchdiff:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s (%d benchmarks)\n", *baselinePath, len(results))
		return
	}

	raw, err := os.ReadFile(*baselinePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(1)
	}
	var base baselineFile
	if err := json.Unmarshal(raw, &base); err != nil {
		fmt.Fprintf(os.Stderr, "benchdiff: parsing %s: %v\n", *baselinePath, err)
		os.Exit(1)
	}
	// The baseline's recorded floors/ceilings win over the flag defaults
	// when they differ — the checked-in file is the source of truth in CI.
	if base.MinSpeedup > 0 && base.MinSpeedup != *minSpeedup {
		if err := checkSpeedup(results, base.MinSpeedup); err != nil {
			fmt.Fprintln(os.Stderr, "FAIL\t"+err.Error())
			os.Exit(1)
		}
	}
	if base.MinSparseSpeedup > 0 && base.MinSparseSpeedup != *minSparse {
		if err := checkSparseSpeedup(results, base.MinSparseSpeedup); err != nil {
			fmt.Fprintln(os.Stderr, "FAIL\t"+err.Error())
			os.Exit(1)
		}
	}
	if !maps.Equal(base.MaxBOp, defaultMaxBOp) {
		if err := checkCeilings(results, base.MaxBOp, "B/op"); err != nil {
			fmt.Fprintln(os.Stderr, "FAIL\t"+err.Error())
			os.Exit(1)
		}
	}
	if !maps.Equal(base.MaxRetained, defaultMaxRetained) {
		if err := checkCeilings(results, base.MaxRetained, "retained_B/campaign"); err != nil {
			fmt.Fprintln(os.Stderr, "FAIL\t"+err.Error())
			os.Exit(1)
		}
	}
	failures := compare(&base, results, *tol)
	if len(failures) > 0 {
		for _, f := range failures {
			fmt.Fprintln(os.Stderr, "FAIL\t"+f)
		}
		os.Exit(1)
	}
	fmt.Println("benchdiff: all guarded metrics within tolerance")
}
