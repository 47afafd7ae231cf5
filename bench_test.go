package repro

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/al"
	"repro/internal/experiments"
	"repro/internal/gp"
	"repro/internal/hpgmg"
	"repro/internal/kernel"
	"repro/internal/mat"
	"repro/internal/multigrid"
	"repro/internal/obs"
	"repro/internal/serve"
)

// obsCounters samples the observability counters that describe the
// linear-algebra and AL work a benchmark performed. Reporting their
// per-op deltas turns `go test -bench` output into a perf trajectory:
// an optimization PR must show the same (or lower) work counts at lower
// ns/op, and a regression shows up as a count jump even when wall time
// hides it on faster hardware.
type obsCounters struct {
	gpFits, cholesky, candEvals, lmlEvals, predictPoints int64
}

func sampleObs() obsCounters {
	return obsCounters{
		gpFits:        obs.C("gp.fit.count").Value(),
		cholesky:      obs.C("mat.cholesky.count").Value(),
		candEvals:     obs.C("al.candidates.evaluated").Value(),
		lmlEvals:      obs.C("gp.lml.evals").Value(),
		predictPoints: obs.C("gp.predict.points").Value(),
	}
}

// reportObs emits the per-iteration deltas of the key obs counters as
// benchmark metrics.
func reportObs(b *testing.B, before, after obsCounters) {
	b.Helper()
	n := float64(b.N)
	b.ReportMetric(float64(after.gpFits-before.gpFits)/n, "gp_fits/op")
	b.ReportMetric(float64(after.cholesky-before.cholesky)/n, "cholesky/op")
	b.ReportMetric(float64(after.candEvals-before.candEvals)/n, "cand_evals/op")
	b.ReportMetric(float64(after.lmlEvals-before.lmlEvals)/n, "lml_evals/op")
	b.ReportMetric(float64(after.predictPoints-before.predictPoints)/n, "predict_points/op")
}

// Each benchmark regenerates one of the paper's artifacts end to end —
// dataset synthesis, GP fits, AL batches — and reports the headline
// values as benchmark metrics so `go test -bench` output doubles as a
// reproduction log. Quick mode keeps -bench=. affordable; run
// cmd/alrepro (without -quick) for the full-size reproduction.
var benchOpts = experiments.Options{Seed: 1, Quick: true}

func benchReport(b *testing.B, gen func(experiments.Options) (*experiments.Report, error), keys ...string) {
	b.Helper()
	b.ReportAllocs()
	var rep *experiments.Report
	var err error
	before := sampleObs()
	for i := 0; i < b.N; i++ {
		rep, err = gen(benchOpts)
		if err != nil {
			b.Fatal(err)
		}
	}
	reportObs(b, before, sampleObs())
	for _, k := range keys {
		if v, ok := rep.Values[k]; ok {
			b.ReportMetric(v, k)
		}
	}
}

// BenchmarkTableI regenerates Table I (dataset parameters).
func BenchmarkTableI(b *testing.B) {
	benchReport(b, experiments.TableI, "performance_jobs", "power_jobs")
}

// BenchmarkFig1 regenerates the raw scatter subsets and the
// noise-contrast headline (Power ≫ Performance variance).
func BenchmarkFig1(b *testing.B) {
	benchReport(b, experiments.Fig1, "performance_repeat_cv", "power_repeat_cv")
}

// BenchmarkFig2 regenerates the log-transformed view and the log–log
// linearity fit.
func BenchmarkFig2(b *testing.B) {
	benchReport(b, experiments.Fig2, "loglog_slope", "loglog_r2")
}

// BenchmarkFig3 regenerates the 1-D GPR hyperparameter study.
func BenchmarkFig3(b *testing.B) {
	benchReport(b, experiments.Fig3, "b_sd_edge", "b_sd_mid")
}

// BenchmarkFig4 regenerates the peaked LML landscape.
func BenchmarkFig4(b *testing.B) {
	benchReport(b, experiments.Fig4, "grid_peak_lml", "fitted_lml")
}

// BenchmarkFig5 regenerates the small-dataset 2-D GPR and its shallow
// landscape.
func BenchmarkFig5(b *testing.B) {
	benchReport(b, experiments.Fig5, "peak_minus_median", "corner_sd")
}

// BenchmarkFig6 regenerates the AL trajectory study (edges-first
// exploration).
func BenchmarkFig6(b *testing.B) {
	benchReport(b, experiments.Fig6, "edge_fraction_first10", "subset_jobs")
}

// BenchmarkFig7 regenerates the noise-floor comparison.
func BenchmarkFig7(b *testing.B) {
	benchReport(b, experiments.Fig7, "min_noise_low_floor", "min_noise_high_floor")
}

// BenchmarkFig8 regenerates the strategy comparison and cost–error
// tradeoff (the paper's 38% headline).
func BenchmarkFig8(b *testing.B) {
	benchReport(b, experiments.Fig8, "crossover_cost", "max_reduction")
}

// BenchmarkAblationGamma sweeps the cost exponent γ (design-choice
// ablation A1 for the paper's Eq. 14).
func BenchmarkAblationGamma(b *testing.B) {
	benchReport(b, experiments.AblationGamma, "cost_ratio_0_to_1")
}

// BenchmarkAblationKernel compares covariance families (A2).
func BenchmarkAblationKernel(b *testing.B) {
	benchReport(b, experiments.AblationKernel, "rmse_rbf", "rmse_matern52")
}

// BenchmarkAblationSelection compares LML vs LOO-CV model selection (A3,
// the paper's deferred future-work comparison).
func BenchmarkAblationSelection(b *testing.B) {
	benchReport(b, experiments.AblationSelection, "rmse_lml", "rmse_loocv")
}

// BenchmarkAblationParallel compares sequential vs batched selection
// (A4, the §VI scheduling concern).
func BenchmarkAblationParallel(b *testing.B) {
	benchReport(b, experiments.AblationParallel, "vr_sched_speedup", "ce_sched_speedup")
}

// BenchmarkAblationScaling compares dense vs sparse GPR fits on growing
// datasets (A5, the paper's computational-requirements future work).
func BenchmarkAblationScaling(b *testing.B) {
	benchReport(b, experiments.AblationScaling, "dense_fit_s", "sparse_fit_s", "fit_speedup")
}

// BenchmarkAblationEMCM compares the EMCM baseline against GPR variance
// reduction (A6, the §III critique).
func BenchmarkAblationEMCM(b *testing.B) {
	benchReport(b, experiments.AblationEMCM, "final_rmse_gpr", "final_rmse_emcm")
}

// BenchmarkDatasetGeneration measures raw dataset synthesis (all 3246
// Performance jobs through the cluster model).
func BenchmarkDatasetGeneration(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := GeneratePerformanceDataset(1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkALIteration measures one GP-fit-plus-selection step at a
// realistic pool size.
func BenchmarkALIteration(b *testing.B) {
	ds, err := GeneratePerformanceDataset(1)
	if err != nil {
		b.Fatal(err)
	}
	sub, err := StudySubset2D(ds)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	part, err := NewPartition(sub, PartitionConfig{NInitial: 1, TestFrac: 0.2}, rng)
	if err != nil {
		b.Fatal(err)
	}
	cfg := LoopConfig{
		Response:     RespRuntime,
		Strategy:     VarianceReduction{},
		Iterations:   1,
		NoiseFloor:   0.1,
		Restarts:     1,
		AllowRevisit: true,
	}
	b.ReportAllocs()
	b.ResetTimer()
	before := sampleObs()
	for i := 0; i < b.N; i++ {
		if _, err := RunAL(sub, part, cfg, rand.New(rand.NewSource(2))); err != nil {
			b.Fatal(err)
		}
	}
	reportObs(b, before, sampleObs())
}

// BenchmarkALLoop isolates the model-update step of one AL iteration at a
// large training size: the O(n³) from-scratch refit against the O(n²)
// incremental UpdateWithPoint path used between hyperparameter refits.
// The per-op cholesky work counts make the asymptotic difference visible
// (refit: one full factorization; incremental: zero), and the ns/op ratio
// is guarded by scripts/benchdiff via the speedup check recorded in
// BENCH_baseline.json.
func BenchmarkALLoop(b *testing.B) {
	const n = 512
	rng := rand.New(rand.NewSource(1))
	xs := make([][]float64, n+1)
	ys := make([]float64, n+1)
	for i := range xs {
		x := []float64{4 * rng.Float64(), 4 * rng.Float64()}
		xs[i] = x
		ys[i] = math.Sin(2*x[0]) + 0.5*math.Cos(3*x[1]) + 0.05*rng.NormFloat64()
	}
	newCfg := func() gp.Config {
		return gp.Config{Kernel: kernel.NewRBF(0.8, 1.2), NoiseInit: 0.1, FixedNoise: true}
	}
	base, err := gp.Fit(newCfg(), mat.NewFromRows(xs[:n]), ys[:n], nil)
	if err != nil {
		b.Fatal(err)
	}

	b.Run("refit", func(b *testing.B) {
		full := mat.NewFromRows(xs)
		b.ReportAllocs()
		b.ResetTimer()
		before := sampleObs()
		for i := 0; i < b.N; i++ {
			if _, err := gp.Fit(newCfg(), full, ys, nil); err != nil {
				b.Fatal(err)
			}
		}
		reportObs(b, before, sampleObs())
	})
	b.Run("incremental", func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		before := sampleObs()
		for i := 0; i < b.N; i++ {
			if _, err := base.UpdateWithPoint(xs[n], ys[n]); err != nil {
				b.Fatal(err)
			}
		}
		reportObs(b, before, sampleObs())
	})

	// Large-n model tiers: past ~10⁴ points the dense O(n³) refit stops
	// being viable, and the sparse tier's O(m²) incremental step is the
	// only way to keep a campaign interactive. dense_n2048 performs the
	// from-scratch refit a dense campaign would pay per step at that
	// size; sparse_n* performs the UpdateWithPoint step a sparse
	// campaign pays. The ns/op ratio of the matched pair dense_n2048 /
	// sparse_n2048 is the min_sparse_speedup gate in BENCH_baseline.json
	// (enforced by scripts/benchdiff); the dense gap only widens with n,
	// and sparse_n8192 keeps its B/op and work counts gated. Run these
	// with -benchtime=1x.
	largeData := func(n int) (*mat.Dense, []float64, []float64, float64) {
		rng := rand.New(rand.NewSource(3))
		x := mat.New(n, 2)
		ys := make([]float64, n)
		for i := 0; i < n; i++ {
			x.Set(i, 0, 4*rng.Float64())
			x.Set(i, 1, 4*rng.Float64())
			ys[i] = math.Sin(2*x.At(i, 0)) + 0.5*math.Cos(3*x.At(i, 1)) + 0.05*rng.NormFloat64()
		}
		xNew := []float64{4 * rng.Float64(), 4 * rng.Float64()}
		yNew := math.Sin(2*xNew[0]) + 0.5*math.Cos(3*xNew[1])
		return x, ys, xNew, yNew
	}
	for _, big := range []int{2048, 8192} {
		b.Run(fmt.Sprintf("sparse_n%d", big), func(b *testing.B) {
			x, ys, xNew, yNew := largeData(big)
			s, err := gp.FitSparse(gp.SparseConfig{
				Kernel: kernel.NewRBF(0.8, 1.2), Noise: 0.1, Inducing: 256,
			}, x, ys, nil)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			before := sampleObs()
			for i := 0; i < b.N; i++ {
				if _, err := s.UpdateWithPoint(xNew, yNew); err != nil {
					b.Fatal(err)
				}
			}
			reportObs(b, before, sampleObs())
		})
	}
	b.Run("dense_n2048", func(b *testing.B) {
		x, ys, _, _ := largeData(2048)
		b.ReportAllocs()
		b.ResetTimer()
		before := sampleObs()
		for i := 0; i < b.N; i++ {
			if _, err := gp.Fit(gp.Config{
				Kernel: kernel.NewRBF(0.8, 1.2), NoiseInit: 0.1, FixedNoise: true,
			}, x, ys, nil); err != nil {
				b.Fatal(err)
			}
		}
		reportObs(b, before, sampleObs())
	})
}

// perfPaperCoords returns the given rows of the Performance grid in
// paper coordinates: (log10 size, log2 NP, frequency) → log10 runtime.
func perfPaperCoords(ds *Dataset, rows []int) (*mat.Dense, []float64) {
	x := mat.New(len(rows), 3)
	y := make([]float64, len(rows))
	for i, r := range rows {
		p := ds.Row(r) // size, NP, frequency
		x.Set(i, 0, math.Log10(p[0]))
		x.Set(i, 1, math.Log2(p[1]))
		x.Set(i, 2, p[2])
		y[i] = math.Log10(ds.RespAt(RespRuntime, r))
	}
	return x, y
}

// hyperoptFixture returns the Performance grid and the n = 32 training
// rows BenchmarkGPHyperopt fits, in paper coordinates.
func hyperoptFixture(b *testing.B) (ds *Dataset, x *mat.Dense, y []float64) {
	b.Helper()
	ds, err := GeneratePerformanceDataset(1)
	if err != nil {
		b.Fatal(err)
	}
	const n = 32
	x, y = perfPaperCoords(ds, rand.New(rand.NewSource(1)).Perm(ds.Len())[:n])
	return ds, x, y
}

// hyperoptConfig is the fit BenchmarkGPHyperopt measures.
func hyperoptConfig() gp.Config {
	return gp.Config{Kernel: kernel.NewRBF(1, 1), NoiseInit: 0.1, Optimize: true, Restarts: 2}
}

// BenchmarkGPHyperopt measures one dense GP fit with LML hyperparameter
// optimization in the shape the campaign service refits at every step
// of the paper's loop: an RBF kernel from (1, 1), σn from 0.1 with the
// default floor, 2 optimizer restarts, and n = 32 rows of the
// Performance grid in paper coordinates (log10 size, log2 NP,
// frequency → log10 runtime). Each op reseeds the restarts, so the LML
// evaluation and factorization counts per op are fixed; B/op is gated
// by scripts/benchdiff.
func BenchmarkGPHyperopt(b *testing.B) {
	_, x, y := hyperoptFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	before := sampleObs()
	for i := 0; i < b.N; i++ {
		if _, err := gp.Fit(hyperoptConfig(), x, y, rand.New(rand.NewSource(2))); err != nil {
			b.Fatal(err)
		}
	}
	reportObs(b, before, sampleObs())
}

// benchPreds keeps BenchmarkGPPredictBatch's result live.
var benchPreds []gp.Prediction

// BenchmarkGPPredictBatch measures the scoring step of the paper's loop
// (Eqs. 5–6): the model BenchmarkGPHyperopt fits scores all 3246 rows of
// the Performance grid, in paper coordinates, through one PredictBatch.
// B/op is gated by scripts/benchdiff.
func BenchmarkGPPredictBatch(b *testing.B) {
	ds, x, y := hyperoptFixture(b)
	model, err := gp.Fit(hyperoptConfig(), x, y, rand.New(rand.NewSource(2)))
	if err != nil {
		b.Fatal(err)
	}
	all := make([]int, ds.Len())
	for i := range all {
		all[i] = i
	}
	grid, _ := perfPaperCoords(ds, all)
	b.ReportAllocs()
	b.ResetTimer()
	before := sampleObs()
	for i := 0; i < b.N; i++ {
		benchPreds = model.PredictBatch(grid)
	}
	reportObs(b, before, sampleObs())
}

// BenchmarkGPScoreIncremental measures the scoring half of an
// incremental step on the Performance grid in paper coordinates: the
// model BenchmarkGPHyperopt fits on its first 31 rows takes one
// bordered UpdateWithPoint (n = 32), then predicts the grid's 990
// distinct points, serially. "cached" predicts from a gp.KStar filled
// at n = 31 outside the timed region, so each op evaluates one new
// column; "predict_batch" predicts through PredictBatch. B/op is gated
// by scripts/benchdiff.
func BenchmarkGPScoreIncremental(b *testing.B) {
	ds, x, y := hyperoptFixture(b)
	const n = 32
	lead := mat.New(n-1, x.Cols())
	for i := 0; i < n-1; i++ {
		copy(lead.RawRow(i), x.RawRow(i))
	}
	model, err := gp.Fit(hyperoptConfig(), lead, y[:n-1], rand.New(rand.NewSource(2)))
	if err != nil {
		b.Fatal(err)
	}
	all := make([]int, ds.Len())
	for i := range all {
		all[i] = i
	}
	grid, _ := perfPaperCoords(ds, all)
	seen := make(map[[3]float64]bool, grid.Rows())
	var distinct []int
	for i := 0; i < grid.Rows(); i++ {
		if k := [3]float64(grid.RawRow(i)); !seen[k] {
			seen[k] = true
			distinct = append(distinct, i)
		}
	}
	points := mat.New(len(distinct), grid.Cols())
	pts := make([]int32, len(distinct))
	for i, r := range distinct {
		copy(points.RawRow(i), grid.RawRow(r))
		pts[i] = int32(i)
	}
	serial := func(n int, fn func(lo, hi int)) { fn(0, n) }
	update := func() *gp.GP {
		g, err := model.UpdateWithPoint(x.RawRow(n-1), y[n-1])
		if err != nil {
			b.Fatal(err)
		}
		return g
	}
	b.Run("cached", func(b *testing.B) {
		b.ReportAllocs()
		var work, zero obsCounters
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			cache := gp.NewKStar(grid, distinct)
			cache.Predict(model, pts, serial)
			before := sampleObs()
			b.StartTimer()
			benchPreds = cache.Predict(update(), pts, serial)
			b.StopTimer()
			after := sampleObs()
			work.predictPoints += after.predictPoints - before.predictPoints
			b.StartTimer()
		}
		reportObs(b, zero, work)
	})
	b.Run("predict_batch", func(b *testing.B) {
		b.ReportAllocs()
		before := sampleObs()
		for i := 0; i < b.N; i++ {
			benchPreds = update().PredictBatch(points)
		}
		reportObs(b, before, sampleObs())
	})
}

// BenchmarkSessionStepGrid measures one incremental step of a served
// campaign on the full Performance grid in paper coordinates: Tell
// answers the outstanding ask, then Next conditions the model on it
// (RBF, n = 32 after the update, no hyperparameter refit), scores the
// grid and selects. The grid's 3246 rows hold 990 distinct points, each
// predicted once per step (predict_points/op). Each op starts from a
// session restored from the same snapshot and stepped once, outside the
// timed region, so every op conditions the same model and the session
// has already indexed its grid. B/op is gated by scripts/benchdiff.
func BenchmarkSessionStepGrid(b *testing.B) {
	ds, err := GeneratePerformanceDataset(1)
	if err != nil {
		b.Fatal(err)
	}
	rows := make([]int, ds.Len())
	for i := range rows {
		rows[i] = i
	}
	grid, y := perfPaperCoords(ds, rows)
	answer := make(map[[3]float64]float64, len(rows))
	for i := range rows {
		answer[[3]float64(grid.RawRow(i))] = y[i]
	}
	cfg := LoopConfig{
		Response: RespRuntime, Strategy: VarianceReduction{}, Iterations: 100,
		ReoptimizeEvery: 100, AllowRevisit: true,
	}
	// tell answers the session's outstanding ask.
	tell := func(s *al.Session) {
		x, err := s.Next()
		if err != nil || x == nil {
			b.Fatalf("Next = %v, %v", x, err)
		}
		s.Tell(answer[[3]float64(x)], 1, nil)
	}
	// Thirty seeds, then the first AL step refits at n = 30 and its
	// answer is left pending in the snapshot.
	s, err := al.NewSession(grid, rand.New(rand.NewSource(1)).Perm(len(rows))[:30], cfg, nil)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i <= 30; i++ {
		tell(s)
	}
	ck, ok := s.Snapshot()
	if !ok {
		b.Fatal("no snapshot at the iteration boundary")
	}
	b.ReportAllocs()
	b.ResetTimer()
	var work, zero obsCounters
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s, err := al.RestoreSession(grid, cfg, ck)
		if err != nil {
			b.Fatal(err)
		}
		tell(s) // n = 31, and the grid indexed
		if _, err := s.Next(); err != nil {
			b.Fatal(err)
		}
		before := sampleObs()
		b.StartTimer()
		tell(s)
		x, err := s.Next()
		b.StopTimer()
		if err != nil || x == nil {
			b.Fatalf("Next = %v, %v", x, err)
		}
		after := sampleObs()
		work.gpFits += after.gpFits - before.gpFits
		work.cholesky += after.cholesky - before.cholesky
		work.candEvals += after.candEvals - before.candEvals
		work.lmlEvals += after.lmlEvals - before.lmlEvals
		work.predictPoints += after.predictPoints - before.predictPoints
		b.StartTimer()
	}
	reportObs(b, zero, work)
}

// BenchmarkMultigridFMG measures the real HPGMG-FE stand-in across
// operators — the substrate the analytic cost model is calibrated
// against.
func BenchmarkMultigridFMG(b *testing.B) {
	for _, op := range []multigrid.Operator{multigrid.Poisson1, multigrid.Poisson2, multigrid.Poisson2Affine} {
		b.Run(op.String(), func(b *testing.B) {
			s, err := multigrid.NewSolver(multigrid.Config{Op: op, N: 31})
			if err != nil {
				b.Fatal(err)
			}
			s.SetRHS(func(x, y, z float64) float64 { return 1 })
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.FMG(1)
			}
		})
	}
}

// BenchmarkWorkModelCalibration compares the analytic runtime prediction
// against a real solver execution (the Calibrate path), reporting the
// measured/predicted ratio.
func BenchmarkWorkModelCalibration(b *testing.B) {
	b.ReportAllocs()
	var ratio float64
	for i := 0; i < b.N; i++ {
		rows, err := hpgmg.Calibrate(multigrid.Poisson1, []int{31}, hpgmg.WallTimer)
		if err != nil {
			b.Fatal(err)
		}
		ratio = rows[0].Ratio
	}
	b.ReportMetric(ratio, "measured/predicted")
}

// Example of the public API in testable form.
func ExampleGeneratePerformanceDataset() {
	ds, err := GeneratePerformanceDataset(1)
	if err != nil {
		panic(err)
	}
	fmt.Println(ds.Len())
	// Output: 3246
}

// BenchmarkCampaignResume times a campaign service restart: resuming a
// finished campaign from its journal until it is done again, on the full
// Performance grid in paper coordinates. "replay" resumes the journal
// with its snapshot lines stripped, so every journaled observation is
// folded back through the session (each hyperparameter fit and grid
// scoring repeated); "snapshot" resumes the journal as written, which
// restores the terminal snapshot with one fit at its hyperparameters.
// Campaigns run 30 or 100 steps, refitting hyperparameters every step
// ("refit") or every 61st ("incremental"). Informational: no baseline
// gates it.
//
//	go test -run '^$' -bench BenchmarkCampaignResume -benchtime 1x .
func BenchmarkCampaignResume(b *testing.B) {
	ds, err := GeneratePerformanceDataset(1)
	if err != nil {
		b.Fatal(err)
	}
	rows := make([]int, ds.Len())
	for i := range rows {
		rows[i] = i
	}
	x, y := perfPaperCoords(ds, rows)
	cands := make([][]float64, x.Rows())
	answer := make(map[[3]float64]float64, len(cands))
	for i := range cands {
		cands[i] = x.RawRow(i)
		answer[[3]float64(cands[i])] = y[i]
	}
	for _, steps := range []int{30, 100} {
		for _, reopt := range []struct {
			name  string
			every int
		}{{"refit", 1}, {"incremental", 61}} {
			spec := serve.CampaignSpec{
				Source: "client", Candidates: cands, Seeds: []int{0, len(cands) - 1},
				Strategy: "variance-reduction", Iterations: steps, ReoptimizeEvery: reopt.every, Seed: 1,
			}
			id, journal := finishedJournal(b, spec, answer)
			var replay []byte
			for _, line := range bytes.SplitAfter(journal, []byte("\n")) {
				if !bytes.HasPrefix(line, []byte(`{"s":`)) {
					replay = append(replay, line...)
				}
			}
			for _, mode := range []struct {
				name    string
				journal []byte
			}{{"replay", replay}, {"snapshot", journal}} {
				b.Run(fmt.Sprintf("steps%d_%s/%s", steps, reopt.name, mode.name), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						resumeToEnd(b, id, mode.journal)
					}
				})
			}
		}
	}
}

// finishedJournal drives spec to its end on an in-memory store, answering
// each suggestion from answer, and returns the campaign id and journal.
func finishedJournal(b *testing.B, spec serve.CampaignSpec, answer map[[3]float64]float64) (string, []byte) {
	b.Helper()
	store := serve.NewMemStore()
	mgr := serve.NewManager(serve.Config{Store: store})
	defer mgr.Shutdown(context.Background())
	c, err := mgr.Create(spec)
	if err != nil {
		b.Fatal(err)
	}
	for n := 0; n < len(spec.Seeds)+spec.Iterations; {
		sug, err := c.Suggest()
		if errors.Is(err, serve.ErrNoPending) {
			time.Sleep(100 * time.Microsecond)
			continue
		}
		if err != nil {
			b.Fatal(err)
		}
		if err := c.Observe(sug.Seq, answer[[3]float64(sug.X)], 1); err != nil {
			b.Fatal(err)
		}
		n++
	}
	c.Wait()
	journal, err := store.Export(c.ID)
	if err != nil {
		b.Fatal(err)
	}
	return c.ID, journal
}

// resumeToEnd resumes the campaign journal on a fresh manager and waits
// until the restored campaign is done again.
func resumeToEnd(b *testing.B, id string, journal []byte) {
	b.Helper()
	store := serve.NewMemStore()
	if err := store.Import(id, journal); err != nil {
		b.Fatal(err)
	}
	mgr := serve.NewManager(serve.Config{Store: store})
	defer mgr.Shutdown(context.Background())
	if err := mgr.ResumeOne(id); err != nil {
		b.Fatal(err)
	}
	c, err := mgr.Get(id)
	if err != nil {
		b.Fatal(err)
	}
	c.Wait()
	if st, err := c.Status(false); err != nil || st.State != serve.StateDone {
		b.Fatalf("resumed campaign ended %s (err %v)", st.State, err)
	}
}
