package al

import (
	"math"
	"math/rand"

	"repro/internal/gp"
	"repro/internal/kernel"
	"repro/internal/mat"
)

// Regressor is the model contract the AL loops consume. It is the
// minimal surface every model tier — dense GP, sparse GP, auto — must
// provide: marginal posterior queries, an immutable one-point update,
// a deterministic state digest, and the training-set size.
//
// Contract:
//
//   - A Regressor is an immutable snapshot. Predict and PredictBatch
//     only read and are safe for concurrent use; UpdateWithPoint
//     returns a NEW Regressor and leaves the receiver untouched, so
//     readers of the old snapshot are never disturbed.
//   - Row i of PredictBatch depends only on the bits of row i and the
//     model, and equals Predict of that row bit for bit: the scorer
//     splits a pool over workers and scores each distinct point once
//     on that guarantee.
//   - UpdateWithPoint folds one observation in at fixed
//     hyperparameters. Tiers may realize it with different cost
//     (O(n²) bordered-Cholesky dense, O(n·m) rank-one sparse) but all
//     honor the same semantics: the returned model covers the old
//     training set plus (x, y).
//   - Fingerprint is a deterministic digest of the full fitted state:
//     equal fingerprints mean bit-identical predictions. The serving
//     layer compares fingerprints across checkpoint/resume.
//
// Beyond this interface, loops and strategies discover richer surfaces
// (LML, noise, training data, joint posterior sampling) through the
// optional interfaces below; every built-in tier implements all of
// them except PosteriorSampler, which is dense-only.
type Regressor interface {
	Predict(x []float64) gp.Prediction
	PredictBatch(xs *mat.Dense) []gp.Prediction
	UpdateWithPoint(x []float64, y float64) (Regressor, error)
	Fingerprint() uint64
	NumTrain() int
}

// NoiseModel is the optional noise surface of a Regressor; all built-in
// tiers implement it.
type NoiseModel interface {
	Noise() float64
	LogNoise() float64
	ObservationNoise() float64
}

// LikelihoodModel is the optional model-evidence surface; all built-in
// tiers implement it (the sparse tier reports the DTC marginal
// likelihood).
type LikelihoodModel interface {
	LML() float64
}

// TrainDataModel exposes the training data and kernel of a fitted
// model — what committee and diversity strategies rebuild members from.
// All built-in tiers implement it.
type TrainDataModel interface {
	TrainX() *mat.Dense
	TrainY() []float64
	Kernel() kernel.Kernel
}

// PosteriorSampler draws one joint posterior sample over the rows of
// xs. Only the dense tier implements it; strategies needing it fall
// back to marginal rules on other tiers.
type PosteriorSampler interface {
	PosteriorSample(xs *mat.Dense, rng *rand.Rand) ([]float64, error)
}

// denseRegressor adapts *gp.GP to Regressor. Embedding promotes the
// full dense surface (Kernel, TrainX, TrainY, LML, Noise, LogNoise,
// ObservationNoise, PosteriorSample, Fingerprint, NumTrain, Predict,
// PredictBatch); only UpdateWithPoint needs the wrapper, to re-wrap the
// concrete *gp.GP return into the interface.
type denseRegressor struct{ *gp.GP }

func (d denseRegressor) UpdateWithPoint(x []float64, y float64) (Regressor, error) {
	m, err := d.GP.UpdateWithPoint(x, y)
	if err != nil {
		return nil, err
	}
	return denseRegressor{m}, nil
}

// sparseRegressor adapts *gp.SparseGP the same way.
type sparseRegressor struct{ *gp.SparseGP }

func (s sparseRegressor) UpdateWithPoint(x []float64, y float64) (Regressor, error) {
	m, err := s.SparseGP.UpdateWithPoint(x, y)
	if err != nil {
		return nil, err
	}
	return sparseRegressor{m}, nil
}

// autoRegressor adapts *gp.AutoModel.
type autoRegressor struct{ *gp.AutoModel }

func (a autoRegressor) UpdateWithPoint(x []float64, y float64) (Regressor, error) {
	m, err := a.AutoModel.UpdateWithPoint(x, y)
	if err != nil {
		return nil, err
	}
	return autoRegressor{m}, nil
}

// WrapGP adapts a fitted dense GP to the Regressor interface — the
// bridge for callers that fit dense models directly (batch-mode AL,
// tests) into interface-typed surfaces like ScoreBatch.
func WrapGP(g *gp.GP) Regressor { return denseRegressor{g} }

// WrapSparseGP adapts a fitted sparse GP to the Regressor interface.
func WrapSparseGP(s *gp.SparseGP) Regressor { return sparseRegressor{s} }

// UnwrapGP returns the dense *gp.GP backing r, when there is one —
// either a wrapped dense model or an auto model that resolved dense.
func UnwrapGP(r Regressor) (*gp.GP, bool) {
	switch m := r.(type) {
	case denseRegressor:
		return m.GP, true
	case autoRegressor:
		if g := m.Dense(); g != nil {
			return g, true
		}
	}
	return nil, false
}

// regLML reports the model evidence, NaN when the tier lacks one.
func regLML(r Regressor) float64 {
	if m, ok := r.(LikelihoodModel); ok {
		return m.LML()
	}
	return math.NaN()
}

// regNoise reports the fitted σn, NaN when the tier lacks one.
func regNoise(r Regressor) float64 {
	if m, ok := r.(NoiseModel); ok {
		return m.Noise()
	}
	return math.NaN()
}

// regObsNoise reports σn in response units; 0 (latent-only predictive
// intervals) when the tier lacks a noise surface.
func regObsNoise(r Regressor) float64 {
	if m, ok := r.(NoiseModel); ok {
		return m.ObservationNoise()
	}
	return 0
}
