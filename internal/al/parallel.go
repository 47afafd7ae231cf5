package al

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/dataset"
	"repro/internal/gp"
	"repro/internal/stats"
)

// ParallelConfig drives batch-mode Active Learning: each round selects
// BatchSize experiments at once (kriging believer, al.BatchSelect) and
// "runs them in parallel" — the wall-clock cost of a round is the
// *maximum* cost among its experiments, not the sum. This addresses the
// paper's future-work note (§VI) that parallel experiments add scheduling
// concerns and call for a less greedy selection strategy.
type ParallelConfig struct {
	Loop      LoopConfig
	BatchSize int // experiments per round (≥ 1)
	Rounds    int // selection rounds; 0 derives from Loop.Iterations

	// DiversityLambda > 0 switches batch construction from the kriging
	// believer (BatchSelect, k fantasy model updates per round) to
	// greedy k-center selection (BatchSelectKCenter) with this distance
	// weight — cheaper per round and explicitly spread across the
	// design space.
	DiversityLambda float64
}

// RoundRecord captures one parallel round.
type RoundRecord struct {
	Round     int
	Rows      []int
	AMSD      float64
	RMSE      float64
	CumCost   float64 // sum of per-experiment costs (resource cost)
	WallClock float64 // sum over rounds of max per-round cost
	Train     int
}

// ParallelResult is one batched AL realization.
type ParallelResult struct {
	Strategy string
	Rounds   []RoundRecord
	Final    *gp.GP
}

// RunParallel executes batch-mode AL over a partitioned dataset.
func RunParallel(ds *dataset.Dataset, part dataset.Partition, cfg ParallelConfig, rng *rand.Rand) (ParallelResult, error) {
	c, err := cfg.Loop.withDefaults()
	if err != nil {
		return ParallelResult{}, err
	}
	if cfg.BatchSize < 1 {
		return ParallelResult{}, errors.New("al: ParallelConfig.BatchSize must be ≥ 1")
	}
	if err := part.Validate(ds); err != nil {
		return ParallelResult{}, err
	}
	if len(part.Initial) == 0 || len(part.Active) == 0 {
		return ParallelResult{}, errors.New("al: partition needs nonempty Initial and Active sets")
	}
	if rng == nil {
		rng = rand.New(rand.NewSource(1))
	}
	rounds := cfg.Rounds
	if rounds <= 0 {
		if c.Iterations > 0 {
			rounds = (c.Iterations + cfg.BatchSize - 1) / cfg.BatchSize
		} else {
			rounds = len(part.Active) / cfg.BatchSize
		}
	}

	train := append([]int(nil), part.Initial...)
	pool := append([]int(nil), part.Active...)
	testX := ds.Matrix(part.Test)
	testY := ds.RespVec(c.Response, part.Test)
	dims := len(ds.VarNames())

	res := ParallelResult{Strategy: c.Strategy.Name() + "/batch"}
	if cfg.DiversityLambda > 0 {
		res.Strategy = c.Strategy.Name() + "/batch-kcenter"
	}
	var cumCost, wall float64
	var model *gp.GP

	for round := 1; round <= rounds; round++ {
		k := cfg.BatchSize
		if !c.AllowRevisit && k > len(pool) {
			k = len(pool)
		}
		if k == 0 {
			break
		}
		floor := c.NoiseFloor
		if c.DynamicFloorC > 0 {
			floor = gp.DynamicNoiseFloor(c.DynamicFloorC, len(train))
		}
		gcfg := gp.Config{
			Kernel:     c.NewKernel(dims),
			NoiseInit:  math.Max(0.1, floor),
			NoiseFloor: floor,
			Optimize:   true,
			Restarts:   c.Restarts,
			Normalize:  c.Normalize,
		}
		if model != nil {
			gcfg.Kernel.SetHyper(model.Kernel().Hyper())
			gcfg.NoiseInit = math.Max(model.Noise(), floor)
		}
		model, err = gp.Fit(gcfg, ds.Matrix(train), ds.RespVec(c.Response, train), rng)
		if err != nil {
			return ParallelResult{}, fmt.Errorf("al: parallel round %d: %w", round, err)
		}

		poolX := ds.Matrix(pool)
		preds := scorePool(WrapGP(model), poolX, resolveScoreWorkers(c.ScoreWorkers))
		cands := make([]Candidate, len(pool))
		var amsd float64
		for i, row := range pool {
			cands[i] = Candidate{Row: row, X: poolX.RawRow(i), Pred: preds[i]}
			amsd += preds[i].SD
		}
		amsd /= float64(len(pool))

		var picks []int
		if cfg.DiversityLambda > 0 {
			picks, err = BatchSelectKCenter(cands, k, cfg.DiversityLambda)
		} else {
			picks, err = BatchSelect(model, cands, k, c.Strategy, rng)
		}
		if err != nil {
			return ParallelResult{}, fmt.Errorf("al: parallel round %d: %w", round, err)
		}
		var roundMax float64
		for _, row := range picks {
			train = append(train, row)
			cost := ds.CostAt(row)
			cumCost += cost
			if cost > roundMax {
				roundMax = cost
			}
			if !c.AllowRevisit {
				for i, p := range pool {
					if p == row {
						pool = append(pool[:i], pool[i+1:]...)
						break
					}
				}
			}
		}
		wall += roundMax

		rmse := math.NaN()
		if len(testY) > 0 {
			rmse = stats.RMSE(gp.Means(model.PredictBatch(testX)), testY)
		}
		res.Rounds = append(res.Rounds, RoundRecord{
			Round:     round,
			Rows:      picks,
			AMSD:      amsd,
			RMSE:      rmse,
			CumCost:   cumCost,
			WallClock: wall,
			Train:     len(train),
		})
	}
	res.Final = model
	return res, nil
}
