package al

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"

	"repro/internal/dataset"
	"repro/internal/stats"
)

// BatchConfig runs the same AL configuration over many random partitions
// of one dataset — the paper's mechanism for studying behaviour
// independent of the initial state (§IV, Figs. 7–8).
type BatchConfig struct {
	Loop      LoopConfig
	Partition dataset.PartitionConfig
	// Runs is the number of random partitions (paper: 10 for Fig. 7,
	// 50 for Fig. 8).
	Runs int
	// Seed makes the batch deterministic; partition r uses Seed + r.
	Seed int64
	// Parallel fans runs out over GOMAXPROCS workers.
	Parallel bool
}

// RunBatch executes cfg.Runs independent AL realizations.
func RunBatch(ds *dataset.Dataset, cfg BatchConfig) ([]Result, error) {
	if cfg.Runs <= 0 {
		cfg.Runs = 10
	}
	results := make([]Result, cfg.Runs)
	errs := make([]error, cfg.Runs)
	runOne := func(r int) {
		rng := rand.New(rand.NewSource(cfg.Seed + int64(r)*7919))
		part, err := dataset.RandomPartition(ds, cfg.Partition, rng)
		if err != nil {
			errs[r] = err
			return
		}
		results[r], errs[r] = Run(ds, part, cfg.Loop, rng)
	}
	if cfg.Parallel {
		workers := runtime.GOMAXPROCS(0)
		if workers > cfg.Runs {
			workers = cfg.Runs
		}
		idx := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for r := range idx {
					runOne(r)
				}
			}()
		}
		for r := 0; r < cfg.Runs; r++ {
			idx <- r
		}
		close(idx)
		wg.Wait()
	} else {
		for r := 0; r < cfg.Runs; r++ {
			runOne(r)
		}
	}
	for r, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("al: batch run %d: %w", r, err)
		}
	}
	return results, nil
}

// Curves are per-iteration averages across a batch of runs — the
// aggregate trajectories plotted in Figs. 7 and 8(a).
type Curves struct {
	Iter     []int
	SDChosen []float64
	AMSD     []float64
	RMSE     []float64
	CumCost  []float64
}

// AverageCurves aggregates batch results iteration-by-iteration, up to
// the shortest run's length.
func AverageCurves(results []Result) Curves {
	if len(results) == 0 {
		return Curves{}
	}
	minLen := len(results[0].Records)
	for _, r := range results[1:] {
		if len(r.Records) < minLen {
			minLen = len(r.Records)
		}
	}
	c := Curves{}
	for i := 0; i < minLen; i++ {
		var sd, amsd, rmse, cost float64
		nRMSE := 0
		for _, r := range results {
			rec := r.Records[i]
			sd += rec.SDChosen
			amsd += rec.AMSD
			cost += rec.CumCost
			if !math.IsNaN(rec.RMSE) {
				rmse += rec.RMSE
				nRMSE++
			}
		}
		n := float64(len(results))
		c.Iter = append(c.Iter, i+1)
		c.SDChosen = append(c.SDChosen, sd/n)
		c.AMSD = append(c.AMSD, amsd/n)
		c.CumCost = append(c.CumCost, cost/n)
		if nRMSE > 0 {
			c.RMSE = append(c.RMSE, rmse/float64(nRMSE))
		} else {
			c.RMSE = append(c.RMSE, math.NaN())
		}
	}
	return c
}

// FinalRMSEs returns the last-iteration RMSE of each run.
func FinalRMSEs(results []Result) []float64 {
	out := make([]float64, 0, len(results))
	for _, r := range results {
		if len(r.Records) > 0 {
			out = append(out, r.Records[len(r.Records)-1].RMSE)
		}
	}
	return out
}

// EarlySDCollapseFraction reports the fraction of runs whose selected-point
// SD drops below threshold within the first k iterations — the §V-B4
// symptom ("σ_f(x) drops to negligible values before the 5th iteration").
func EarlySDCollapseFraction(results []Result, k int, threshold float64) float64 {
	if len(results) == 0 {
		return 0
	}
	collapsed := 0
	for _, r := range results {
		n := k
		if n > len(r.Records) {
			n = len(r.Records)
		}
		for _, rec := range r.Records[:n] {
			if rec.SDChosen < threshold {
				collapsed++
				break
			}
		}
	}
	return float64(collapsed) / float64(len(results))
}

// StableAMSD estimates the converged AMSD level of a batch as the median
// AMSD over the last quarter of iterations.
func StableAMSD(results []Result) float64 {
	var tail []float64
	for _, r := range results {
		n := len(r.Records)
		if n == 0 {
			continue
		}
		for _, rec := range r.Records[n-n/4-1:] {
			tail = append(tail, rec.AMSD)
		}
	}
	if len(tail) == 0 {
		return math.NaN()
	}
	return stats.Median(tail)
}
