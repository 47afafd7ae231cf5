package al

import (
	"encoding/binary"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/gp"
	"repro/internal/mat"
	"repro/internal/obs"
)

// Scorer metrics (see OBSERVABILITY.md): one al.score.parallel tick per
// scoring pass that fanned out over workers, next to the serial passes
// implied by al.candidates.evaluated; al.score.rows counts the distinct
// points a session's scoring passes predicted.
var (
	scoreParallel = obs.C("al.score.parallel")
	scoreRows     = obs.C("al.score.rows")
)

// minParallelScore is the pool size below which scoring stays serial:
// goroutine startup dominates PredictBatch on tiny pools.
const minParallelScore = 32

// defaultScoreWorkers holds the process-wide worker count used when
// LoopConfig.ScoreWorkers is 0; ≤ 0 means runtime.GOMAXPROCS(0).
var defaultScoreWorkers atomic.Int64

// SetDefaultScoreWorkers sets the scorer worker count used by loops whose
// LoopConfig.ScoreWorkers is zero. n ≤ 0 restores the default,
// runtime.GOMAXPROCS(0); n == 1 makes scoring serial process-wide (the
// CLIs' -parallel=false). Safe for concurrent use.
func SetDefaultScoreWorkers(n int) {
	if n < 0 {
		n = 0
	}
	defaultScoreWorkers.Store(int64(n))
}

// resolveScoreWorkers maps a LoopConfig.ScoreWorkers value to an
// effective worker count: 0 defers to SetDefaultScoreWorkers (falling
// back to GOMAXPROCS), anything else is used as given.
func resolveScoreWorkers(cfg int) int {
	if cfg > 0 {
		return cfg
	}
	if d := int(defaultScoreWorkers.Load()); d > 0 {
		return d
	}
	return runtime.GOMAXPROCS(0)
}

// scorePool evaluates the model's predictive distribution at every row of
// poolX, fanning contiguous row chunks out over a worker pool with one
// batched PredictBatch call per chunk. Each prediction depends only on
// its own row, and results are written by index, so the output is
// identical to the serial path regardless of scheduling — parallel and
// serial loops produce the same selection traces.
//
// The model is only read (PredictBatch is safe for concurrent use on
// any fitted Regressor tier), so a single model may back many
// concurrent scorePool calls.
func scorePool(model Regressor, poolX *mat.Dense, workers int) []gp.Prediction {
	m := poolX.Rows()
	if workers < 2 || m < minParallelScore {
		return model.PredictBatch(poolX)
	}
	if workers > m {
		workers = m
	}
	scoreParallel.Inc()
	out := make([]gp.Prediction, m)
	chunk := (m + workers - 1) / workers
	var wg sync.WaitGroup
	cols := poolX.Cols()
	raw := poolX.Raw()
	for lo := 0; lo < m; lo += chunk {
		hi := lo + chunk
		if hi > m {
			hi = m
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			sub := mat.NewFromData(hi-lo, cols, raw[lo*cols:hi*cols])
			copy(out[lo:hi], model.PredictBatch(sub))
		}(lo, hi)
	}
	wg.Wait()
	return out
}

// pointIndex numbers the distinct points of a candidate grid, compared
// by the bits of their coordinates: pointOf[r] is the point row r
// holds and firstRow[k] the first row holding point k. The paper's
// Performance grid repeats each configuration up to three times, so its
// 3246 rows hold 990 points.
type pointIndex struct {
	pointOf  []int32
	firstRow []int
}

// newPointIndex indexes the rows of c.
func newPointIndex(c *mat.Dense) *pointIndex {
	m := c.Rows()
	idx := &pointIndex{pointOf: make([]int32, m)}
	seen := make(map[string]int32, m)
	key := make([]byte, 8*c.Cols())
	for r := 0; r < m; r++ {
		for j, v := range c.RawRow(r) {
			binary.LittleEndian.PutUint64(key[8*j:], math.Float64bits(v))
		}
		k, ok := seen[string(key)]
		if !ok {
			k = int32(len(idx.firstRow))
			seen[string(key)] = k
			idx.firstRow = append(idx.firstRow, r)
		}
		idx.pointOf[r] = k
	}
	return idx
}

// ScoreBatch evaluates the model's predictive distribution at every row
// of xs using the same chunked worker fan-out as the loop's candidate
// scorer (workers ≤ 0 resolves like LoopConfig.ScoreWorkers: the
// process default, falling back to GOMAXPROCS). It exists for callers
// outside the loop — the serving layer's batched /predict endpoint —
// so that request-driven inference and in-loop scoring share one
// deterministic code path. Any model tier works: dense, sparse, and
// auto regressors are all immutable snapshots under concurrent reads.
func ScoreBatch(model Regressor, xs *mat.Dense, workers int) []gp.Prediction {
	return scorePool(model, xs, resolveScoreWorkers(workers))
}

// parChunks splits [0, n) into contiguous chunks across workers and runs
// fn on each concurrently; fn must only write state owned by its own
// index range. Serial when workers < 2 or n is small.
func parChunks(n, workers int, fn func(lo, hi int)) {
	if workers < 2 || n < minParallelScore {
		fn(0, n)
		return
	}
	if workers > n {
		workers = n
	}
	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}
