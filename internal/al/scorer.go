package al

import (
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
// points a session's scoring passes predicted, al.score.cached the
// passes served from a session's K* cache and al.score.cache_builds the
// passes that built one.
var (
	scoreParallel    = obs.C("al.score.parallel")
	scoreRows        = obs.C("al.score.rows")
	scoreCached      = obs.C("al.score.cached")
	scoreCacheBuilds = obs.C("al.score.cache_builds")
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

// newPointIndex indexes the rows of c. It allocates no key per point:
// an open-addressing table of point numbers, probed from a hash of a
// row's coordinate bits, finds the candidates, and a bit-for-bit row
// compare settles a hash collision, so +0 and −0 stay apart.
func newPointIndex(c *mat.Dense) *pointIndex {
	m := c.Rows()
	idx := &pointIndex{pointOf: make([]int32, m)}
	size := 1
	for size < 2*m {
		size <<= 1
	}
	table := make([]int32, size) // 1 + point number, 0 for an empty slot
	first := make([]int, 0, m)
	for r := 0; r < m; r++ {
		row := c.RawRow(r)
		i := hashBits(row) & uint64(size-1)
		for ; table[i] != 0; i = (i + 1) & uint64(size-1) {
			if sameBits(c.RawRow(first[table[i]-1]), row) {
				break
			}
		}
		if table[i] == 0 {
			first = append(first, r)
			table[i] = int32(len(first))
		}
		idx.pointOf[r] = table[i] - 1
	}
	idx.firstRow = append([]int(nil), first...)
	return idx
}

// hashBits mixes the bits of a row's coordinates (splitmix64's
// finalizer after each word), so that rows differing only in their low
// mantissa bits still spread over the table.
func hashBits(row []float64) uint64 {
	var h uint64
	for _, v := range row {
		h ^= math.Float64bits(v)
		h ^= h >> 30
		h *= 0xbf58476d1ce4e5b9
		h ^= h >> 27
		h *= 0x94d049bb133111eb
		h ^= h >> 31
	}
	return h
}

// sameBits reports whether two rows hold the same coordinate bits.
func sameBits(a, b []float64) bool {
	for j, v := range a {
		if math.Float64bits(v) != math.Float64bits(b[j]) {
			return false
		}
	}
	return true
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
