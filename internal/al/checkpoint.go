package al

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"

	"repro/internal/dataset"
	"repro/internal/gp"
	"repro/internal/mat"
	"repro/internal/obs"
)

var checkpointsSaved = obs.C("al.checkpoints.saved")

// CheckpointVersion is the on-disk format version; Resume rejects
// checkpoints written by an incompatible loop.
const CheckpointVersion = 1

// Checkpoint is the complete, JSON-serializable state of Run's session
// at an iteration boundary. Together with the dataset, partition and
// the LoopConfig that produced it, it deterministically reconstructs
// the session: the GP is rebuilt bit-for-bit from the recorded
// hyperparameter state (gp.FitAtHypers over the refit prefix, then the
// same incremental-update chain), and the RNG is fast-forwarded to
// Draws, so a resumed run selects exactly the rows the uninterrupted
// run would have.
type Checkpoint struct {
	Version  int    `json:"version"`
	Strategy string `json:"strategy"`
	Response string `json:"response"`

	// Model is the regression tier the loop ran ("dense", "sparse",
	// "auto"); empty means dense — checkpoints from before the tier
	// system resume unchanged.
	Model string `json:"model,omitempty"`

	Seed  int64  `json:"seed"`
	Draws uint64 `json:"draws"`

	// NextIter is the 1-based iteration the resumed loop starts at.
	NextIter int `json:"next_iter"`

	Train  []int     `json:"train"`
	TrainY []float64 `json:"train_y"`
	Pool   []int     `json:"pool"`

	CumCost  JSONFloat `json:"cum_cost"`
	AMSDHist []float64 `json:"amsd_hist"`

	// NSeeds counts the leading training rows measured as seeds, which
	// Result.TrainRows leaves out (0 for Run, whose Initial rows count).
	NSeeds int `json:"n_seeds,omitempty"`

	// Done and Converged record a session that has stopped by itself
	// (convergence or budget) or, in a snapshot, one that has ended.
	Done      bool `json:"done,omitempty"`
	Converged bool `json:"converged,omitempty"`

	// The model is stored as a recipe, not a matrix dump: hypers of the
	// last (possibly degraded) refit, the train-prefix length it was
	// fitted on, and the pending point not yet conditioned in.
	RefitHyper []float64 `json:"refit_hyper"`
	RefitLogSN float64   `json:"refit_log_sn"`
	RefitN     int       `json:"refit_n"`

	// The pending point is the last training observation. PendingX and
	// PendingY repeat it for readers; Resume takes it from Train.
	HasPending bool      `json:"has_pending"`
	PendingX   []float64 `json:"pending_x,omitempty"`
	PendingY   float64   `json:"pending_y"`

	// Attempts counts measurement attempts per dataset row, keying the
	// fault injector so a resumed retry is the same draw it would have
	// been uninterrupted.
	Attempts map[int]int `json:"attempts,omitempty"`

	Records []JSONRecord `json:"records"`
}

// JSONFloat is a float64 whose JSON encoding tolerates the non-finite
// values encoding/json rejects: NaN marshals as null, infinities as
// signed strings. Finite values use the standard shortest-round-trip
// encoding, so they survive a save/load cycle bit-exactly.
type JSONFloat float64

func (f JSONFloat) MarshalJSON() ([]byte, error) {
	v := float64(f)
	switch {
	case math.IsNaN(v):
		return []byte("null"), nil
	case math.IsInf(v, 1):
		return []byte(`"+inf"`), nil
	case math.IsInf(v, -1):
		return []byte(`"-inf"`), nil
	}
	return json.Marshal(v)
}

func (f *JSONFloat) UnmarshalJSON(b []byte) error {
	switch string(b) {
	case "null":
		*f = JSONFloat(math.NaN())
		return nil
	case `"+inf"`:
		*f = JSONFloat(math.Inf(1))
		return nil
	case `"-inf"`:
		*f = JSONFloat(math.Inf(-1))
		return nil
	}
	v, err := strconv.ParseFloat(string(b), 64)
	if err != nil {
		return err
	}
	*f = JSONFloat(v)
	return nil
}

// JSONRecord mirrors IterationRecord with NaN-safe floats (RMSE and
// Coverage are NaN when the partition has no Test set).
type JSONRecord struct {
	Iter     int       `json:"iter"`
	Row      int       `json:"row"`
	SDChosen JSONFloat `json:"sd_chosen"`
	AMSD     JSONFloat `json:"amsd"`
	RMSE     JSONFloat `json:"rmse"`
	Coverage JSONFloat `json:"coverage"`
	CumCost  JSONFloat `json:"cum_cost"`
	LML      JSONFloat `json:"lml"`
	Noise    JSONFloat `json:"noise"`
	Train    int       `json:"train"`
}

func ToJSONRecord(r IterationRecord) JSONRecord {
	return JSONRecord{
		Iter: r.Iter, Row: r.Row, SDChosen: JSONFloat(r.SDChosen),
		AMSD: JSONFloat(r.AMSD), RMSE: JSONFloat(r.RMSE), Coverage: JSONFloat(r.Coverage),
		CumCost: JSONFloat(r.CumCost), LML: JSONFloat(r.LML), Noise: JSONFloat(r.Noise),
		Train: r.Train,
	}
}

func FromJSONRecord(r JSONRecord) IterationRecord {
	return IterationRecord{
		Iter: r.Iter, Row: r.Row, SDChosen: float64(r.SDChosen),
		AMSD: float64(r.AMSD), RMSE: float64(r.RMSE), Coverage: float64(r.Coverage),
		CumCost: float64(r.CumCost), LML: float64(r.LML), Noise: float64(r.Noise),
		Train: r.Train,
	}
}

// AtomicWriteJSON marshals v and writes it to path atomically: a temp
// file in the target directory, fsynced, then renamed over the
// destination — a crash mid-write leaves the previous file intact. It
// is the durability primitive behind both the loop checkpoints here and
// the serving layer's per-campaign journals.
func AtomicWriteJSON(path string, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("al: marshal checkpoint: %w", err)
	}
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".ckpt-*.json")
	if err != nil {
		return fmt.Errorf("al: checkpoint temp file: %w", err)
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(data); err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); cerr != nil && err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("al: write checkpoint: %w", err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("al: commit checkpoint: %w", err)
	}
	return nil
}

// Save writes the checkpoint atomically via AtomicWriteJSON.
func (ck *Checkpoint) Save(path string) error {
	if err := AtomicWriteJSON(path, ck); err != nil {
		return err
	}
	checkpointsSaved.Inc()
	obs.Emit("al.checkpoint.saved", map[string]any{
		"path": path, "next_iter": ck.NextIter, "train": len(ck.Train),
	})
	return nil
}

// LoadCheckpoint reads a checkpoint written by Save and checks its
// format version; Resume validates the rest against the dataset.
func LoadCheckpoint(path string) (*Checkpoint, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("al: read checkpoint: %w", err)
	}
	var ck Checkpoint
	if err := json.Unmarshal(data, &ck); err != nil {
		return nil, fmt.Errorf("al: parse checkpoint %s: %w", path, err)
	}
	if ck.Version != CheckpointVersion {
		return nil, fmt.Errorf("al: checkpoint %s has version %d, want %d", path, ck.Version, CheckpointVersion)
	}
	return &ck, nil
}

// validate checks that ck describes a session over a grid of rows
// candidates with a kernel of hypers hyperparameters, so restoring it
// cannot index outside the grid or hand the kernel a wrong-sized
// hyperparameter vector. Checkpoints come from files and, as journal
// snapshots, from other nodes: a bad one is an error, never a panic.
func (ck *Checkpoint) validate(rows, hypers int) error {
	if ck.Version != CheckpointVersion {
		return fmt.Errorf("al: checkpoint has version %d, want %d", ck.Version, CheckpointVersion)
	}
	if ck.NextIter < 1 {
		return fmt.Errorf("al: checkpoint next iteration %d, want >= 1", ck.NextIter)
	}
	if len(ck.Train) != len(ck.TrainY) {
		return fmt.Errorf("al: checkpoint has %d train rows but %d responses", len(ck.Train), len(ck.TrainY))
	}
	modelN := len(ck.Train)
	if ck.HasPending {
		modelN--
	}
	if ck.RefitN < 1 || ck.RefitN > modelN {
		return fmt.Errorf("al: checkpoint refit prefix %d outside the %d modelled train rows", ck.RefitN, modelN)
	}
	if ck.NSeeds < 0 || ck.NSeeds > len(ck.Train) {
		return fmt.Errorf("al: checkpoint seed count %d outside train size %d", ck.NSeeds, len(ck.Train))
	}
	if len(ck.RefitHyper) != hypers {
		return fmt.Errorf("al: checkpoint carries %d hyperparameters, the kernel has %d", len(ck.RefitHyper), hypers)
	}
	for _, r := range ck.Train {
		if r < 0 || r >= rows {
			return fmt.Errorf("al: checkpoint train row %d outside the %d-row grid", r, rows)
		}
	}
	for _, r := range ck.Pool {
		if r < 0 || r >= rows {
			return fmt.Errorf("al: checkpoint pool row %d outside the %d-row grid", r, rows)
		}
	}
	for r := range ck.Attempts {
		if r < 0 || r >= rows {
			return fmt.Errorf("al: checkpoint attempt count for row %d outside the %d-row grid", r, rows)
		}
	}
	return nil
}

// compatible reports whether ck was written by a loop configured like c.
func (ck *Checkpoint) compatible(c LoopConfig) error {
	if ck.Response != c.Response {
		return fmt.Errorf("al: checkpoint models response %q, config asks for %q", ck.Response, c.Response)
	}
	if ck.Strategy != c.Strategy.Name() {
		return fmt.Errorf("al: checkpoint used strategy %q, config uses %q", ck.Strategy, c.Strategy.Name())
	}
	if normalizeModel(ck.Model) != normalizeModel(c.Model) {
		return fmt.Errorf("al: checkpoint used model tier %q, config uses %q", normalizeModel(ck.Model), normalizeModel(c.Model))
	}
	return nil
}

// Resume loads the checkpoint at path and continues the loop it
// describes to completion. cfg must match the run that wrote the
// checkpoint (same Response, Strategy, kernel, and fault setup); the
// stationary parts of the state — dataset and partition — are the
// caller's to reproduce. The returned Result spans the whole run:
// records from before the checkpoint plus those of the resumed
// iterations, indistinguishable from an uninterrupted run.
func Resume(ds *dataset.Dataset, part dataset.Partition, cfg LoopConfig, path string) (Result, error) {
	ck, err := LoadCheckpoint(path)
	if err != nil {
		return Result{}, err
	}
	c, err := cfg.withDefaults()
	if err != nil {
		return Result{}, err
	}
	if err := ck.compatible(c); err != nil {
		return Result{}, err
	}
	if err := part.Validate(ds); err != nil {
		return Result{}, err
	}
	if len(ck.RefitHyper) == 0 {
		return Result{}, errors.New("al: checkpoint carries no fitted model state")
	}
	c.Seed = ck.Seed
	rng, cs := newCountingRand(ck.Seed, ck.Draws)
	s := newDatasetSession(ds, part, c, rng, cs)
	if err := s.restore(ck); err != nil {
		return Result{}, err
	}
	s.pool = append([]int{}, ck.Pool...) // non-nil even when empty: Run's pool
	obs.Emit("al.resume", map[string]any{
		"next_iter": ck.NextIter, "train": len(ck.Train), "draws": ck.Draws,
	})
	return s.drive(measureFunc(ds, c))
}

// RestoreSession rebuilds a session over a candidate grid from a
// checkpoint its Snapshot took. cfg must be the configuration the
// snapshotted session ran (NewSession's, with the same Seed), and the
// candidate grid the same: the restored session then asks for, and
// records, exactly what the snapshotted one would have. The model is
// rebuilt with one fit at the recorded hyperparameters plus the
// incremental updates since, not by rerunning the loop. Like a
// NewSession session it owns its counting RNG and scores the whole grid.
func RestoreSession(candidates *mat.Dense, cfg LoopConfig, ck *Checkpoint) (*Session, error) {
	c, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	if candidates == nil || candidates.Rows() == 0 {
		return nil, errors.New("al: online AL requires a candidate grid")
	}
	if err := ck.compatible(c); err != nil {
		return nil, err
	}
	if ck.Seed != c.Seed {
		return nil, fmt.Errorf("al: checkpoint RNG seed %d, config seed %d", ck.Seed, c.Seed)
	}
	rng, cs := newCountingRand(ck.Seed, ck.Draws)
	s := newSession(c, candidates, candidates.Rows(), rng)
	s.cs = cs
	if err := s.restore(ck); err != nil {
		return nil, err
	}
	return s, nil
}

// Snapshot returns the session's state as a checkpoint RestoreSession
// rebuilds it from. It succeeds only at an iteration boundary of a
// session that owns its RNG (NewSession with a nil rng) and has fitted
// its first model: no point outstanding or queued, every seed settled,
// no error. The checkpoint shares no memory with the session.
func (s *Session) Snapshot() (*Checkpoint, bool) {
	if s.cs == nil || s.x != nil || len(s.queue) > 0 || len(s.seeds) > 0 || s.model == nil || s.err != nil {
		return nil, false
	}
	ck := s.checkpoint()
	ck.Train = append([]int(nil), ck.Train...)
	ck.TrainY = append([]float64(nil), ck.TrainY...)
	ck.Pool = append([]int(nil), ck.Pool...)
	ck.AMSDHist = append([]float64(nil), ck.AMSDHist...)
	ck.RefitHyper = append([]float64(nil), ck.RefitHyper...)
	ck.PendingX = append([]float64(nil), ck.PendingX...)
	attempts := make(map[int]int, len(s.attempts))
	for r, n := range s.attempts {
		attempts[r] = n
	}
	ck.Attempts = attempts
	return ck, true
}

// checkpoint captures the session at an iteration boundary.
func (s *Session) checkpoint() *Checkpoint {
	ck := &Checkpoint{
		Version: CheckpointVersion, Strategy: s.res.Strategy, Response: s.c.Response,
		Model: s.c.Model,
		Seed:  s.c.Seed, Draws: s.cs.draws, NextIter: s.iter + 1,
		Train: s.train, TrainY: s.trainY, Pool: s.pool,
		CumCost: JSONFloat(s.cumCost), AMSDHist: s.amsdHist,
		NSeeds: s.nSeeds, Done: s.done, Converged: s.res.Converged,
		RefitHyper: s.refitHyper, RefitLogSN: s.refitLogSN, RefitN: s.refitN,
		HasPending: s.hasPending, Attempts: s.attempts,
	}
	if s.hasPending {
		last := len(s.train) - 1
		ck.PendingX, ck.PendingY = s.candidates.RawRow(s.train[last]), s.trainY[last]
	}
	for _, r := range s.res.Records {
		ck.Records = append(ck.Records, ToJSONRecord(r))
	}
	return ck
}

// restore validates a checkpoint and loads it into a fresh session
// (the caller installs a dataset session's pool), rebuilding the model
// exactly: an exact-hyperparameter fit over the refit prefix through the
// configured tier, then the same incremental update chain the live loop
// ran. The pending observation (when present) is deliberately NOT
// conditioned in here — the first resumed iteration consumes it, as the
// live loop would have.
func (s *Session) restore(ck *Checkpoint) error {
	gcfg := gp.Config{Kernel: s.c.NewKernel(s.candidates.Cols()), Normalize: s.c.Normalize}
	if err := ck.validate(s.candidates.Rows(), len(gcfg.Kernel.Hyper())); err != nil {
		return err
	}
	s.train = append([]int(nil), ck.Train...)
	s.trainY = append([]float64(nil), ck.TrainY...)
	s.nSeeds = ck.NSeeds
	s.cumCost = float64(ck.CumCost)
	s.amsdHist = append([]float64(nil), ck.AMSDHist...)
	if ck.Attempts != nil {
		s.attempts = ck.Attempts
	}
	s.hasPending = ck.HasPending
	s.refitHyper = append([]float64(nil), ck.RefitHyper...)
	s.refitLogSN, s.refitN = ck.RefitLogSN, ck.RefitN
	s.iter = ck.NextIter - 1
	s.done, s.res.Converged = ck.Done, ck.Converged
	for _, r := range ck.Records {
		s.res.Records = append(s.res.Records, FromJSONRecord(r))
	}

	modelN := len(s.train)
	if s.hasPending {
		modelN--
	}
	model, err := s.fitter.atHypers(gcfg, gatherRows(s.candidates, s.train[:s.refitN]), s.trainY[:s.refitN], s.refitHyper, s.refitLogSN)
	if err != nil {
		return fmt.Errorf("al: resume refit: %w", err)
	}
	for j := s.refitN; j < modelN; j++ {
		if model, err = model.UpdateWithPoint(s.candidates.RawRow(s.train[j]), s.trainY[j]); err != nil {
			return fmt.Errorf("al: resume update at train index %d: %w", j, err)
		}
	}
	s.model = model
	return nil
}
