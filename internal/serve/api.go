package serve

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/al"
)

// Campaign lifecycle states (see DESIGN.md §9). Transitions:
//
//	created ──▶ replaying ──▶ running ⇄ waiting ──▶ done
//	                             │                  ├─▶ failed
//	                             └──────────────────┴─▶ stopped
//
// "waiting" only occurs for client-sourced campaigns (a suggestion is
// outstanding); dataset-backed campaigns go straight from running to a
// terminal state. "stopped" is the graceful-shutdown terminal: the
// journal is flushed and the campaign resumes on the next boot.
const (
	StateReplaying = "replaying"
	StateRunning   = "running"
	StateWaiting   = "waiting"
	StateDone      = "done"
	StateFailed    = "failed"
	StateStopped   = "stopped"
)

// CampaignSpec is the client-supplied definition of a campaign, POSTed
// to /campaigns and persisted verbatim in the checkpoint so a resumed
// campaign is rebuilt from exactly the spec that created it.
type CampaignSpec struct {
	// Name is an optional human-readable label.
	Name string `json:"name,omitempty"`

	// Source selects who performs experiments: "dataset" (the server
	// measures a registered dataset itself) or "client" (the campaign
	// suggests, the client measures and POSTs the observation back).
	Source string `json:"source"`

	// Dataset configures the server-side dataset for Source "dataset".
	Dataset *DatasetSpec `json:"dataset,omitempty"`

	// Candidates is the finite candidate grid for Source "client", one
	// input point per row. Ignored for dataset campaigns (the dataset
	// rows are the grid).
	Candidates [][]float64 `json:"candidates,omitempty"`

	// Seeds indexes the candidate rows measured before learning starts
	// (≥ 1 required).
	Seeds []int `json:"seeds"`

	// Strategy is any name in the al strategy registry
	// (al.StrategyNames; see STRATEGIES.md): "variance-reduction",
	// "cost-efficiency", "cost-exponent", "thompson", "random",
	// "eps-greedy", "qbc", "qbc-cost", "emcm-grad" or "diversity".
	// Gamma/Epsilon/K/Lambda/Perturb parameterize the rules that use
	// them; Epsilon > 0 wraps any rule in ε-greedy exploration.
	Strategy string  `json:"strategy"`
	Gamma    float64 `json:"gamma,omitempty"`
	Epsilon  float64 `json:"epsilon,omitempty"`
	K        int     `json:"k,omitempty"`
	Lambda   float64 `json:"lambda,omitempty"`
	Perturb  float64 `json:"perturb,omitempty"`

	// Iterations bounds the number of AL steps (0 = until pool size).
	Iterations int `json:"iterations,omitempty"`

	// Budget stops the campaign once cumulative experiment cost reaches
	// it (0 = unlimited).
	Budget float64 `json:"budget,omitempty"`

	// Loop knobs, mirroring al.LoopConfig (zero values take the loop's
	// defaults).
	NoiseFloor      float64 `json:"noise_floor,omitempty"`
	Restarts        int     `json:"restarts,omitempty"`
	ReoptimizeEvery int     `json:"reoptimize_every,omitempty"`
	GuardSigma      float64 `json:"guard_sigma,omitempty"`
	RetryBudget     int     `json:"retry_budget,omitempty"`
	ConvergeWindow  int     `json:"converge_window,omitempty"`
	ConvergeTol     float64 `json:"converge_tol,omitempty"`

	// Model selects the regression tier backing the campaign: "dense"
	// (or empty — the exact GP), "sparse" (inducing-point approximation
	// for campaigns past ~10⁴ observations), or "auto" (size- and
	// evidence-based tier selection). Persisted in the checkpoint like
	// every other spec field, so a resumed campaign replays on the tier
	// that wrote its journal.
	Model string `json:"model,omitempty"`

	// Inducing sizes the sparse tier's inducing set (0 = default 64).
	Inducing int `json:"inducing,omitempty"`

	// Crossover is the auto tier's dense/sparse boundary in training
	// points (0 = default 512).
	Crossover int `json:"crossover,omitempty"`

	// Seed seeds the campaign's deterministic RNG (default 1). Two
	// campaigns with equal specs produce identical suggestion streams.
	Seed int64 `json:"seed,omitempty"`
}

// DatasetSpec selects and parameterizes a registered dataset generator
// for dataset-backed campaigns.
type DatasetSpec struct {
	// Name is the registered generator ("synthetic" is built in;
	// cmd/alserve registers "performance").
	Name string `json:"name"`

	// Seed drives the generator (default 1).
	Seed int64 `json:"seed,omitempty"`

	// N and Noise parameterize the synthetic generator (points and
	// response noise SD).
	N     int     `json:"n,omitempty"`
	Noise float64 `json:"noise,omitempty"`
}

// ErrSpec marks client-caused spec validation failures (HTTP 400).
var ErrSpec = errors.New("invalid campaign spec")

// Validate checks the spec and normalizes defaults in place.
func (s *CampaignSpec) Validate() error {
	if s.Seed == 0 {
		s.Seed = 1
	}
	switch s.Source {
	case "client":
		if len(s.Candidates) == 0 {
			return fmt.Errorf("%w: client campaigns need a candidate grid", ErrSpec)
		}
		dims := len(s.Candidates[0])
		if dims == 0 {
			return fmt.Errorf("%w: empty candidate point", ErrSpec)
		}
		for i, row := range s.Candidates {
			if len(row) != dims {
				return fmt.Errorf("%w: candidate %d has %d dims, want %d", ErrSpec, i, len(row), dims)
			}
			for _, v := range row {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					return fmt.Errorf("%w: candidate %d has a non-finite coordinate", ErrSpec, i)
				}
			}
		}
		for _, sd := range s.Seeds {
			if sd < 0 || sd >= len(s.Candidates) {
				return fmt.Errorf("%w: seed index %d outside candidate grid of %d", ErrSpec, sd, len(s.Candidates))
			}
		}
	case "dataset":
		if s.Dataset == nil || s.Dataset.Name == "" {
			return fmt.Errorf("%w: dataset campaigns need a dataset name", ErrSpec)
		}
		if s.Dataset.Seed == 0 {
			s.Dataset.Seed = 1
		}
	default:
		return fmt.Errorf("%w: source must be \"client\" or \"dataset\", got %q", ErrSpec, s.Source)
	}
	if len(s.Seeds) == 0 {
		return fmt.Errorf("%w: at least one seed experiment index is required", ErrSpec)
	}
	if _, err := s.strategy(); err != nil {
		return err
	}
	if s.Iterations < 0 {
		return fmt.Errorf("%w: negative iterations", ErrSpec)
	}
	switch s.Model {
	case "", al.ModelDense, al.ModelSparse, al.ModelAuto:
	default:
		return fmt.Errorf("%w: unknown model tier %q (want dense, sparse, or auto)", ErrSpec, s.Model)
	}
	if s.Inducing < 0 {
		return fmt.Errorf("%w: negative inducing count", ErrSpec)
	}
	if s.Crossover < 0 {
		return fmt.Errorf("%w: negative crossover", ErrSpec)
	}
	return nil
}

// strategy resolves the named selection rule through the al registry,
// mapping spec knobs onto al.StrategyParams (ε-greedy wrapping
// included).
func (s *CampaignSpec) strategy() (al.Strategy, error) {
	strat, err := al.NewStrategy(s.Strategy, al.StrategyParams{
		Gamma:   s.Gamma,
		Epsilon: s.Epsilon,
		K:       s.K,
		Lambda:  s.Lambda,
		Perturb: s.Perturb,
	})
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrSpec, err)
	}
	return strat, nil
}

// loopConfig maps the spec onto the configuration of the campaign's
// session. response is the dataset response column ("y" for client
// campaigns, which never read a dataset).
func (s *CampaignSpec) loopConfig(response string) (al.LoopConfig, error) {
	strat, err := s.strategy()
	if err != nil {
		return al.LoopConfig{}, err
	}
	return al.LoopConfig{
		Response:        response,
		Strategy:        strat,
		Iterations:      s.Iterations,
		NoiseFloor:      s.NoiseFloor,
		Restarts:        s.Restarts,
		ReoptimizeEvery: s.ReoptimizeEvery,
		GuardSigma:      s.GuardSigma,
		RetryBudget:     s.RetryBudget,
		ConvergeWindow:  s.ConvergeWindow,
		ConvergeTol:     s.ConvergeTol,
		CostBudget:      s.Budget,
		AllowRevisit:    true,
		Seed:            s.Seed,
		Model:           s.Model,
		ModelOptions: al.ModelOptions{
			Inducing:  s.Inducing,
			Crossover: s.Crossover,
		},
	}, nil
}

// Observation is one accepted measurement — the unit of the
// event-sourced journal. Y may be non-finite (a client reporting a
// failed measurement), so both fields use the NaN-safe JSON float.
// Key is the client's idempotency key, persisted so resume rebuilds the
// dedup index and an at-least-once client can never double-feed the
// session across a crash. X is the input point the observation answered:
// replay checks it against the point the session asks for (a nil X,
// from journals written before X existed, is not checked), and it makes
// every journal a (x, y, cost) training set for surrogate oracles.
type Observation struct {
	X    []float64    `json:"x,omitempty"`
	Y    al.JSONFloat `json:"y"`
	Cost al.JSONFloat `json:"cost"`
	Key  string       `json:"key,omitempty"`
}

// Suggestion is the campaign's pending next experiment: the point the
// session asked for, fenced by a sequence number so an observation can
// never be applied to the wrong suggestion.
type Suggestion struct {
	Seq int       `json:"seq"`
	X   []float64 `json:"x"`
}

// ObserveRequest is the body of POST /campaigns/{id}/observe. Key is an
// optional idempotency key (the Idempotency-Key header also works):
// resubmitting an observation with a key the campaign has already
// applied returns the original acceptance instead of a seq-mismatch
// error, making retries after lost responses safe.
type ObserveRequest struct {
	Seq  int          `json:"seq"`
	Y    al.JSONFloat `json:"y"`
	Cost al.JSONFloat `json:"cost"`
	Key  string       `json:"key,omitempty"`
}

// PredictRequest is the body of POST /campaigns/{id}/predict: a batch
// of input points to evaluate under the campaign's current model.
type PredictRequest struct {
	Points [][]float64 `json:"points"`
}

// PredictResponse carries the batched predictive distribution. Means
// and SDs align with the request points; ModelVersion identifies the
// model snapshot that produced them (bumps invalidate cached entries by
// key construction), and CacheHits counts points served from the LRU.
type PredictResponse struct {
	ModelVersion int            `json:"model_version"`
	Means        []al.JSONFloat `json:"means"`
	SDs          []al.JSONFloat `json:"sds"`
	CacheHits    int            `json:"cache_hits"`
}

// CampaignStatus is the public snapshot of one campaign.
type CampaignStatus struct {
	ID           string          `json:"id"`
	Name         string          `json:"name,omitempty"`
	Source       string          `json:"source"`
	Strategy     string          `json:"strategy"`
	State        string          `json:"state"`
	Records      []al.JSONRecord `json:"records,omitempty"`
	Observations int             `json:"observations"`
	ModelVersion int             `json:"model_version"`
	Fingerprint  uint64          `json:"fingerprint,omitempty"`
	Pending      *Suggestion     `json:"pending,omitempty"`
	Converged    bool            `json:"converged,omitempty"`
	Error        string          `json:"error,omitempty"`
}
