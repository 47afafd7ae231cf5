package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/al"
	"repro/internal/dataset"
	"repro/internal/obs"
	"repro/internal/resilience"
	"repro/internal/serve"
	"repro/internal/stats"
)

// Eval-harness metrics (see OBSERVABILITY.md): cells executed, client
// observations fed back, and /predict calls used for learning curves.
var (
	evalCellsRun     = obs.C("eval.cells.run")
	evalObservations = obs.C("eval.observations")
	evalPredictCalls = obs.C("eval.predict.calls")
	evalCellFailures = obs.C("eval.cell.failures")
)

// EvalStrategy names one al-registry strategy plus the spec knobs it
// consumes — one column of the evaluation grid.
type EvalStrategy struct {
	Name    string  `json:"name"`
	Gamma   float64 `json:"gamma,omitempty"`
	Epsilon float64 `json:"epsilon,omitempty"`
	K       int     `json:"k,omitempty"`
	Lambda  float64 `json:"lambda,omitempty"`
	Perturb float64 `json:"perturb,omitempty"`
}

// label resolves the strategy's display name through the registry, so
// reports use exactly the Name() campaigns report.
func (s EvalStrategy) label() (string, error) {
	strat, err := al.NewStrategy(s.Name, al.StrategyParams{
		Gamma: s.Gamma, Epsilon: s.Epsilon, K: s.K, Lambda: s.Lambda, Perturb: s.Perturb,
	})
	if err != nil {
		return "", err
	}
	return strat.Name(), nil
}

// EvalGrid is the full evaluation specification: every strategy runs on
// every dataset under every noise model, each cell as its own campaign
// against the server. Splits, seed experiments, and noise draws depend
// only on (dataset, noise, Seed) — never on the strategy — so all
// strategies in a group face the identical problem and the comparison
// is paired.
type EvalGrid struct {
	// Server is the base URL of a live alserve instance.
	Server string
	// Strategies are the grid columns (default: the paper pair plus
	// random, qbc and diversity).
	Strategies []EvalStrategy
	// Datasets are eval dataset names (EvalDatasetNames; default
	// "synthetic-1d" and "performance-1d").
	Datasets []string
	// NoiseModels are measurement-noise models applied client-side:
	// "none" or "gauss[:sd]" (default sd 0.05).
	NoiseModels []string
	// Iterations is the AL step budget per campaign (default 10,
	// quick-mode 6).
	Iterations int
	// Seed drives every deterministic choice in the grid (default 1).
	Seed int64
	// TargetRMSE is the accuracy bar for the cost-to-target metric, in
	// model/log space. 0 picks a per-dataset default calibrated to each
	// dataset's response scale (see defaultTarget) — a single loose bar
	// would let any strategy cross it on the first cheap point of an
	// easy dataset and rank them by luck.
	TargetRMSE float64
	// Quick shrinks datasets and budgets for -short tests and CI smoke.
	Quick bool
	// Client is the HTTP client (default: a resilience retrying client,
	// which is also what makes idempotent observe retries safe).
	Client *http.Client
}

func (g *EvalGrid) withDefaults() {
	if len(g.Strategies) == 0 {
		g.Strategies = []EvalStrategy{
			{Name: "random"},
			{Name: "variance-reduction"},
			{Name: "cost-efficiency"},
			{Name: "qbc", K: 4},
			{Name: "diversity", Lambda: 1},
		}
	}
	if len(g.Datasets) == 0 {
		g.Datasets = []string{"synthetic-1d", "performance-1d"}
	}
	if len(g.NoiseModels) == 0 {
		g.NoiseModels = []string{"none"}
	}
	if g.Iterations <= 0 {
		g.Iterations = 10
		if g.Quick {
			g.Iterations = 6
		}
	}
	if g.Seed == 0 {
		g.Seed = 1
	}
	if g.Client == nil {
		g.Client = resilience.NewClient(nil, resilience.TransportConfig{Seed: g.Seed})
	}
}

// CurvePoint is one learning-curve sample: the model's test RMSE after
// spending CumCost on experiments.
type CurvePoint struct {
	CumCost float64 `json:"cum_cost"`
	RMSE    float64 `json:"rmse"`
}

// EvalCell is the outcome of one strategy × dataset × noise campaign.
type EvalCell struct {
	Strategy     string       `json:"strategy"`
	Dataset      string       `json:"dataset"`
	Noise        string       `json:"noise"`
	Target       float64      `json:"target"`
	Curve        []CurvePoint `json:"curve"`
	FinalRMSE    float64      `json:"final_rmse"`
	TotalCost    float64      `json:"total_cost"`
	CostToTarget float64      `json:"cost_to_target"` // +Inf when the target was never reached
	AvgRMSE      float64      `json:"avg_rmse"`       // cost-weighted mean RMSE (curve AUC / cost span)
	Observations int          `json:"observations"`
}

// evalRow is one candidate point of a local eval dataset.
type evalRow struct {
	x []float64
	y float64 // true response in model (log) space
}

// evalDataset builds the named dataset's candidate rows. Responses are
// in log space, matching the repository convention cost = 10^y.
func evalDataset(name string, seed int64, quick bool) ([]evalRow, error) {
	switch name {
	case "synthetic-1d":
		// The same curve serve's built-in "synthetic" generator uses:
		// y = sin(2x) + x/2 on [0, 4].
		n := 40
		if quick {
			n = 24
		}
		rows := make([]evalRow, n)
		for i := range rows {
			x := 4 * float64(i) / float64(n-1)
			rows[i] = evalRow{x: []float64{x}, y: math.Sin(2*x) + 0.5*x}
		}
		return rows, nil
	case "performance-1d":
		// The paper's §V-B study subset at fixed frequency: log10 size →
		// log10 runtime (the Fig. 3–4 dataset).
		d, err := subset1D(seed)
		if err != nil {
			return nil, err
		}
		all := make([]int, d.Len())
		for i := range all {
			all[i] = i
		}
		xs := d.Matrix(all)
		ys := d.RespVec(dataset.RespRuntime, all)
		rows := make([]evalRow, d.Len())
		for i := range rows {
			rows[i] = evalRow{x: append([]float64(nil), xs.RawRow(i)...), y: ys[i]}
		}
		if quick && len(rows) > 24 {
			// Even thinning keeps the curve shape with a smaller pool.
			step := float64(len(rows)-1) / 23
			thin := make([]evalRow, 24)
			for i := range thin {
				thin[i] = rows[int(math.Round(float64(i)*step))]
			}
			rows = thin
		}
		return rows, nil
	default:
		return nil, fmt.Errorf("experiments: unknown eval dataset %q (have %v)", name, EvalDatasetNames())
	}
}

// EvalDatasetNames lists the datasets RunEval accepts.
func EvalDatasetNames() []string { return []string{"performance-1d", "synthetic-1d"} }

// defaultTarget is the per-dataset cost-to-target accuracy bar, roughly
// "clearly better than the seed-only model" on each dataset's response
// scale: the synthetic sine swings ±1 in log space, the performance
// subset's log10 runtime spans ~2 decades but fits to ~0.01 quickly.
func defaultTarget(ds string) float64 {
	switch ds {
	case "performance-1d":
		return 0.05
	default:
		return 0.2
	}
}

// noiseSD parses a noise-model name: "none" → 0, "gauss" → 0.05,
// "gauss:<sd>" → sd.
func noiseSD(model string) (float64, error) {
	switch {
	case model == "none":
		return 0, nil
	case model == "gauss":
		return 0.05, nil
	case strings.HasPrefix(model, "gauss:"):
		sd, err := strconv.ParseFloat(strings.TrimPrefix(model, "gauss:"), 64)
		if err != nil || sd < 0 {
			return 0, fmt.Errorf("experiments: bad noise model %q", model)
		}
		return sd, nil
	default:
		return 0, fmt.Errorf("experiments: unknown noise model %q (want none, gauss or gauss:<sd>)", model)
	}
}

// evalProblem is the shared per-(dataset, noise) setup every strategy in
// a group runs against: the same pool, the same held-out test split, the
// same seed experiments, the same per-row noise draws.
type evalProblem struct {
	dataset, noise string
	target         float64   // RMSE bar for cost-to-target
	pool           []evalRow // candidate grid sent to the server
	obsNoise       []float64 // additive noise per pool row, fixed per problem
	testX          [][]float64
	testY          []float64
	seeds          []int
	campaignSeed   int64
}

// buildProblem derives the deterministic problem for one group. seed
// mixes the grid seed with the dataset/noise identity only.
func buildProblem(ds, noise string, grid *EvalGrid) (*evalProblem, error) {
	rows, err := evalDataset(ds, grid.Seed, grid.Quick)
	if err != nil {
		return nil, err
	}
	sd, err := noiseSD(noise)
	if err != nil {
		return nil, err
	}
	mix := grid.Seed
	for _, s := range []string{ds, "/", noise} {
		for _, c := range []byte(s) {
			mix = mix*131 + int64(c)
		}
	}
	rng := rand.New(rand.NewSource(mix))

	// Deterministic split: ~25% held out for the RMSE curve, the rest is
	// the candidate pool.
	perm := rng.Perm(len(rows))
	nTest := len(rows) / 4
	if nTest < 3 {
		nTest = 3
	}
	p := &evalProblem{dataset: ds, noise: noise, campaignSeed: mix&0x7fffffff + 1}
	p.target = grid.TargetRMSE
	if p.target <= 0 {
		p.target = defaultTarget(ds)
	}
	for i, ri := range perm {
		if i < nTest {
			p.testX = append(p.testX, rows[ri].x)
			p.testY = append(p.testY, rows[ri].y)
		} else {
			p.pool = append(p.pool, rows[ri])
		}
	}
	// Fixed per-row noise: revisits and observe retries see the same
	// measurement, keeping campaigns deterministic end to end.
	p.obsNoise = make([]float64, len(p.pool))
	for i := range p.obsNoise {
		if sd > 0 {
			p.obsNoise[i] = sd * rng.NormFloat64()
		}
	}
	// Seed experiments: the extremes of the pool ordering — enough for a
	// first fit, cheap to reason about.
	p.seeds = []int{0, len(p.pool) - 1}
	return p, nil
}

// xKey identifies a candidate point by the exact bit pattern of its
// coordinates. JSON float64 round-trips are exact (shortest-round-trip
// encoding), so a suggestion's X always matches the pool row it came
// from.
func xKey(x []float64) string {
	var sb strings.Builder
	for _, v := range x {
		sb.WriteString(strconv.FormatUint(math.Float64bits(v), 16))
		sb.WriteByte(',')
	}
	return sb.String()
}

// httpError is a non-2xx response with its decoded error envelope.
type httpError struct {
	code int
	msg  string
}

func (e *httpError) Error() string { return fmt.Sprintf("HTTP %d: %s", e.code, e.msg) }

// doJSON round-trips one JSON request against the eval server. out may
// be nil. idemKey, when set, marks the request safe for the retrying
// transport to replay.
func doJSON(ctx context.Context, client *http.Client, method, url string, in, out any, idemKey string) error {
	var body io.Reader
	if in != nil {
		buf, err := json.Marshal(in)
		if err != nil {
			return err
		}
		body = bytes.NewReader(buf)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, body)
	if err != nil {
		return err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if idemKey != "" {
		req.Header.Set(resilience.IdempotencyHeader, idemKey)
	}
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 300 {
		var envelope struct {
			Error string `json:"error"`
		}
		_ = json.NewDecoder(resp.Body).Decode(&envelope)
		return &httpError{code: resp.StatusCode, msg: envelope.Error}
	}
	if out != nil {
		return json.NewDecoder(resp.Body).Decode(out)
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	return nil
}

// runCell executes one campaign: create, drive suggestions with the
// problem's local oracle, sample the learning curve via /predict at
// every pending suggestion, and tear the campaign down.
func runCell(ctx context.Context, grid *EvalGrid, p *evalProblem, strat EvalStrategy) (EvalCell, error) {
	ctx, span := obs.Start(ctx, "eval.cell")
	defer span.End()
	label, err := strat.label()
	if err != nil {
		return EvalCell{}, err
	}
	span.SetAttr("strategy", label)
	span.SetAttr("dataset", p.dataset)
	cell := EvalCell{Strategy: label, Dataset: p.dataset, Noise: p.noise, Target: p.target}

	cands := make([][]float64, len(p.pool))
	rowByKey := make(map[string]int, len(p.pool))
	for i, r := range p.pool {
		cands[i] = r.x
		rowByKey[xKey(r.x)] = i
	}
	spec := serve.CampaignSpec{
		Name:       fmt.Sprintf("eval-%s-%s-%s", p.dataset, p.noise, strat.Name),
		Source:     "client",
		Candidates: cands,
		Seeds:      p.seeds,
		Strategy:   strat.Name,
		Gamma:      strat.Gamma,
		Epsilon:    strat.Epsilon,
		K:          strat.K,
		Lambda:     strat.Lambda,
		Perturb:    strat.Perturb,
		Iterations: grid.Iterations,
		Restarts:   1,
		Seed:       p.campaignSeed,
	}
	var st serve.CampaignStatus
	if err := doJSON(ctx, grid.Client, http.MethodPost, grid.Server+"/campaigns", spec, &st, "create-"+spec.Name); err != nil {
		return cell, fmt.Errorf("create campaign: %w", err)
	}
	id := st.ID
	base := grid.Server + "/campaigns/" + id
	// Campaigns are deleted on every exit path so an aborted grid never
	// leaves the server carrying finished actors.
	defer func() {
		dctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = doJSON(dctx, grid.Client, http.MethodDelete, base, nil, nil, "")
	}()

	rmseAt := func() (float64, error) {
		evalPredictCalls.Inc()
		var pr serve.PredictResponse
		if err := doJSON(ctx, grid.Client, http.MethodPost, base+"/predict",
			serve.PredictRequest{Points: p.testX}, &pr, "predict-"+id); err != nil {
			return math.NaN(), err
		}
		means := make([]float64, len(pr.Means))
		for i, m := range pr.Means {
			means[i] = float64(m)
		}
		return stats.RMSE(means, p.testY), nil
	}

	var cumCost float64
	deadline := time.Now().Add(120 * time.Second)
	for {
		if time.Now().After(deadline) {
			evalCellFailures.Inc()
			return cell, fmt.Errorf("campaign %s: timed out after %d observations", id, cell.Observations)
		}
		var sug serve.Suggestion
		err := doJSON(ctx, grid.Client, http.MethodGet, base+"/suggest", nil, &sug, "")
		if err != nil {
			var he *httpError
			if errors.As(err, &he) && he.code == http.StatusConflict {
				// No pending suggestion: the campaign is replaying, or done.
				if err := doJSON(ctx, grid.Client, http.MethodGet, base, nil, &st, ""); err != nil {
					return cell, err
				}
				switch st.State {
				case serve.StateDone, serve.StateStopped:
					final, err := rmseAt()
					if err != nil {
						return cell, err
					}
					cell.Curve = append(cell.Curve, CurvePoint{CumCost: cumCost, RMSE: final})
					finishCell(&cell, p.target, cumCost)
					evalCellsRun.Inc()
					return cell, nil
				case serve.StateFailed:
					evalCellFailures.Inc()
					return cell, fmt.Errorf("campaign %s failed: %s", id, st.Error)
				}
				time.Sleep(time.Millisecond)
				continue
			}
			return cell, fmt.Errorf("suggest: %w", err)
		}

		// While this suggestion is pending the session waits for it, so the
		// model deterministically covers observations 1..seq-1 — sample
		// the learning curve before answering (once a model exists, i.e.
		// after the seed measurements).
		if sug.Seq > len(p.seeds) {
			rmse, err := rmseAt()
			if err != nil {
				return cell, err
			}
			cell.Curve = append(cell.Curve, CurvePoint{CumCost: cumCost, RMSE: rmse})
		}

		row, ok := rowByKey[xKey(sug.X)]
		if !ok {
			return cell, fmt.Errorf("campaign %s: suggestion %v matches no pool row", id, sug.X)
		}
		y := p.pool[row].y + p.obsNoise[row]
		cost := math.Pow(10, y)
		if err := doJSON(ctx, grid.Client, http.MethodPost, base+"/observe",
			serve.ObserveRequest{Seq: sug.Seq, Y: al.JSONFloat(y), Cost: al.JSONFloat(cost)},
			nil, fmt.Sprintf("%s-seq%d", id, sug.Seq)); err != nil {
			return cell, fmt.Errorf("observe seq %d: %w", sug.Seq, err)
		}
		evalObservations.Inc()
		cumCost += cost
		cell.Observations++
	}
}

// finishCell derives the summary metrics from a completed curve.
func finishCell(cell *EvalCell, target, totalCost float64) {
	cell.TotalCost = totalCost
	n := len(cell.Curve)
	cell.FinalRMSE = cell.Curve[n-1].RMSE
	cell.CostToTarget = math.Inf(1)
	for _, pt := range cell.Curve {
		if pt.RMSE <= target {
			cell.CostToTarget = pt.CumCost
			break
		}
	}
	// Cost-weighted average RMSE: trapezoid AUC over the curve divided
	// by the cost span — "how wrong was the model, on average, per unit
	// of budget spent".
	if n < 2 || cell.Curve[n-1].CumCost <= cell.Curve[0].CumCost {
		cell.AvgRMSE = cell.FinalRMSE
		return
	}
	var auc float64
	for i := 1; i < n; i++ {
		a, b := cell.Curve[i-1], cell.Curve[i]
		auc += (a.RMSE + b.RMSE) / 2 * (b.CumCost - a.CumCost)
	}
	cell.AvgRMSE = auc / (cell.Curve[n-1].CumCost - cell.Curve[0].CumCost)
}

// EvalResult is the full grid outcome, ready to rank and render.
type EvalResult struct {
	Grid  EvalGrid   `json:"-"`
	Cells []EvalCell `json:"cells"`
}

// RunEval executes the grid against grid.Server. Cells run in parallel
// (they are independent campaigns; results land in fixed slots), which
// doubles as a concurrency workout for the service. The returned cells
// are ordered dataset-major, then noise, then strategy — a pure function
// of the grid spec.
func RunEval(ctx context.Context, grid EvalGrid) (*EvalResult, error) {
	grid.withDefaults()
	if grid.Server == "" {
		return nil, fmt.Errorf("experiments: EvalGrid.Server is required")
	}

	type slot struct {
		cell EvalCell
		err  error
	}
	var problems []*evalProblem
	for _, ds := range grid.Datasets {
		for _, noise := range grid.NoiseModels {
			p, err := buildProblem(ds, noise, &grid)
			if err != nil {
				return nil, err
			}
			problems = append(problems, p)
		}
	}
	slots := make([]slot, len(problems)*len(grid.Strategies))
	sem := make(chan struct{}, 4)
	done := make(chan int, len(slots))
	for pi, p := range problems {
		for si, strat := range grid.Strategies {
			idx := pi*len(grid.Strategies) + si
			go func(idx int, p *evalProblem, strat EvalStrategy) {
				sem <- struct{}{}
				defer func() { <-sem }()
				cell, err := runCell(ctx, &grid, p, strat)
				slots[idx] = slot{cell: cell, err: err}
				done <- idx
			}(idx, p, strat)
		}
	}
	for range slots {
		<-done
	}
	res := &EvalResult{Grid: grid}
	for _, s := range slots {
		if s.err != nil {
			return nil, s.err
		}
		res.Cells = append(res.Cells, s.cell)
	}
	return res, nil
}

// group returns the cells of one (dataset, noise) pair, ranked: lowest
// cost-to-target first, average RMSE breaking ties (both +Inf-safe),
// then name for full determinism.
func (r *EvalResult) group(ds, noise string) []EvalCell {
	var out []EvalCell
	for _, c := range r.Cells {
		if c.Dataset == ds && c.Noise == noise {
			out = append(out, c)
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.CostToTarget != b.CostToTarget {
			return a.CostToTarget < b.CostToTarget
		}
		if a.AvgRMSE != b.AvgRMSE {
			return a.AvgRMSE < b.AvgRMSE
		}
		return a.Strategy < b.Strategy
	})
	return out
}
