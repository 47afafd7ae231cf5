package main

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
)

// Tolerances of the two accounting checks the traced run makes. A check
// outside its tolerance, on the workload it applies to, fails the run.
var (
	// On cluster-observe the router's self time plus its round trip to the
	// owner node covers the client's observe p50 except for the
	// client→router hop itself, and cannot exceed it by more than the error
	// of adding two medians.
	observeAccounted = tolerance{0.75, 1.05}
	// On explore-dense the engine's update, scoring and selection for a
	// step run between the client sending its observe and receiving the
	// next suggestion, and fill most of that turn.
	stepEngine = tolerance{0.5, 1.02}
)

type tolerance struct{ lo, hi float64 }

func (t tolerance) String() string { return fmt.Sprintf("[%.2f, %.2f]", t.lo, t.hi) }

// check returns an error when the metric name, of value v, is outside t.
func (t tolerance) check(name string, v float64) error {
	if v < t.lo || v > t.hi {
		return fmt.Errorf("%s = %.3f, want within %v", name, v, t)
	}
	return nil
}

// untracedP50 is what the traced run keeps of its untraced window: the
// medians the tracing overhead is measured against.
type untracedP50 struct{ step, observe float64 }

// perLayer fills the traced run's per-layer metrics: spans recorded
// around the program's seams during the traced window (and during
// set-up, for journal loads), and deltas of the program's own obs
// counters over the traced window. A layer the workload does not reach
// reports 0. It returns the accounting checks that failed.
func perLayer(m map[string]metric, notes map[string]string, b *bench, wl *workload, base untracedP50, w *window, eng engineSnap, resumes []float64) []error {
	spans := b.rec.inPhase("window")
	byName := map[string][]span{}
	for _, s := range spans {
		byName[s.Name] = append(byName[s.Name], s)
	}
	durs := func(name string) []float64 {
		var out []float64
		for _, s := range byName[name] {
			out = append(out, ms(s.dur()))
		}
		return out
	}
	set := func(name, unit string, v float64, note string) {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		m[name] = metric{v, unit}
		if note != "" {
			notes[name] = note
		}
	}
	p50 := func(xs []float64) float64 {
		if len(xs) == 0 {
			return 0
		}
		return median(xs)
	}

	// client
	set("client.polls_per_step", "ratio", ratio(float64(w.polls), float64(w.acked)), fmt.Sprintf("%d polls / %d steps", w.polls, w.acked))
	set("client.failed_frac", "ratio", ratio(float64(w.failed), float64(w.attempted)), fmt.Sprintf("%d of %d requests", w.failed, w.attempted))

	// serve.http
	for _, op := range []string{"observe", "suggest"} {
		d := durs("serve.http." + op)
		set("serve.http."+op+"_ms_p50", "ms", p50(d), fmt.Sprintf("%d requests", len(d)))
	}

	// serve.journal
	app := summarize(durs("serve.journal.append"))
	if app.N == 0 {
		app.P50, app.Tail = 0, 0
	}
	set("serve.journal.append_ms_p50", "ms", app.P50, fmt.Sprintf("%d appends", app.N))
	set("serve.journal.append_ms_p99", "ms", app.Tail, fmt.Sprintf("p%g of %d appends", app.TailPct, app.N))
	var loads []float64
	for _, s := range b.rec.inPhase("setup") {
		if s.Name == "serve.journal.load" {
			loads = append(loads, ms(s.dur()))
		}
	}
	set("serve.journal.load_ms_p50", "ms", p50(loads), fmt.Sprintf("%d loads over %d set-ups", len(loads), len(resumes)))

	// serve (Manager)
	set("serve.resume_s", "s", p50(resumes), "median over set-ups")

	// al
	scores := eng["al.score.duration.count"]
	set("al.model_update_ms_mean", "ms", eng.meanMS("al.model.update.duration"), fmt.Sprintf("%.0f updates", eng["al.model.update.duration.count"]))
	set("al.score_ms_mean", "ms", eng.meanMS("al.score.duration"), fmt.Sprintf("%.0f scoring passes", scores))
	set("al.select_ms_mean", "ms", eng.meanMS("al.select.duration"), "")
	set("al.candidates_per_step", "count", ratio(eng["al.candidates.evaluated"], scores), "")

	// gp
	fits := eng["gp.hyperopt.duration.count"]
	set("gp.hyperopt_ms_mean", "ms", eng.meanMS("gp.hyperopt.duration"), fmt.Sprintf("%.0f hyperparameter fits", fits))
	set("gp.lml_evals_per_fit", "ratio", ratio(eng["gp.lml.evals"], fits), "")
	inc := eng["gp.update.incremental"]
	updates := inc + eng["gp.update.refit"] + fits
	set("gp.incremental_ratio", "ratio", ratio(inc, updates), fmt.Sprintf("of %.0f model updates", updates))

	// mat
	set("mat.cholesky_per_fit", "ratio", ratio(eng["mat.cholesky.count"], fits), "")
	set("mat.cholesky_ms_mean", "ms", eng.meanMS("mat.cholesky.duration"), fmt.Sprintf("%.0f factorizations", eng["mat.cholesky.duration.count"]))

	// ring.router: self time is the router span minus its forward round
	// trips; retries are round trips beyond the first per routed request.
	children := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	var self, fwd []float64
	retries := 0
	for _, s := range spans {
		if !strings.HasPrefix(s.Name, "ring.router.") {
			continue
		}
		kids := children[s.ID]
		if len(kids) > 1 {
			retries += len(kids) - 1
		}
		if s.Name != "ring.router.observe" {
			continue
		}
		rest := s.dur()
		for _, k := range kids {
			rest -= k.dur()
			fwd = append(fwd, ms(k.dur()))
		}
		self = append(self, ms(rest))
	}
	set("ring.router.self_ms_p50", "ms", p50(self), fmt.Sprintf("%d routed observes", len(self)))
	set("ring.router.forward_ms_p50", "ms", p50(fwd), fmt.Sprintf("%d forwarded observes", len(fwd)))
	set("ring.router.retries", "count", float64(retries), "")

	// ring.ship: ships are linked to the owner's observe by campaign id
	// and time window (shipping carries no request context).
	ships := byName["ring.ship.ship"]
	shipDurs := durs("ring.ship.ship")
	rtt := summarize(shipDurs)
	set("ring.ship.rtt_ms_p50", "ms", p50(shipDurs), fmt.Sprintf("%d ships", rtt.N))
	if rtt.N == 0 {
		rtt.Tail = 0
	}
	set("ring.ship.rtt_ms_p99", "ms", rtt.Tail, fmt.Sprintf("p%g of %d ships", rtt.TailPct, rtt.N))
	perObs, sumOverMax := linkShips(byName["serve.http.observe"], ships)
	nodeObserves := len(byName["serve.http.observe"])
	set("ring.ship.per_observe", "ratio", perObs, fmt.Sprintf("over %d node observes", nodeObserves))
	set("ring.ship.sum_over_max", "ratio", sumOverMax, "mean per shipped observe")
	set("ring.sync.count", "count", eng["ring.sync.count"], "")

	// Tracing overhead: traced window minus untraced window.
	for _, d := range []struct {
		name     string
		untraced float64
		traced   []float64
	}{{"step_ms_p50", base.step, w.steps}, {"observe_ms_p50", base.observe, w.observes}} {
		set("trace.overhead."+d.name, "ms", p50(d.traced)-d.untraced, fmt.Sprintf("traced %.4g − untraced %.4g", p50(d.traced), d.untraced))
	}

	// Accounting checks. The observe check applies to routed observes, the
	// engine check to the single node, where the engine's work dominates a
	// step. The engine starts on an observation before its ack reaches the
	// client, so the engine check compares the engine's mean per scoring
	// pass with the mean turn from sending an observe to receiving the
	// suggestion the engine chose after it.
	var failed []error
	acc := ratio(p50(self)+p50(fwd), p50(w.observes))
	set("check.observe_accounted_frac", "ratio", acc, fmt.Sprintf("(router self + forward) p50 / client observe p50; want within %v on cluster-observe", observeAccounted))
	if wl.cluster {
		failed = append(failed, observeAccounted.check("check.observe_accounted_frac", acc))
	}
	engMS := eng.meanMS("al.model.update.duration") + eng.meanMS("al.score.duration") + eng.meanMS("al.select.duration")
	frac := ratio(engMS, mean(w.turns))
	set("check.step_engine_frac", "ratio", frac, fmt.Sprintf("(update + score + select) mean / observe-to-suggestion mean over %d learned steps; want within %v on explore-dense", len(w.turns), stepEngine))
	if !wl.cluster {
		failed = append(failed, stepEngine.check("check.step_engine_frac", frac))
	}
	return slices.DeleteFunc(failed, func(err error) bool { return err == nil })
}

// linkShips attributes each ship to the observe handled on the owner node
// for the same campaign whose span contains the ship's start. It returns
// ships per observe, and the mean over shipped observes of the sum of
// their ship round trips over the longest one (≈ the follower count while
// ships go out one after another, 1 when they overlap).
func linkShips(observes, ships []span) (perObserve, sumOverMax float64) {
	if len(observes) == 0 {
		return 0, 0
	}
	byCampaign := map[string][]span{}
	for _, s := range ships {
		byCampaign[s.Campaign] = append(byCampaign[s.Campaign], s)
	}
	for _, ss := range byCampaign {
		sort.Slice(ss, func(i, j int) bool { return ss[i].StartNS < ss[j].StartNS })
	}
	linked, shipped := 0, 0
	var ratios float64
	for _, o := range observes {
		ss := byCampaign[o.Campaign]
		i := sort.Search(len(ss), func(i int) bool { return ss[i].StartNS >= o.StartNS })
		var sum, max float64
		n := 0
		for ; i < len(ss) && ss[i].StartNS <= o.EndNS; i++ {
			d := ms(ss[i].dur())
			sum += d
			max = math.Max(max, d)
			n++
		}
		linked += n
		if n > 0 {
			shipped++
			ratios += sum / max
		}
	}
	return float64(linked) / float64(len(observes)), ratio(ratios, float64(shipped))
}
