package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/mat"
	"repro/internal/serve"
)

// drive runs campaign c to its end through the Manager's Go API (no
// HTTP), answering every suggestion with answer.
func drive(c *serve.Campaign, spec serve.CampaignSpec, answer answerFunc) (serve.CampaignStatus, error) {
	want := len(spec.Seeds) + spec.Iterations
	for n := 0; n < want; {
		sug, err := c.Suggest()
		if errors.Is(err, serve.ErrNoPending) {
			time.Sleep(50 * time.Microsecond)
			continue
		}
		if err != nil {
			return serve.CampaignStatus{}, err
		}
		y, cost, err := answer(sug.X)
		if err != nil {
			return serve.CampaignStatus{}, err
		}
		if err := c.Observe(sug.Seq, y, cost); err != nil {
			return serve.CampaignStatus{}, err
		}
		n++
	}
	for {
		st, err := c.Status(false)
		if err != nil {
			return st, err
		}
		switch st.State {
		case serve.StateDone, serve.StateFailed, serve.StateStopped:
			return st, nil
		}
		time.Sleep(50 * time.Microsecond)
	}
}

// referenceDrive runs spec on a fresh in-memory Manager and returns the
// final status: the expected outcome of any campaign with this spec fed
// the same answers, whichever path (HTTP, router, replication) carried
// them.
func referenceDrive(spec serve.CampaignSpec, answer answerFunc) (serve.CampaignStatus, error) {
	mgr := serve.NewManager(serve.Config{})
	defer mgr.Shutdown(context.Background())
	c, err := mgr.Create(spec)
	if err != nil {
		return serve.CampaignStatus{}, err
	}
	return drive(c, spec, answer)
}

// parallel runs fn(0..n-1) on at most workers goroutines and returns the
// errors joined.
func parallel(n, workers int, fn func(i int) error) error {
	errs := make([]error, n)
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				errs[i] = fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	return errors.Join(errs...)
}

// checkFinished drives every spec a client used once more through
// referenceDrive and compares each finished campaign with it.
func checkFinished(specs []serve.CampaignSpec, done []finished, answer answerFunc) error {
	used := map[int]bool{}
	for _, f := range done {
		used[f.spec] = true
	}
	refs := make([]serve.CampaignStatus, len(specs))
	if err := parallel(len(specs), 2, func(i int) error {
		if !used[i] {
			return nil
		}
		var err error
		refs[i], err = referenceDrive(specs[i], answer)
		return err
	}); err != nil {
		return fmt.Errorf("reference drive: %w", err)
	}
	return compareFinished(specs, refs, done)
}

// compareFinished verifies that every finished campaign ended done with
// seeds plus iterations observations and the fingerprint of the reference
// drive of its spec.
func compareFinished(specs []serve.CampaignSpec, refs []serve.CampaignStatus, done []finished) error {
	var errs []error
	for _, f := range done {
		spec, ref := specs[f.spec], refs[f.spec]
		want := len(spec.Seeds) + spec.Iterations
		switch {
		case f.state != serve.StateDone:
			errs = append(errs, fmt.Errorf("campaign %s ended %s", f.id, f.state))
		case f.observations != want:
			errs = append(errs, fmt.Errorf("campaign %s ended with %d observations, want %d", f.id, f.observations, want))
		case f.fingerprint != ref.Fingerprint || ref.State != serve.StateDone:
			errs = append(errs, fmt.Errorf("campaign %s fingerprint %x, reference %x (%s)", f.id, f.fingerprint, ref.Fingerprint, ref.State))
		}
	}
	return errors.Join(errs...)
}

// checkPredict verifies that a predict answer of campaign id equals, bit
// for bit, PredictBatch on the campaign's current model.
func checkPredict(mgr *serve.Manager, id string, points [][]float64, resp serve.PredictResponse) error {
	c, err := mgr.Get(id)
	if err != nil {
		return err
	}
	model, version, err := c.Model()
	if err != nil {
		return err
	}
	if version != resp.ModelVersion {
		return fmt.Errorf("campaign %s answered at model version %d, now at %d", id, resp.ModelVersion, version)
	}
	want := model.PredictBatch(mat.NewFromRows(points))
	if len(resp.Means) != len(want) || len(resp.SDs) != len(want) {
		return fmt.Errorf("campaign %s answered %d points, asked %d", id, len(resp.Means), len(want))
	}
	for i, p := range want {
		if math.Float64bits(float64(resp.Means[i])) != math.Float64bits(p.Mean) ||
			math.Float64bits(float64(resp.SDs[i])) != math.Float64bits(p.SD) {
			return fmt.Errorf("campaign %s point %v: answered (%v, %v), model gives (%v, %v)",
				id, points[i], resp.Means[i], resp.SDs[i], p.Mean, p.SD)
		}
	}
	return nil
}
