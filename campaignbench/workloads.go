package main

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/serve"
)

func newWorkload(name string) (*workload, bool) {
	switch name {
	case "explore-dense":
		// The paper's loop on the full Performance grid: every step
		// re-optimizes the GP hyperparameters and scores 3246 rows. The
		// node boots over the journals of finished campaigns of the same
		// kind, so set-up includes a restart.
		return &workload{
			strategies: [2]string{"variance-reduction", "cost-efficiency"},
			seeds:      2, iterations: 30, perClient: 40, restored: 4,
		}, true
	case "cluster-observe":
		// The replicated observe path: every step is forwarded by the
		// router, journaled and shipped to two followers, and updates the
		// GP incrementally in O(n²) instead of refitting it.
		return &workload{
			cluster:    true,
			strategies: [2]string{"variance-reduction", "cost-efficiency"},
			seeds:      2, iterations: 60, reoptimizeEvery: 61, perClient: 2,
		}, true
	}
	return nil, false
}

// workload runs two closed-loop clients that drive back-to-back
// client-sourced campaigns on the full Performance grid, each cycling
// through its own perClient specs with its own strategy, on a single node
// or through the cluster router.
// prepare builds its inputs from the seed and fill readies a journal
// directory, both untimed; setup is what setup_s times; start launches the
// clients; check verifies every output once the clients have stopped.
type workload struct {
	cluster         bool
	strategies      [2]string
	seeds           int
	iterations      int
	reoptimizeEvery int // 0: re-optimize every step
	perClient       int
	restored        int // finished campaigns the node resumes from journals at boot (single node)

	g          *grid
	specs      []serve.CampaignSpec
	orders     [2][]int
	clients    [2]*loopClient
	pristine   string            // journals of the finished campaigns, copied per set-up
	restoredFP map[string]uint64 // their fingerprints before the restart
	probe      [][]float64       // points the restored models are asked about after the run
}

func (w *workload) prepare(b *bench) error {
	w.g = b.grid
	rng := rand.New(rand.NewSource(b.cfg.seed))
	for c := range w.orders {
		for k := 0; k < w.perClient; k++ {
			w.orders[c] = append(w.orders[c], len(w.specs))
			name := fmt.Sprintf("client%d-%d", c, k)
			w.specs = append(w.specs, w.spec(rng, name, c))
		}
	}
	if w.restored == 0 {
		return nil
	}
	for i := 0; i < 8; i++ {
		w.probe = append(w.probe, w.g.offGrid(rng))
	}

	// Drive the campaigns that will be restored to the end, untimed,
	// through a manager journaling to the pristine directory.
	w.pristine = filepath.Join(b.tmp, "pristine")
	mgr := serve.NewManager(serve.Config{CheckpointDir: w.pristine})
	specs := make([]serve.CampaignSpec, w.restored)
	cs := make([]*serve.Campaign, w.restored)
	for i := range specs {
		specs[i] = w.spec(rng, fmt.Sprintf("restored-%d", i), i%2)
		c, err := mgr.Create(specs[i])
		if err != nil {
			shutdown(mgr)()
			return err
		}
		cs[i] = c
	}
	w.restoredFP = make(map[string]uint64)
	var mu sync.Mutex
	err := parallel(len(cs), 2, func(i int) error {
		st, err := drive(cs[i], specs[i], w.g.answer)
		if err == nil && st.State != serve.StateDone {
			err = fmt.Errorf("campaign %s ended %s", st.ID, st.State)
		}
		mu.Lock()
		w.restoredFP[st.ID] = st.Fingerprint
		mu.Unlock()
		return err
	})
	shutdown(mgr)()
	if err != nil {
		return fmt.Errorf("driving the campaigns to restore: %w", err)
	}
	return nil
}

// spec draws one campaign of this workload for client c's strategy.
func (w *workload) spec(rng *rand.Rand, name string, c int) serve.CampaignSpec {
	return campaignSpec(rng, w.g, name, w.strategies[c], w.seeds, w.iterations, w.reoptimizeEvery)
}

// fill copies the pristine journals, if any, into a set-up's directory.
func (w *workload) fill(dir string) error {
	if w.restored == 0 {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(w.pristine)
	if err != nil {
		return err
	}
	for _, ent := range entries {
		if err := copyFile(filepath.Join(w.pristine, ent.Name()), filepath.Join(dir, ent.Name())); err != nil {
			return err
		}
	}
	return nil
}

func copyFile(from, to string) error {
	in, err := os.Open(from)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(to)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

func (w *workload) setup(b *bench, dir string) (*env, error) {
	var e *env
	var err error
	if w.cluster {
		e, err = b.startCluster(dir)
	} else {
		e, err = b.startNode(dir)
	}
	if err != nil {
		return nil, err
	}
	fail := func(err error) (*env, error) {
		e.close()
		return nil, err
	}
	if w.restored > 0 {
		if err := w.restore(e); err != nil {
			return fail(err)
		}
	}
	for c := range w.orders {
		id, err := e.api.create(w.specs[w.orders[c][0]])
		if err != nil {
			return fail(err)
		}
		e.initial = append(e.initial, id)
	}
	if err := e.api.must("healthz", http.MethodGet, "/healthz", nil, "", nil); err != nil {
		return fail(err)
	}
	return e, nil
}

// restore resumes every journaled campaign and waits until the service
// lists each as done: the journal parse, then a replay of every step
// through the engine.
func (w *workload) restore(e *env) error {
	t0 := time.Now()
	n, err := e.mgr.ResumeAll()
	if err != nil {
		return err
	}
	if n != w.restored {
		return fmt.Errorf("resumed %d campaigns, want %d", n, w.restored)
	}
	for wait := pollMin; ; {
		var list struct {
			Campaigns []serve.CampaignStatus `json:"campaigns"`
		}
		if err := e.api.must("list", http.MethodGet, "/campaigns", nil, "", &list); err != nil {
			return err
		}
		done := 0
		for _, st := range list.Campaigns {
			if st.State == serve.StateDone {
				done++
			}
		}
		if done == w.restored {
			break
		}
		time.Sleep(wait)
		if wait *= 2; wait > pollMax {
			wait = pollMax
		}
	}
	e.resumeS = time.Since(t0).Seconds()
	return nil
}

func (w *workload) start(b *bench, e *env, stop *atomic.Bool) func() error {
	var wg sync.WaitGroup
	var errs [2]error
	for c := range w.clients {
		w.clients[c] = &loopClient{
			api: e.api, specs: w.specs, order: w.orders[c], first: e.initial[c],
			answer: w.g.answer, stop: stop,
		}
		wg.Add(1)
		b.sink.gate.join()
		go func(c int) {
			defer wg.Done()
			defer b.sink.gate.leave()
			errs[c] = w.clients[c].run()
		}(c)
	}
	return func() error {
		wg.Wait()
		return errors.Join(errs[:]...)
	}
}

// check compares every campaign the clients drove with a reference drive
// and, after a restart, every restored campaign with its state before the
// restart and its predict answers with its model.
func (w *workload) check(e *env) error {
	var done []finished
	for _, c := range w.clients {
		done = append(done, c.done...)
	}
	errs := []error{checkFinished(w.specs, done, w.g.answer)}
	want := w.seeds + w.iterations
	for id, fp := range w.restoredFP {
		c, err := e.mgr.Get(id)
		if err != nil {
			errs = append(errs, err)
			continue
		}
		st, err := c.Status(false)
		switch {
		case err != nil:
			errs = append(errs, err)
		case st.State != serve.StateDone || st.Observations != want:
			errs = append(errs, fmt.Errorf("restored campaign %s is %s with %d observations, want done with %d", id, st.State, st.Observations, want))
		case st.Fingerprint != fp:
			errs = append(errs, fmt.Errorf("restored campaign %s fingerprint %x, before restart %x", id, st.Fingerprint, fp))
		}
		var resp serve.PredictResponse
		if err := e.api.must("predict", http.MethodPost, "/campaigns/"+id+"/predict", serve.PredictRequest{Points: w.probe}, "", &resp); err != nil {
			errs = append(errs, err)
			continue
		}
		errs = append(errs, checkPredict(e.mgr, id, w.probe, resp))
	}
	return errors.Join(errs...)
}
