// Command campaignbench is the repository's benchmark: it drives the
// campaign service in-process through its public API, on a single node or
// a three-node replicated cluster, and prints end-to-end metrics (an
// untraced run) or a per-layer breakdown (a traced run). See README.md
// for the workloads and the metric-to-workload map.
//
//	campaignbench -workload explore-dense -seed 1 -seconds 10 -trace 0
//
// The last line of standard output is one JSON object:
// {"correct":…, "attempted":…, "failed":…, "metrics":{name:{value,unit}}}.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync/atomic"
	"time"
)

// subWindows is how many equal windows the untraced timed window is
// split into for the end-to-end metrics.
const subWindows = 5

// A run sets the service up at least setupMinReps times, and more while
// the set-ups have taken less than setupBudget in all, up to setupMaxReps;
// setup_s is the median and the last set-up is kept. Cheap set-ups are
// repeated more because any single one of a few milliseconds is noisy.
const (
	setupMinReps = 9
	setupMaxReps = 50
	setupBudget  = time.Second
)

// deadline bounds a whole run; the benchmark must exit well within 180 s.
const deadline = 170 * time.Second

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	workdir  string
}

// bench is the state one run shares across its workload.
type bench struct {
	cfg  config
	tmp  string    // scratch directory of this run, removed at exit
	rec  *recorder // nil in an untraced run
	sink *sink
	grid *grid
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "explore-dense or cluster-observe")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed: campaign seeds and seed rows")
	flag.IntVar(&cfg.seconds, "seconds", 10, "length of one timed window in seconds")
	flag.IntVar(&trace, "trace", 0, "1: report the per-layer breakdown instead of end-to-end metrics")
	flag.StringVar(&cfg.workdir, "workdir", ".bench_build/work", "directory for journals and the span dump")
	flag.Parse()
	cfg.trace = trace == 1
	if _, ok := newWorkload(cfg.workload); !ok || cfg.seconds < 1 || (trace != 0 && trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	time.AfterFunc(deadline, func() {
		fmt.Fprintf(os.Stderr, "campaignbench: run exceeded %v\n", deadline)
		os.Exit(3)
	})

	res, notes, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "campaignbench:", err)
		os.Exit(1)
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Printf("%-34s %14.6g %-6s %s\n", n, m.Value, m.Unit, notes[n])
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "campaignbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

func run(cfg config) (result, map[string]string, error) {
	w, _ := newWorkload(cfg.workload)
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		return result{}, nil, err
	}
	tmp, err := os.MkdirTemp(cfg.workdir, "run-")
	if err != nil {
		return result{}, nil, err
	}
	defer os.RemoveAll(tmp)
	b := &bench{cfg: cfg, tmp: tmp, sink: newSink()}
	if cfg.trace {
		b.rec = newRecorder()
	}
	if b.grid, err = performanceGrid(); err != nil {
		return result{}, nil, err
	}
	if err := w.prepare(b); err != nil {
		return result{}, nil, fmt.Errorf("preparing inputs: %w", err)
	}

	var e *env
	var setups, resumes []float64
	var spent time.Duration
	for r := 0; r < setupMaxReps && (r < setupMinReps || spent < setupBudget); r++ {
		if e != nil {
			e.close()
		}
		dir := filepath.Join(tmp, fmt.Sprintf("setup-%d", r))
		if err := w.fill(dir); err != nil {
			return result{}, nil, err
		}
		if b.rec != nil {
			b.rec.setPhase("setup")
		}
		t := time.Now()
		if e, err = w.setup(b, dir); err != nil {
			return result{}, nil, fmt.Errorf("set-up: %w", err)
		}
		spent += time.Since(t)
		setups = append(setups, time.Since(t).Seconds())
		resumes = append(resumes, e.resumeS)
		if b.rec != nil {
			b.rec.setPhase("")
		}
	}
	defer e.close()

	var stop atomic.Bool
	wait := w.start(b, e, &stop)
	res := result{Correct: true, Metrics: map[string]metric{}}
	notes := map[string]string{}
	parts := b.sink.measure(time.Duration(cfg.seconds)*time.Second, subWindows)
	untraced := merge(parts)
	res.Attempted, res.Failed = untraced.attempted, untraced.failed
	var e2eErr error
	if b.rec == nil {
		e2eErr = endToEnd(res.Metrics, notes, parts, setups)
	}
	base := untracedP50{step: median(untraced.steps), observe: median(untraced.observes)}
	// The window's samples are the benchmark's state, not the service's, and
	// their number follows the throughput: drop them before reading the heap.
	parts, untraced = nil, nil
	b.sink.gate.pause()
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	b.sink.gate.resume()
	if b.rec == nil {
		res.Metrics["heap_mb"] = metric{float64(mem.HeapAlloc) / (1 << 20), "MiB"}
	}

	// Engine work of the traced window.
	engine := engineSnap{}
	var traced *window
	if b.rec != nil {
		b0 := snapEngine()
		b.rec.setPhase("window")
		traced = merge(b.sink.measure(time.Duration(cfg.seconds)*time.Second, 1))
		b.rec.setPhase("")
		engine.add(b0, snapEngine())
		res.Attempted += traced.attempted
		res.Failed += traced.failed
	}
	stop.Store(true)
	if err := wait(); err != nil {
		return result{}, nil, fmt.Errorf("client: %w", err)
	}

	if err := w.check(e); err != nil {
		fmt.Fprintln(os.Stderr, "campaignbench: wrong output:", err)
		res.Correct = false
	}
	if res.Attempted == 0 {
		return result{}, nil, errors.New("no request was attempted in the timed window")
	}
	if b.rec != nil {
		for _, err := range perLayer(res.Metrics, notes, b, w, base, traced, engine, resumes) {
			fmt.Fprintln(os.Stderr, "campaignbench: accounting check failed:", err)
			res.Correct = false
		}
		if werr := writeSpans(b); werr != nil {
			fmt.Fprintln(os.Stderr, "campaignbench: writing spans:", werr)
		}
	}
	return res, notes, e2eErr
}

// endToEnd fills the metrics a user of the service sees, except heap_mb,
// from the untraced windows: each metric is the median of its values in
// the windows, so a burst of noise from outside the run moves at most one
// of them.
func endToEnd(m map[string]metric, notes map[string]string, ws []*window, setups []float64) error {
	m["setup_s"] = metric{median(setups), "s"}
	notes["setup_s"] = fmt.Sprintf("median of %d set-ups", len(setups))
	var rate []float64
	acked := 0
	for _, w := range ws {
		rate = append(rate, float64(w.acked)/w.seconds())
		acked += w.acked
	}
	m["steps_per_s"] = metric{median(rate), "steps/s"}
	notes["steps_per_s"] = fmt.Sprintf("median over %d windows; %d acked observes in all", len(ws), acked)
	for _, name := range []string{"step_ms", "observe_ms"} {
		var p50, tail []float64
		var pct float64
		n := 0
		for _, w := range ws {
			samples := map[string][]float64{"step_ms": w.steps, "observe_ms": w.observes}[name]
			if len(samples) == 0 {
				return fmt.Errorf("no %s sample in a timed window", name)
			}
			s := summarize(samples)
			p50 = append(p50, s.P50)
			tail = append(tail, s.Tail)
			pct = math.Max(pct, s.TailPct)
			n += s.N
		}
		m[name+"_p50"] = metric{median(p50), "ms"}
		m[name+"_p99"] = metric{median(tail), "ms"}
		notes[name+"_p99"] = fmt.Sprintf("median over %d windows of up to p%g; %d samples in all", len(ws), pct, n)
	}
	return nil
}

// writeSpans dumps the traced run's spans next to the run directories,
// one file per workload (the latest traced run wins).
func writeSpans(b *bench) error {
	f, err := os.Create(filepath.Join(b.cfg.workdir, "spans-"+b.cfg.workload+".jsonl"))
	if err != nil {
		return err
	}
	if err := b.rec.writeJSONL(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
