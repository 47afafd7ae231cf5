// Command alrepro regenerates the paper's tables and figures and writes
// each report (plus its data series as CSV) under an output directory.
//
// Usage:
//
//	alrepro -out results/            # everything, full size
//	alrepro -exp F8 -quick           # one experiment, small batches
//	alrepro -out results/ -resume    # continue a killed run: experiments
//	                                 # with an existing <id>.txt are skipped
//
// SIGINT/SIGTERM flush the -metrics sink before exiting; reports
// already written stay on disk, so a -resume pass picks up where the
// interrupted campaign stopped.
package main

import (
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"

	"repro/internal/al"
	"repro/internal/experiments"
	"repro/internal/obs"
)

var generators = map[string]func(experiments.Options) (*experiments.Report, error){
	"T1": experiments.TableI,
	"F1": experiments.Fig1,
	"F2": experiments.Fig2,
	"F3": experiments.Fig3,
	"F4": experiments.Fig4,
	"F5": experiments.Fig5,
	"F6": experiments.Fig6,
	"F7": experiments.Fig7,
	"F8": experiments.Fig8,
	"A1": experiments.AblationGamma,
	"A2": experiments.AblationKernel,
	"A3": experiments.AblationSelection,
	"A4": experiments.AblationParallel,
	"A5": experiments.AblationScaling,
	"A6": experiments.AblationEMCM,
}

var order = []string{"T1", "F1", "F2", "F3", "F4", "F5", "F6", "F7", "F8", "A1", "A2", "A3", "A4", "A5", "A6"}

func main() {
	exp := flag.String("exp", "all", "experiment id (T1, F1..F8, A1..A6) or 'all'")
	out := flag.String("out", "results", "output directory")
	seed := flag.Int64("seed", 1, "random seed")
	quick := flag.Bool("quick", false, "smaller batches for a fast pass")
	plot := flag.Bool("plot", false, "render ASCII plots of each report's series")
	metrics := flag.String("metrics", "", "write obs spans/events/metrics to this JSONL file (see OBSERVABILITY.md)")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
	parallel := flag.Bool("parallel", true,
		"score AL candidates on all cores (results are identical either way; -parallel=false forces the serial scorer)")
	resume := flag.Bool("resume", false,
		"skip experiments whose <id>.txt report already exists in -out (continue an interrupted campaign)")
	flag.Parse()

	if !*parallel {
		al.SetDefaultScoreWorkers(1)
	}

	if *pprofAddr != "" {
		go func() {
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintln(os.Stderr, "alrepro: pprof:", err)
			}
		}()
		fmt.Printf("pprof: http://%s/debug/pprof/\n", *pprofAddr)
	}
	var sinkFile *os.File
	if *metrics != "" {
		f, err := os.Create(*metrics)
		if err != nil {
			fmt.Fprintln(os.Stderr, "alrepro:", err)
			os.Exit(1)
		}
		sinkFile = f
		obs.SetSink(f)
	}

	// Each report is written as soon as its generator finishes, so on
	// SIGINT/SIGTERM only the metrics sink needs flushing — completed
	// reports are already on disk for a -resume pass.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		s := <-sigc
		fmt.Fprintf(os.Stderr, "\nalrepro: caught %v, flushing\n", s)
		if sinkFile != nil {
			obs.DumpMetrics()
			obs.SetSink(nil)
			sinkFile.Sync()
			sinkFile.Close()
			fmt.Fprintf(os.Stderr, "alrepro: metrics flushed to %s\n", *metrics)
		}
		fmt.Fprintf(os.Stderr, "alrepro: continue with -resume -out %s\n", *out)
		os.Exit(130)
	}()

	err := run(*exp, *out, *seed, *quick, *plot, *resume)

	if sinkFile != nil {
		obs.DumpMetrics()
		obs.SetSink(nil)
		if cerr := sinkFile.Close(); cerr != nil && err == nil {
			err = cerr
		}
		fmt.Printf("metrics: wrote %s\n", *metrics)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "alrepro:", err)
		os.Exit(1)
	}
	fmt.Println(obs.Brief())
}

func run(exp, out string, seed int64, quick, plot, resume bool) error {
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	opts := experiments.Options{Seed: seed, Quick: quick}

	ids := order
	if exp != "all" {
		id := strings.ToUpper(exp)
		if _, ok := generators[id]; !ok {
			return fmt.Errorf("unknown experiment %q (want T1, F1..F8, A1..A6, all)", exp)
		}
		ids = []string{id}
	}
	skipped := 0
	for _, id := range ids {
		if resume {
			if _, err := os.Stat(filepath.Join(out, id+".txt")); err == nil {
				fmt.Printf("%s: report exists, skipping (resume)\n", id)
				skipped++
				continue
			}
		}
		rep, err := generators[id](opts)
		if err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
		if _, err := rep.WriteTo(os.Stdout); err != nil {
			return err
		}
		if plot {
			renderPlots(rep)
		}
		txt, err := os.Create(filepath.Join(out, id+".txt"))
		if err != nil {
			return err
		}
		if _, err := rep.WriteTo(txt); err != nil {
			txt.Close()
			return err
		}
		if err := txt.Close(); err != nil {
			return err
		}
		for name := range rep.Series {
			csvf, err := os.Create(filepath.Join(out, fmt.Sprintf("%s_%s.csv", id, name)))
			if err != nil {
				return err
			}
			if err := rep.WriteSeriesCSV(name, nil, csvf); err != nil {
				csvf.Close()
				return err
			}
			if err := csvf.Close(); err != nil {
				return err
			}
		}
	}
	fmt.Printf("wrote %d report(s) to %s (%d skipped)\n", len(ids)-skipped, out, skipped)
	return nil
}
