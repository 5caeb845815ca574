// Command frappelab regenerates the paper's tables and figures through the
// internal/lab DAG engine: dependency-ordered stages (generate → ingest →
// datasets → crawl → train → evaluations → report) with content-addressed
// artifact caching, parallel independent branches, and resumable runs.
//
// Usage:
//
//	frappelab [-scale 0.15] [-seed 20121210] [-quick] [-store .frappelab]
//	          [-workers N] [-out FILE] [-dot FILE] [-force] [-expect-all-hits]
//	          [-list]
//
// A first run computes everything and persists each stage's artifact under
// -store; a second run with unchanged inputs is pure cache hits and prints
// the identical report in a fraction of the time. Changing the seed, the
// scale, or one stage's config re-runs exactly the affected downstream
// cone. An interrupted run (crash, ctrl-C) resumes from its completed
// stages. The report is byte-identical to experiments.RenderReport over a
// freshly built Runner — both render the same sections through the same
// code.
//
// -dot adds one stage that renders Fig. 1's snapshot component as Graphviz
// DOT and writes it to the given file; the report is unchanged.
//
// -expect-all-hits exits non-zero if any stage missed the cache; CI uses
// it to assert that a repeated run is fully cached. -force re-runs every
// stage while still refreshing the store.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"frappe/internal/experiments"
	"frappe/internal/lab"
	"frappe/internal/telemetry"
)

func main() {
	scale := flag.Float64("scale", experiments.DefaultScale,
		"world scale (1.0 = the paper's 111K-app corpus)")
	seed := flag.Int64("seed", 0, "world seed (0 = paper-calibrated default)")
	quick := flag.Bool("quick", false, "skip the classifier experiments")
	storeDir := flag.String("store", ".frappelab", "artifact store directory")
	workers := flag.Int("workers", 0, "max concurrent stages (0 = GOMAXPROCS); results are identical for any value")
	outPath := flag.String("out", "", "write the report to this file instead of stdout")
	dotPath := flag.String("dot", "", "also write the Fig. 1 snapshot component as Graphviz DOT to this file")
	force := flag.Bool("force", false, "ignore cached artifacts (still refreshes the store)")
	expectAllHits := flag.Bool("expect-all-hits", false, "exit non-zero if any stage missed the cache")
	list := flag.Bool("list", false, "print the stage DAG and exit")
	logLevel := flag.String("log-level", "info", "log level: debug, info, warn, error")
	logJSON := flag.Bool("log-json", false, "log as JSON instead of text")
	flag.Parse()

	logger := telemetry.SetupProcessLogger(telemetry.LogConfig{
		Component: "frappelab", Level: *logLevel, JSON: *logJSON,
	})
	opts := experiments.PipelineOptions{Scale: *scale, Seed: *seed, Quick: *quick}
	stages := experiments.Pipeline(opts)
	if *dotPath != "" {
		stages = append(stages, experiments.Fig1DOTStage())
	}

	if *list {
		for _, s := range stages {
			deps := ""
			if len(s.Deps) > 0 {
				deps = " <- " + strings.Join(s.Deps, ", ")
			}
			fmt.Printf("%s%s\n", s.Name, deps)
		}
		return
	}

	store, err := lab.OpenStore(*storeDir)
	if err != nil {
		logger.Error("opening store", "err", err)
		os.Exit(1)
	}

	// Ctrl-C cancels the run; completed stages have already persisted
	// their artifacts, so the next invocation resumes from them.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	res, err := lab.Run(ctx, stages, lab.Options{
		Store:   store,
		Workers: *workers,
		Logger:  logger,
		Force:   *force,
	})
	if err != nil {
		logger.Error("lab run failed", "err", err,
			"hits", res.Hits, "misses", res.Misses)
		fmt.Fprintln(os.Stderr, "completed stages are cached; re-run to resume")
		os.Exit(1)
	}

	report, ok := res.Artifact("report")
	if !ok {
		logger.Error("run produced no report artifact")
		os.Exit(1)
	}
	if *outPath != "" {
		if err := os.WriteFile(*outPath, report, 0o644); err != nil {
			logger.Error("writing report", "err", err)
			os.Exit(1)
		}
	} else {
		os.Stdout.Write(report)
	}
	if *dotPath != "" {
		dot, _ := res.Artifact("fig1dot")
		if err := os.WriteFile(*dotPath, dot, 0o644); err != nil {
			logger.Error("writing Fig. 1 DOT", "err", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "Fig 1 snapshot written to %s (render with: dot -Tpng %s)\n", *dotPath, *dotPath)
	}

	fmt.Fprintf(os.Stderr, "lab: %d stages — %d hits, %d misses, %d opened, %d materialized in %v (store %s)\n",
		len(res.Stages), res.Hits, res.Misses, res.Opens, res.Materializations,
		res.Elapsed.Round(time.Millisecond), *storeDir)
	if *expectAllHits && res.Misses > 0 {
		for name, rep := range res.Stages {
			if rep.Status != lab.StatusHit {
				fmt.Fprintf(os.Stderr, "  stage %s: %s\n", name, rep.Status)
			}
		}
		fmt.Fprintf(os.Stderr, "expected all cache hits, got %d misses\n", res.Misses)
		os.Exit(2)
	}
}
