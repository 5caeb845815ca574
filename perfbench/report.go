package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"frappe/internal/experiments"
	"frappe/internal/lab"
	"frappe/internal/synth"
	"frappe/internal/telemetry"
)

// The report workload regenerates the paper's evaluation report through
// the lab engine: a cold lab.Run of experiments.Pipeline on a fresh store,
// then cachedPerCold fully cached re-runs on the same store. One operation
// is one pass, cold or cached, so the latency median is a cached pass and
// the p99 is the cold tail.
const cachedPerCold = 9

// defaultReportPins pins the report's SHA-256 for the default scale and
// seed (--seed 0): a run that renders anything else is wrong.
var defaultReportPins = map[string]string{
	pinKey(benchScale, 0): "76d80a8d1cc53e7a6a6e0dba8a9327289e9638df37d0d8658d27e836632343d9",
}

func pinKey(scale float64, seed int64) string { return fmt.Sprintf("%g/%d", scale, seed) }

// reportStages lists the stages whose spans the traced run reports.
var reportStages = []string{
	"generate", "ingest", "datasets", "crawl", "train", "countermeasures",
	"learnedmpk", "table5", "grid", "kernels", "fig10", "report",
}

// spans records each stage's Run intervals during a traced pass.
type spans struct {
	mu   sync.Mutex
	runs map[string][]interval
}

type interval struct{ start, end time.Time }

// wrap returns stages whose Run closures record their interval into s.
// Run closures sit outside the stage fingerprint, so the wrapped DAG hits
// the same cache entries as the plain one.
func (s *spans) wrap(stages []lab.Stage) []lab.Stage {
	out := make([]lab.Stage, len(stages))
	for i, st := range stages {
		run, name := st.Run, st.Name
		st.Run = func(c *lab.StageContext) ([]byte, error) {
			start := time.Now()
			b, err := run(c)
			s.mu.Lock()
			s.runs[name] = append(s.runs[name], interval{start, time.Now()})
			s.mu.Unlock()
			return b, err
		}
		out[i] = st
	}
	return out
}

func (s *spans) seconds(name string) float64 {
	var d time.Duration
	for _, iv := range s.runs[name] {
		d += iv.end.Sub(iv.start)
	}
	return d.Seconds()
}

// criticalPath walks back from the report stage along the chain of
// stages that blocked each other: each step goes to the stage that
// finished last before the current one started, whether it was a
// dependency, the previous level's straggler or the run that freed a
// worker. The sum of stage times on that chain is the part of the pass a
// faster stage can shorten; stages off it overlap with it.
func (s *spans) criticalPath() (float64, []string) {
	type span struct {
		name       string
		start, end time.Time
	}
	var all []span
	for name, ivs := range s.runs {
		for _, iv := range ivs {
			all = append(all, span{name, iv.start, iv.end})
		}
	}
	var cur *span
	for i := range all {
		if all[i].name == "report" {
			cur = &all[i]
		}
	}
	var total float64
	var chain []string
	for cur != nil {
		chain = append(chain, cur.name)
		total += cur.end.Sub(cur.start).Seconds()
		var prev *span
		for i := range all {
			if !all[i].end.After(cur.start) && (prev == nil || all[i].end.After(prev.end)) {
				prev = &all[i]
			}
		}
		cur = prev
	}
	return total, chain
}

// reportPass is one lab.Run with its outcome.
type reportPass struct {
	took    time.Duration
	sha     string
	res     *lab.Result
	skipped int
}

// runPass runs the DAG once. A stage that fails leaves itself and its
// dependents skipped and the report missing; those are counted, not
// returned: only an unusable engine configuration is an error.
func runPass(ctx context.Context, stages []lab.Stage, store *lab.Store) (reportPass, error) {
	start := time.Now()
	res, err := lab.Run(ctx, stages, lab.Options{Store: store})
	p := reportPass{took: time.Since(start), res: res}
	if res == nil {
		return p, fmt.Errorf("lab run: %w", err)
	}
	for _, rep := range res.Stages {
		if rep.Status == lab.StatusSkipped {
			p.skipped++
		}
	}
	if art, ok := res.Artifact("report"); ok && err == nil {
		sum := sha256.Sum256(art)
		p.sha = hex.EncodeToString(sum[:])
	}
	return p, nil
}

func runReport(cfg runConfig) (*result, error) {
	res := newResult()
	ctx := context.Background()
	opts := experiments.PipelineOptions{Scale: cfg.scale, Seed: worldSeed(cfg.scale, cfg.seed)}
	var stages []lab.Stage
	var generate time.Duration
	for i := 0; i < cfg.setupReps; i++ {
		// Set-up builds the stage DAG and generates the pipeline's world
		// once outside the engine, to record its size and time synth.
		start := time.Now()
		stages = experiments.Pipeline(opts)
		wcfg := synth.Default(cfg.scale)
		wcfg.Seed = opts.Seed
		genStart := time.Now()
		w := synth.Generate(wcfg)
		generate = time.Since(genStart)
		res.props = map[string]any{
			"scale":           cfg.scale,
			"world_seed":      opts.Seed,
			"stages":          len(stages),
			"apps":            len(w.BenignIDs) + len(w.MaliciousIDs),
			"stream_posts":    w.TotalStreamPosts,
			"cached_per_cold": cachedPerCold,
		}
		res.add("setup_s", "s", time.Since(start).Seconds())
	}
	pins := cfg.reportPins
	if pins == nil {
		pins = defaultReportPins
	}
	pinned := pins[pinKey(cfg.scale, cfg.seed)]

	storeDir := filepath.Join(cfg.dir, "store")
	var reportSHA string
	var passes []time.Duration
	// cycle runs one cold pass and its cached re-runs, checks them, and
	// returns the pass count and total pass time.
	cycle := func(run []lab.Stage, sp *spans) (int, time.Duration, error) {
		if err := os.RemoveAll(storeDir); err != nil {
			return 0, 0, err
		}
		store, err := lab.OpenStore(storeDir)
		if err != nil {
			return 0, 0, err
		}
		var total time.Duration
		reg := telemetry.Default()
		train0, _ := reg.HistogramSum("frappe_train_duration_seconds")
		cv0, _ := reg.HistogramSum("frappe_crossval_duration_seconds")
		cold, err := runPass(ctx, run, store)
		if err != nil {
			return 0, 0, err
		}
		if sp != nil {
			train1, _ := reg.HistogramSum("frappe_train_duration_seconds")
			cv1, _ := reg.HistogramSum("frappe_crossval_duration_seconds")
			res.layer("svm.train_s", train1-train0)
			res.layer("svm.crossval_s", cv1-cv0)
		}
		if sp == nil {
			res.add("report_s", "s", cold.took.Seconds())
			passes = append(passes, cold.took)
		}
		total += cold.took
		res.attempted += uint64(len(run))
		res.failed += uint64(cold.skipped)
		if cold.sha == "" {
			res.problems = append(res.problems, "cold pass produced no report")
		}
		if reportSHA == "" {
			reportSHA = cold.sha
		}
		if cold.sha != reportSHA {
			res.problems = append(res.problems, fmt.Sprintf("cold report %s differs from the first cold report %s", cold.sha, reportSHA))
		}
		if pinned != "" && cold.sha != pinned {
			res.problems = append(res.problems, fmt.Sprintf("report SHA-256 %s, pinned %s", cold.sha, pinned))
		}
		for i := 0; i < cachedPerCold; i++ {
			p, err := runPass(ctx, run, store)
			if err != nil {
				return 0, 0, err
			}
			if sp == nil {
				res.add("report_cached_s", "s", p.took.Seconds())
				passes = append(passes, p.took)
			}
			total += p.took
			res.attempted += uint64(len(run))
			res.failed += uint64(p.skipped)
			if p.sha != cold.sha {
				res.problems = append(res.problems, fmt.Sprintf("cached report %s differs from cold %s", p.sha, cold.sha))
			}
			if p.res.Misses != 0 || p.res.Hits != len(run) {
				res.problems = append(res.problems, fmt.Sprintf("cached pass was not all hits (%d hits, %d misses of %d stages)",
					p.res.Hits, p.res.Misses, len(run)))
			}
			if sp != nil && i == 0 {
				res.layer("lab.hits", float64(p.res.Hits))
				res.layer("lab.misses", float64(p.res.Misses))
			}
		}
		return 1 + cachedPerCold, total, nil
	}

	// Cycles run while the next one is expected to end within the budget.
	// A traced run alternates untraced cycles with cycles whose every
	// Stage.Run is timed (at least two of each), so both kinds see the
	// same host conditions; its layers come from the last traced cycle.
	budget := time.Duration(cfg.seconds * float64(time.Second))
	var rates, traced []float64
	var sp *spans
	began := time.Now()
	var last time.Duration
	for len(rates) < 1 || (cfg.trace && len(traced) < 2) || time.Since(began)+last <= budget {
		run, cur := stages, (*spans)(nil)
		if cfg.trace && len(traced) < len(rates) {
			cur = &spans{runs: map[string][]interval{}}
			run = cur.wrap(stages)
		}
		start := time.Now()
		n, took, err := cycle(run, cur)
		if err != nil {
			return nil, err
		}
		last = time.Since(start)
		rate := float64(n) / took.Seconds()
		if cur != nil {
			traced, sp = append(traced, rate), cur
			continue
		}
		rates = append(rates, rate)
		res.add("ops_per_s", "1/s", rate)
	}
	lat := sortedMillis(passes)
	p50, p99 := percentile(lat, 0.50), percentile(lat, 0.99)
	res.add("op_p50_ms", "ms", p50.Value)
	res.add("op_p99_ms", "ms", p99.Value)
	res.props["passes"] = p50.N
	res.props["report_sha256"] = reportSHA
	if !cfg.trace {
		return res, nil
	}

	res.layer("trace.overhead_share", overhead(rates, traced))
	for _, name := range reportStages {
		res.layer("lab.stage_s."+name, sp.seconds(name))
	}
	cp, chain := sp.criticalPath()
	res.layer("lab.critical_path_s", cp)
	res.props["critical_path"] = chain
	res.layer("synth.generate_s", generate.Seconds())
	return res, nil
}
