// Command perfbench is the repository's benchmark: one command that runs a
// named workload against the program, checks every output, and prints the
// end-to-end metrics (or, with --trace 1, the per-layer metrics) as the
// last line of standard output.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload ingest --seed 1 --seconds 20 --trace 0 >> runs.jsonl
//	bash perfbench/run.sh --compare old.jsonl new.jsonl
//
// Workloads: ingest, serve-hot, serve-cold, report (see README.md). The
// line before the last is the full record — host fingerprint, workload
// properties, and every metric's median, quartiles and sample count —
// which --compare reads back from saved output.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"frappe"
)

// runConfig is one invocation's settings.
type runConfig struct {
	workload  string
	seed      int64
	seconds   float64
	trace     bool
	scale     float64
	setupReps int
	dir       string // scratch directory: WALs, stores

	// tamper, when set, edits the serve reference verdicts before the
	// measured pass (tests use it to prove a wrong verdict fails the run).
	tamper func(map[string]frappe.Assessment)
	// reportPins overrides defaultReportPins.
	reportPins map[string]string
}

var workloads = map[string]func(runConfig) (*result, error){
	"ingest":     runIngest,
	"serve-hot":  func(c runConfig) (*result, error) { return runServe(c, serveHot) },
	"serve-cold": func(c runConfig) (*result, error) { return runServe(c, serveCold) },
	"report":     runReport,
}

const (
	// benchScale is every workload's world scale: big enough that a pass
	// is dominated by steady-state work, small enough that set-up and a
	// run fit the time budget on a 2-core host.
	benchScale = 0.02
	// setupReps is how many times a run sets up; setup_s is the median.
	setupReps = 3
)

// metricDef declares one reported metric; the lists mirror BENCHMARK.json.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"ops_per_s", "1/s"},
	{"op_p50_ms", "ms"},
	{"op_p99_ms", "ms"},
}

var perLayer = func() []metricDef {
	defs := []metricDef{
		{"trace.overhead_share", "share"},
		{"synth.generate_s", "s"},
		{"wal.append_s", "s"},
		{"wal.sync_s", "s"},
		{"wal.bytes", "B"},
		{"wal.read_s", "s"},
		{"mypagekeeper.enqueue_s", "s"},
		{"mypagekeeper.barrier_s", "s"},
		{"mypagekeeper.observe_s", "s"},
		{"mypagekeeper.decode_s", "s"},
		{"wot.domain_of_s", "s"},
		{"mypagekeeper.posts", "count"},
		{"mypagekeeper.flagged_posts", "count"},
		{"mypagekeeper.blacklist_barriers", "count"},
		{"cluster.proxy_self_ms_p50", "ms"},
		{"cluster.member_skew", "ratio"},
		{"cluster.failovers", "count"},
		{"watchdog.handler_ms_p50", "ms"},
		{"watchdog.handler_ms_p99", "ms"},
		{"watchdog.assess_us_p50", "us"},
		{"verdict.hit_share", "share"},
		{"watchdog.upstream_per_verdict", "ratio"},
		{"graphapi.summary_ms_p50", "ms"},
		{"graphapi.feed_ms_p50", "ms"},
		{"graphapi.install_ms_p50", "ms"},
		{"wot.score_ms_p50", "ms"},
		{"httpx.attempt_ms_mean.graph", "ms"},
		{"httpx.attempt_ms_mean.wot", "ms"},
		{"httpx.server_ms_mean.graph", "ms"},
		{"httpx.server_ms_mean.wot", "ms"},
		{"core.classify_ns", "ns"},
		{"svm.classify_ns_rff", "ns"},
	}
	for _, s := range reportStages {
		defs = append(defs, metricDef{"lab.stage_s." + s, "s"})
	}
	return append(defs,
		metricDef{"lab.critical_path_s", "s"},
		metricDef{"lab.hits", "count"},
		metricDef{"lab.misses", "count"},
		metricDef{"svm.train_s", "s"},
		metricDef{"svm.crossval_s", "s"},
	)
}()

// worldSeed maps the benchmark seed onto a world seed: seed 0 is the
// paper-calibrated default world.
func worldSeed(scale float64, seed int64) int64 {
	return frappe.DefaultConfig(scale).Seed + seed
}

// series is one metric's samples within a run.
type series struct {
	unit    string
	samples []float64
}

// result is what a workload run produces.
type result struct {
	attempted, failed uint64
	// problems are output-oracle failures; any makes the run incorrect.
	problems []string
	series   map[string]*series
	names    []string // series in first-recorded order
	layers   map[string]float64
	props    map[string]any
}

func newResult() *result {
	return &result{series: map[string]*series{}, layers: map[string]float64{}, props: map[string]any{}}
}

func (r *result) add(name, unit string, v float64) {
	s, ok := r.series[name]
	if !ok {
		s = &series{unit: unit}
		r.series[name] = s
		r.names = append(r.names, name)
	}
	s.samples = append(s.samples, v)
}

// layer records a per-layer metric; its unit is declared in perLayer.
func (r *result) layer(name string, v float64) { r.layers[name] = v }

// overhead is the traced run's cost: 1 - traced/untraced median rate.
func overhead(untraced, traced []float64) float64 {
	u, t := summarize(untraced).Median, summarize(traced).Median
	if u == 0 {
		return 0
	}
	return 1 - t/u
}

// metricOut is one entry of the contract line's metrics object.
type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// record is the full result line: everything needed to compare two runs.
type record struct {
	Schema      string                  `json:"schema"`
	Workload    string                  `json:"workload"`
	Seed        int64                   `json:"seed"`
	Seconds     float64                 `json:"seconds"`
	Trace       bool                    `json:"trace"`
	Fingerprint fingerprint             `json:"fingerprint"`
	Properties  map[string]any          `json:"properties"`
	Metrics     map[string]recordMetric `json:"metrics"`
	Layers      map[string]metricOut    `json:"layers,omitempty"`
	Attempted   uint64                  `json:"attempted"`
	Failed      uint64                  `json:"failed"`
	FailedShare float64                 `json:"failed_share"`
	Problems    []string                `json:"problems,omitempty"`
}

type recordMetric struct {
	Unit string `json:"unit"`
	summary
}

const schema = "perfbench/v1"

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: ingest, serve-hot, serve-cold or report")
	seed := fs.Int64("seed", 0, "workload seed (0 = the default world)")
	seconds := fs.Float64("seconds", 20, "measured seconds")
	trace := fs.Int("trace", 0, "1 = traced run: print the per-layer metrics")
	compare := fs.Bool("compare", false, "compare two files of saved output given as arguments")
	workdir := fs.String("workdir", filepath.Join(".bench_build", "perfbench-run"),
		"directory for the run's WALs and stores (removed afterwards)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	slog.SetDefault(slog.New(slog.NewTextHandler(stderr, &slog.HandlerOptions{Level: slog.LevelError})))
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: perfbench --compare OLD NEW")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	workload, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "usage: perfbench --workload ingest|serve-hot|serve-cold|report --seed N --seconds S --trace 0|1")
		return 2
	}
	cfg := runConfig{
		workload: *name, seed: *seed, seconds: *seconds, trace: *trace == 1,
		scale: benchScale, setupReps: setupReps,
		dir: filepath.Join(*workdir, fmt.Sprintf("%s-%d", *name, os.Getpid())),
	}
	// A run that overstays the contract's limit is aborted, not awaited.
	abort := time.AfterFunc(175*time.Second, func() {
		fmt.Fprintln(stderr, "perfbench: run exceeded 175s; aborting")
		os.RemoveAll(cfg.dir)
		os.Exit(3)
	})
	defer abort.Stop()
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(cfg.dir)
	rec, line, err := execute(cfg, workload)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	printSummary(stderr, rec)
	full, err := json.Marshal(rec)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n%s\n", full, line)
	return 0
}

// execute runs the workload and builds the full record and the contract's
// last line.
func execute(cfg runConfig, workload func(runConfig) (*result, error)) (*record, []byte, error) {
	res, err := workload(cfg)
	if err != nil {
		return nil, nil, err
	}
	res.add("peak_rss_mb", "MB", peakRSSMB())
	rec := &record{
		Schema: schema, Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace,
		Fingerprint: hostFingerprint(cfg.dir),
		Properties:  res.props,
		Metrics:     map[string]recordMetric{},
		Attempted:   res.attempted,
		Failed:      res.failed,
		Problems:    res.problems,
	}
	if res.attempted > 0 {
		rec.FailedShare = float64(res.failed) / float64(res.attempted)
	}
	if len(rec.Problems) > 20 {
		rec.Problems = rec.Problems[:20]
	}
	for _, n := range res.names {
		s := res.series[n]
		rec.Metrics[n] = recordMetric{Unit: s.unit, summary: summarize(s.samples)}
	}
	metrics := map[string]metricOut{}
	if cfg.trace {
		declared := map[string]bool{}
		for _, d := range perLayer {
			declared[d.name] = true
		}
		for n := range res.layers {
			if !declared[n] {
				return nil, nil, fmt.Errorf("workload %s measured undeclared layer metric %s", cfg.workload, n)
			}
		}
		rec.Layers = map[string]metricOut{}
		for _, d := range perLayer {
			m := metricOut{Value: res.layers[d.name], Unit: d.unit}
			rec.Layers[d.name] = m
			metrics[d.name] = m
		}
	} else {
		for _, d := range endToEnd {
			m, ok := rec.Metrics[d.name]
			if !ok {
				return nil, nil, fmt.Errorf("workload %s did not measure %s", cfg.workload, d.name)
			}
			metrics[d.name] = metricOut{Value: m.Median, Unit: d.unit}
		}
	}
	attempted := res.attempted
	if attempted == 0 {
		return nil, nil, fmt.Errorf("workload %s attempted no operations", cfg.workload)
	}
	line, err := json.Marshal(struct {
		Correct   bool                 `json:"correct"`
		Attempted uint64               `json:"attempted"`
		Failed    uint64               `json:"failed"`
		Metrics   map[string]metricOut `json:"metrics"`
	}{len(res.problems) == 0, attempted, res.failed, metrics})
	return rec, line, err
}

func printSummary(w io.Writer, rec *record) {
	fp := rec.Fingerprint
	mode := "untraced"
	if rec.Trace {
		mode = "traced"
	}
	fmt.Fprintf(w, "perfbench %s seed=%d %gs %s | %s x%d GOMAXPROCS=%d %s wal_fs=%s commit=%s dirty=%v\n",
		rec.Workload, rec.Seed, rec.Seconds, mode, fp.CPUModel, fp.NumCPU, fp.GOMAXPROCS,
		fp.GoVersion, fp.WALFS, fp.Commit, fp.Dirty)
	names := make([]string, 0, len(rec.Metrics))
	for n := range rec.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := rec.Metrics[n]
		fmt.Fprintf(w, "  %-22s %14.6g %-5s median of %d, spread %.1f%%\n", n, m.Median, m.Unit, m.N, 100*m.Spread)
	}
	fmt.Fprintf(w, "  %-22s %14.6g %-5s %d failed of %d attempted\n", "failed_share", rec.FailedShare, "share", rec.Failed, rec.Attempted)
	if rec.Trace {
		for _, d := range perLayer {
			fmt.Fprintf(w, "  %-34s %14.6g %s\n", d.name, rec.Layers[d.name].Value, d.unit)
		}
	}
	keys := make([]string, 0, len(rec.Properties))
	for k := range rec.Properties {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "  property %s = %v\n", k, rec.Properties[k])
	}
	for _, p := range rec.Problems {
		fmt.Fprintf(w, "  ORACLE FAILED: %s\n", p)
	}
}

// compareFiles prints, per workload and metric, the median of each side's
// record medians and their relative change. Records from different hosts
// are refused: a number from another host is context, not a baseline.
func compareFiles(oldPath, newPath string, stdout, stderr io.Writer) int {
	oldRecs, err := readRecords(oldPath)
	if err == nil {
		var newRecs []record
		if newRecs, err = readRecords(newPath); err == nil {
			return compareRecords(oldRecs, newRecs, stdout, stderr)
		}
	}
	fmt.Fprintln(stderr, "perfbench:", err)
	return 1
}

func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		// Saved output interleaves record lines and result lines; only the
		// records carry what a comparison needs.
		var r record
		if err := json.Unmarshal([]byte(line), &r); err != nil || r.Schema != schema {
			continue
		}
		recs = append(recs, r)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(recs) == 0 {
		return nil, fmt.Errorf("%s: no %s record lines", path, schema)
	}
	return recs, nil
}

func compareRecords(oldRecs, newRecs []record, stdout, stderr io.Writer) int {
	base := oldRecs[0].Fingerprint
	for _, r := range append(append([]record(nil), oldRecs...), newRecs...) {
		if ok, why := sameHost(base, r.Fingerprint); !ok {
			fmt.Fprintf(stderr, "perfbench: refusing to compare results from different hosts (%s)\n", why)
			return 2
		}
	}
	medians := func(recs []record) map[string]map[string][]float64 {
		out := map[string]map[string][]float64{}
		for _, r := range recs {
			if out[r.Workload] == nil {
				out[r.Workload] = map[string][]float64{}
			}
			for n, m := range r.Metrics {
				out[r.Workload][n] = append(out[r.Workload][n], m.Median)
			}
		}
		return out
	}
	om, nm := medians(oldRecs), medians(newRecs)
	var wls []string
	for wl := range om {
		if nm[wl] != nil {
			wls = append(wls, wl)
		}
	}
	sort.Strings(wls)
	for _, wl := range wls {
		var names []string
		for n := range om[wl] {
			if nm[wl][n] != nil {
				names = append(names, n)
			}
		}
		sort.Strings(names)
		for _, n := range names {
			o, nw := summarize(om[wl][n]), summarize(nm[wl][n])
			delta := 0.0
			if o.Median != 0 {
				delta = (nw.Median - o.Median) / o.Median
			}
			fmt.Fprintf(stdout, "%-10s %-22s old %12.6g (n=%d, spread %.1f%%)  new %12.6g (n=%d, spread %.1f%%)  %+.1f%%\n",
				wl, n, o.Median, o.N, 100*o.Spread, nw.Median, nw.N, 100*nw.Spread, 100*delta)
		}
	}
	return 0
}
