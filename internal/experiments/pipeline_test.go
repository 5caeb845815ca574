package experiments

import (
	"bytes"
	"context"
	"testing"

	"frappe/internal/lab"
)

// labRun executes the pipeline for opts against the store in dir.
func labRun(t *testing.T, dir string, opts PipelineOptions) *lab.Result {
	t.Helper()
	store, err := lab.OpenStore(dir)
	if err != nil {
		t.Fatalf("OpenStore: %v", err)
	}
	res, err := lab.Run(context.Background(), Pipeline(opts), lab.Options{Store: store})
	if err != nil {
		t.Fatalf("lab.Run: %v", err)
	}
	return res
}

func reportOf(t *testing.T, res *lab.Result) []byte {
	t.Helper()
	data, ok := res.Artifact("report")
	if !ok {
		t.Fatal("no report artifact")
	}
	return data
}

func TestPipelinePlanShape(t *testing.T) {
	full := Pipeline(PipelineOptions{Scale: 0.02})
	quick := Pipeline(PipelineOptions{Scale: 0.02, Quick: true})
	if len(full) <= len(quick) {
		t.Fatalf("full pipeline has %d stages, quick %d; full must add the classifier stages",
			len(full), len(quick))
	}
	byName := make(map[string]lab.Stage, len(full))
	for _, s := range full {
		byName[s.Name] = s
	}
	for _, name := range []string{"generate", "ingest", "datasets", "crawl", "train", "table8", "report"} {
		if _, ok := byName[name]; !ok {
			t.Fatalf("full pipeline missing stage %q", name)
		}
	}
	for _, dep := range byName["table8"].Deps {
		if _, ok := byName[dep]; !ok {
			t.Fatalf("table8 depends on unknown stage %q", dep)
		}
	}
	for _, s := range quick {
		if s.Name == "train" || s.Name == "table5" {
			t.Fatalf("quick pipeline must not include %q", s.Name)
		}
	}
}

// TestQuickPipelineMatchesMonolithicAndCaches is the equivalence bar at
// -quick: the DAG report must be byte-identical to the monolithic render,
// and a repeat run must be 100% cache hits with the identical report.
func TestQuickPipelineMatchesMonolithicAndCaches(t *testing.T) {
	ctx := context.Background()
	opts := PipelineOptions{Scale: 0.02, Quick: true}

	r, err := New(ctx, opts.Scale, opts.Seed)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	mono, err := RenderReport(ctx, r, opts)
	if err != nil {
		t.Fatalf("RenderReport: %v", err)
	}

	dir := t.TempDir()
	cold := labRun(t, dir, opts)
	if cold.Hits != 0 {
		t.Errorf("cold run: %d hits, want 0", cold.Hits)
	}
	if got := reportOf(t, cold); !bytes.Equal(got, []byte(mono)) {
		t.Fatalf("DAG report differs from monolithic render:\n--- dag (%d bytes)\n%s\n--- monolithic (%d bytes)\n%s",
			len(got), got, len(mono), mono)
	}

	warm := labRun(t, dir, opts)
	if warm.Misses != 0 {
		t.Fatalf("warm run: %d misses, want 0", warm.Misses)
	}
	if warm.Hits != len(warm.Stages) {
		t.Errorf("warm run: %d hits over %d stages", warm.Hits, len(warm.Stages))
	}
	if !bytes.Equal(reportOf(t, warm), []byte(mono)) {
		t.Fatal("cached report differs from monolithic render")
	}
}

// TestFullPipelineInvalidationCone drives the full (classifier) pipeline
// and checks that config edits re-run exactly the affected downstream
// cone, verified through per-stage statuses and run counters.
func TestFullPipelineInvalidationCone(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline run in -short mode")
	}
	ctx := context.Background()
	opts := PipelineOptions{Scale: 0.03}
	dir := t.TempDir()

	cold := labRun(t, dir, opts)
	if cold.Hits != 0 {
		t.Errorf("cold run: %d hits, want 0", cold.Hits)
	}

	// The hard equivalence bar: the full DAG report is byte-identical to
	// the monolithic section loop over a freshly built Runner.
	r, err := New(ctx, opts.Scale, opts.Seed)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	mono, err := RenderReport(ctx, r, opts)
	if err != nil {
		t.Fatalf("RenderReport: %v", err)
	}
	if !bytes.Equal(reportOf(t, cold), []byte(mono)) {
		t.Fatal("full DAG report differs from monolithic render")
	}

	// Changing table5's ratios must re-run exactly table5 and report. The
	// crawl artifact is opened (decoded) to feed table5, never re-run.
	edited := opts
	edited.Table5Ratios = []int{1, 7}
	res := labRun(t, dir, edited)
	for name, rep := range res.Stages {
		want := lab.StatusHit
		if name == "table5" || name == "report" {
			want = lab.StatusRan
		}
		if rep.Status != want {
			t.Errorf("after ratio edit, stage %s = %s, want %s", name, rep.Status, want)
		}
	}
	if res.Misses != 2 {
		t.Errorf("after ratio edit: %d misses, want 2 (table5, report)", res.Misses)
	}
	if crawl := res.Stages["crawl"]; crawl.Runs != 0 {
		t.Errorf("crawl ran %d times to feed table5; its stored artifact should have been opened instead", crawl.Runs)
	}
	if res.Opens == 0 {
		t.Error("expected table5 to open the cached crawl artifact")
	}
	if bytes.Equal(reportOf(t, res), []byte(mono)) {
		t.Error("report unchanged after table5 ratio edit")
	}

	// Restoring the original options must be a pure cache hit again.
	warm := labRun(t, dir, opts)
	if warm.Misses != 0 {
		t.Fatalf("restored options: %d misses, want 0", warm.Misses)
	}
	if !bytes.Equal(reportOf(t, warm), []byte(mono)) {
		t.Fatal("restored report differs from monolithic render")
	}

	// A seed change reaches the world generator, so every stage re-runs.
	reseeded := opts
	reseeded.Seed = opts.synthConfig().Seed + 1
	res = labRun(t, dir, reseeded)
	if res.Hits != 0 {
		t.Errorf("after seed change: %d hits, want 0 (everything downstream of the world)", res.Hits)
	}
	if bytes.Equal(reportOf(t, res), []byte(mono)) {
		t.Error("report unchanged after seed change")
	}
}
