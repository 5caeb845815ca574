package experiments

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"frappe/internal/core"
	"frappe/internal/datasets"
	"frappe/internal/wot"
)

// Table1Result reproduces the dataset-summary table.
type Table1Result struct {
	DTotal int
	Rows   []datasets.Table1Row
}

// Table1 assembles the dataset summary (paper Table 1).
func (r *Runner) Table1() Table1Result {
	return Table1Result{DTotal: len(r.Data.DTotal), Rows: r.Data.Table1()}
}

// Render formats the table like the paper.
func (t Table1Result) Render() string {
	tb := &table{header: []string{"Dataset", "Benign", "Malicious"}}
	for _, row := range t.Rows {
		if row.Name == "D-Total" {
			tb.add("D-Total", fmt.Sprintf("%d total", t.DTotal), "")
			continue
		}
		tb.add(row.Name, fmt.Sprint(row.Benign), fmt.Sprint(row.Malicious))
	}
	return "Table 1: dataset summary (paper: 111,167 total; 6,273/6,273 in D-Sample)\n" + tb.String()
}

// Table2Row is one top-malicious-app line.
type Table2Row struct {
	AppID string
	Name  string
	Posts int64
}

// Table2 lists the top-5 malicious apps by post volume (paper Table 2).
func (r *Runner) Table2() []Table2Row {
	top := r.World.TopAppsByTruePosts(r.Data.Malicious, 5)
	rows := make([]Table2Row, 0, len(top))
	for _, id := range top {
		rows = append(rows, Table2Row{AppID: id, Name: r.appName(id), Posts: r.World.TruePosts[id]})
	}
	return rows
}

// RenderTable2 formats Table 2.
func RenderTable2(rows []Table2Row) string {
	tb := &table{header: []string{"App ID", "App name", "Post count"}}
	for _, row := range rows {
		tb.add(row.AppID, row.Name, fmt.Sprint(row.Posts))
	}
	return "Table 2: top malicious apps by posts (paper: 'What Does Your Name Mean?' leads with 1,006)\n" + tb.String()
}

// Table3Row is one hosting-domain line.
type Table3Row struct {
	Domain string
	Apps   int
}

// Table3Result carries the rows plus the concentration statistic.
type Table3Result struct {
	Rows []Table3Row
	// Top5Share is the share of D-Inst malicious apps hosted on the top
	// five domains (83% in the paper).
	Top5Share float64
}

// Table3 ranks the domains hosting malicious redirect URIs (paper Table 3).
func (r *Runner) Table3() Table3Result {
	_, mal := r.Data.DInst()
	hist := map[string]int{}
	for _, id := range mal {
		res := r.Data.Crawl[id]
		if res == nil || res.InstallErr != nil {
			continue
		}
		if d := wot.DomainOf(res.Install.RedirectURI); d != "" {
			hist[d]++
		}
	}
	var out Table3Result
	covered := 0
	for i, kv := range sortedCounts(hist) {
		if i == 5 {
			break
		}
		out.Rows = append(out.Rows, Table3Row{Domain: kv.Key, Apps: kv.Count})
		covered += kv.Count
	}
	if len(mal) > 0 {
		out.Top5Share = float64(covered) / float64(len(mal))
	}
	return out
}

// Render formats Table 3.
func (t Table3Result) Render() string {
	tb := &table{header: []string{"Domain hosting", "# of malicious apps"}}
	for _, row := range t.Rows {
		tb.add(row.Domain, fmt.Sprint(row.Apps))
	}
	return fmt.Sprintf("Table 3: top domains hosting malicious apps (top-5 share %s; paper: 83%%)\n%s",
		pct(t.Top5Share), tb.String())
}

// Table4 lists FRAppE Lite's features and sources; purely descriptive.
func Table4() string {
	tb := &table{header: []string{"Feature", "Source"}}
	sources := map[core.Feature]string{
		core.FeatCategory:        "graph.facebook.com/appID",
		core.FeatCompany:         "graph.facebook.com/appID",
		core.FeatDescription:     "graph.facebook.com/appID",
		core.FeatProfilePosts:    "graph.facebook.com/appID/feed",
		core.FeatPermissionCount: "facebook.com/apps/application.php?id=appID",
		core.FeatClientIDDiffers: "facebook.com/apps/application.php?id=appID",
		core.FeatWOTScore:        "install redirect URI + WOT",
	}
	for _, f := range core.LiteFeatures() {
		tb.add(f.String(), sources[f])
	}
	return "Table 4: FRAppE Lite features\n" + tb.String()
}

// RatioRow is one Table 5 line: cross-validation at a benign:malicious
// training ratio.
type RatioRow struct {
	Ratio   int
	Metrics core.Metrics
}

// Table5 runs FRAppE Lite 5-fold cross-validation at ratios 1:1, 4:1, 7:1
// and 10:1 (paper Table 5).
func (r *Runner) Table5() ([]RatioRow, error) {
	return r.Table5With([]int{1, 4, 7, 10})
}

// Table5With runs the Table 5 cross-validation at the given training
// ratios (the DAG pipeline's invalidation tests narrow the sweep).
func (r *Runner) Table5With(ratios []int) ([]RatioRow, error) {
	records, labels := r.completeSample()
	var rows []RatioRow
	for _, ratio := range ratios {
		subR, subL, err := core.SampleRatio(records, labels, ratio, r.Seed+int64(ratio))
		if err != nil {
			return nil, fmt.Errorf("ratio %d: %w", ratio, err)
		}
		m, err := core.CrossValidate(subR, subL, 5, core.Options{Features: core.LiteFeatures(), Seed: r.Seed})
		if err != nil {
			return nil, fmt.Errorf("ratio %d: %w", ratio, err)
		}
		rows = append(rows, RatioRow{Ratio: ratio, Metrics: m})
	}
	return rows, nil
}

// RenderTable5 formats Table 5.
func RenderTable5(rows []RatioRow) string {
	tb := &table{header: []string{"Training Ratio", "Accuracy", "FP", "FN"}}
	for _, row := range rows {
		tb.add(fmt.Sprintf("%d:1", row.Ratio),
			pct(row.Metrics.Accuracy()), pct(row.Metrics.FPRate()), pct(row.Metrics.FNRate()))
	}
	return "Table 5: FRAppE Lite cross-validation (paper at 7:1: 99.0% / 0.1% / 4.4%)\n" + tb.String()
}

// FeatureRow is one Table 6 line: a classifier trained on a single feature.
type FeatureRow struct {
	Feature core.Feature
	Metrics core.Metrics
}

// Table6 measures each on-demand feature in isolation (paper Table 6).
func (r *Runner) Table6() ([]FeatureRow, error) {
	records, labels := r.completeSample()
	var rows []FeatureRow
	for _, f := range core.LiteFeatures() {
		m, err := core.CrossValidate(records, labels, 5, core.Options{Features: []core.Feature{f}, Seed: r.Seed})
		if err != nil {
			return nil, fmt.Errorf("feature %v: %w", f, err)
		}
		rows = append(rows, FeatureRow{Feature: f, Metrics: m})
	}
	return rows, nil
}

// RenderTable6 formats Table 6.
func RenderTable6(rows []FeatureRow) string {
	tb := &table{header: []string{"Feature", "Accuracy", "FP", "FN"}}
	for _, row := range rows {
		tb.add(row.Feature.String(),
			pct(row.Metrics.Accuracy()), pct(row.Metrics.FPRate()), pct(row.Metrics.FNRate()))
	}
	return "Table 6: single-feature classification (paper: description leads at 97.8%)\n" + tb.String()
}

// FRAppEResult compares FRAppE Lite with full FRAppE at the paper's 7:1
// operating point (§5.2's headline: 99.5% accuracy, zero FP, 4.1% FN).
type FRAppEResult struct {
	Lite core.Metrics
	Full core.Metrics
}

// FRAppE runs the headline comparison.
func (r *Runner) FRAppE() (FRAppEResult, error) {
	records, labels := r.completeSample()
	subR, subL, err := core.SampleRatio(records, labels, 7, r.Seed+7)
	if err != nil {
		return FRAppEResult{}, err
	}
	lite, err := core.CrossValidate(subR, subL, 5, core.Options{Features: core.LiteFeatures(), Seed: r.Seed})
	if err != nil {
		return FRAppEResult{}, err
	}
	full, err := core.CrossValidate(subR, subL, 5, core.Options{Features: core.FullFeatures(), Seed: r.Seed})
	if err != nil {
		return FRAppEResult{}, err
	}
	return FRAppEResult{Lite: lite, Full: full}, nil
}

// Render formats the §5.2 headline.
func (f FRAppEResult) Render() string {
	return fmt.Sprintf("FRAppE at 7:1 (paper: Lite 99.0%%/0.1%%/4.4%% -> Full 99.5%%/0%%/4.1%%)\n"+
		"  FRAppE Lite: %v\n  FRAppE:      %v\n", f.Lite, f.Full)
}

// Table8Result is the new-app detection sweep plus its validation.
type Table8Result struct {
	SweepApps     int // apps outside D-Sample that were classifiable
	Skipped       int // deleted/uncrawlable apps
	Flagged       int
	Report        core.ValidationReport
	TruePrecision float64 // against hidden ground truth (not in the paper)
}

// Table8 trains on all of D-Sample, sweeps the rest of D-Total, and runs
// the §5.3 validation pipeline over the newly flagged apps.
func (r *Runner) Table8(ctx context.Context) (Table8Result, error) {
	clf, err := r.TrainFull()
	if err != nil {
		return Table8Result{}, err
	}
	return r.Table8With(ctx, clf)
}

// TrainFull trains the full-feature FRAppE model on every crawlable
// D-Sample app — the §5.3 sweep's classifier. The DAG pipeline runs it as
// its own "train" stage. Records enter training in app-ID order: SMO's
// result depends on row order, so ranging over the label map would make
// the model, and Table 8 with it, vary from run to run.
func (r *Runner) TrainFull() (*core.Classifier, error) {
	d := r.Data
	labels := d.Labels()
	ids := make([]string, 0, len(labels))
	for id := range labels {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	var trainR []core.AppRecord
	var trainL []bool
	for _, id := range ids {
		rec := core.AppRecord{ID: id, Crawl: d.Crawl[id], Stats: d.Stats[id]}
		if rec.Crawl == nil || rec.Crawl.SummaryErr != nil {
			continue
		}
		trainR = append(trainR, rec)
		trainL = append(trainL, labels[id] == datasets.LabelMalicious)
	}
	return core.Train(trainR, trainL, core.Options{Features: core.FullFeatures(), Seed: r.Seed})
}

// Table8With runs the §5.3 sweep and validation with a pre-trained full
// model. The initial clock advance is a no-op on a world that already
// crawled, but positions a freshly materialized world whose datasets were
// rehydrated from a cached artifact.
func (r *Runner) Table8With(ctx context.Context, clf *core.Classifier) (Table8Result, error) {
	d := r.Data
	r.World.AdvanceTo(r.World.Config.CrawlMonth)
	labels := d.Labels()
	inSample := make(map[string]bool, len(labels))
	for id := range labels {
		inSample[id] = true
	}
	var sweepIDs []string
	for _, id := range d.DTotal {
		if !inSample[id] {
			sweepIDs = append(sweepIDs, id)
		}
	}
	b := &datasets.Builder{World: r.World}
	crawl, err := b.CrawlAll(ctx, sweepIDs)
	if err != nil {
		return Table8Result{}, err
	}
	var records []core.AppRecord
	for _, id := range sweepIDs {
		records = append(records, core.AppRecord{ID: id, Crawl: crawl[id], Stats: d.Stats[id]})
	}
	verdicts, skipped, err := clf.ClassifyAll(records)
	if err != nil {
		return Table8Result{}, err
	}
	var flagged []core.AppRecord
	trueHits := 0
	byID := make(map[string]core.AppRecord, len(records))
	for _, rec := range records {
		byID[rec.ID] = rec
	}
	for _, v := range verdicts {
		if !v.Malicious {
			continue
		}
		flagged = append(flagged, byID[v.AppID])
		if r.World.IsMalicious(v.AppID) {
			trueHits++
		}
	}

	// Validation happens months later (October 2012).
	r.World.AdvanceTo(r.World.Config.ValidationMonth)
	known := r.records(d.Malicious)
	counts := core.KnownNameCounts(known)
	// Deleted D-Sample apps keep their names via the platform registry.
	for _, id := range d.Malicious {
		if rec := d.Crawl[id]; rec == nil || rec.SummaryErr != nil {
			counts[canonical(r.appName(id))]++
		}
	}
	cfg := core.ValidationConfig{
		DeletedNow: func(id string) bool {
			_, err := r.World.Platform.Lookup(id)
			return err != nil
		},
		KnownNameCounts:     counts,
		KnownMaliciousLinks: core.KnownLinks(known),
		PopularNames:        popularNames(r),
	}
	rep := core.ValidateFlagged(flagged, cfg)
	res := Table8Result{
		SweepApps: len(verdicts),
		Skipped:   len(skipped),
		Flagged:   len(flagged),
		Report:    rep,
	}
	if len(flagged) > 0 {
		res.TruePrecision = float64(trueHits) / float64(len(flagged))
	}
	return res, nil
}

func popularNames(r *Runner) []string {
	var names []string
	for _, id := range r.World.PopularIDs {
		names = append(names, r.appName(id))
	}
	return names
}

// canonical mirrors core's internal name canonicalisation for the
// deleted-app name top-up (lower-case, collapsed whitespace, version
// suffix stripped — StripVersion is idempotent on plain names).
func canonical(name string) string {
	return strings.ToLower(strings.Join(strings.Fields(name), " "))
}

// Render formats Table 8.
func (t Table8Result) Render() string {
	tb := &table{header: []string{"Criteria", "# validated", "Cumulative"}}
	order := []core.ValidationTechnique{
		core.ValDeleted, core.ValNameSimilarity, core.ValPostSimilarity,
		core.ValTyposquat, core.ValManual,
	}
	cum := 0
	for _, tech := range order {
		cum += t.Report.Cumulative[tech]
		tb.add(tech.String(), fmt.Sprint(t.Report.ByTechnique[tech]), fmt.Sprint(cum))
	}
	tb.add("total validated", fmt.Sprint(t.Report.Validated),
		pct(float64(t.Report.Validated)/float64(max(1, t.Report.Total))))
	tb.add("unknown", fmt.Sprint(t.Report.Unknown), "")
	return fmt.Sprintf("Table 8: validation of %d newly flagged apps (sweep over %d classifiable, %d skipped; paper: 8,144 flagged, 98.5%% validated)\n%sTrue precision vs hidden ground truth: %s\n",
		t.Flagged, t.SweepApps, t.Skipped, tb.String(), pct(t.TruePrecision))
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
