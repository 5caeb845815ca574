package core

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"sync"
	"testing"

	"frappe/internal/crawler"
	"frappe/internal/datasets"
	"frappe/internal/graphapi"
	"frappe/internal/mypagekeeper"
	"frappe/internal/svm"
	"frappe/internal/synth"
)

// Shared medium-scale world: big enough for meaningful cross-validation.
var (
	once  sync.Once
	world *synth.World
	data  *datasets.Datasets
)

func sharedData(t testing.TB) (*synth.World, *datasets.Datasets) {
	t.Helper()
	once.Do(func() {
		cfg := synth.Default(0.08)
		cfg.MaxMaterializedPostsPerApp = 80
		world = synth.Generate(cfg)
		b := &datasets.Builder{World: world}
		var err error
		data, err = b.Build(context.Background())
		if err != nil {
			t.Fatalf("Build: %v", err)
		}
	})
	if data == nil {
		t.Fatal("shared dataset unavailable")
	}
	return world, data
}

// recordsFor assembles AppRecords for the given IDs.
func recordsFor(d *datasets.Datasets, ids []string) []AppRecord {
	out := make([]AppRecord, 0, len(ids))
	for _, id := range ids {
		out = append(out, AppRecord{ID: id, Crawl: d.Crawl[id], Stats: d.Stats[id]})
	}
	return out
}

// completeSet returns D-Complete records and labels.
func completeSet(t testing.TB) ([]AppRecord, []bool) {
	t.Helper()
	_, d := sharedData(t)
	ben, mal := d.DComplete()
	records := append(recordsFor(d, ben), recordsFor(d, mal)...)
	labels := make([]bool, len(records))
	for i := len(ben); i < len(records); i++ {
		labels[i] = true
	}
	if len(mal) < 20 || len(ben) < 40 {
		t.Fatalf("D-Complete too small for CV: %d benign, %d malicious", len(ben), len(mal))
	}
	return records, labels
}

func TestFeatureSets(t *testing.T) {
	if len(LiteFeatures()) != 7 {
		t.Errorf("Lite features = %d, want 7 (Table 4)", len(LiteFeatures()))
	}
	if len(FullFeatures()) != 9 {
		t.Errorf("Full features = %d, want 9 (Table 4 + Table 7)", len(FullFeatures()))
	}
	if len(RobustFeatures()) != 3 {
		t.Errorf("Robust features = %d, want 3 (§7)", len(RobustFeatures()))
	}
	for f := Feature(0); f < numFeatures; f++ {
		if f.String() == "" {
			t.Errorf("feature %d has no name", f)
		}
	}
}

func TestVectorExtraction(t *testing.T) {
	r := AppRecord{
		ID: "1",
		Crawl: &crawler.Result{
			AppID:   "1",
			Summary: &graphapi.Summary{ID: "1", Name: "The App"},
			Install: graphapi.InstallInfo{
				AppID:       "1",
				ClientID:    "2",
				Permissions: []string{"publish_stream"},
			},
			WOTScore: -1,
		},
		Stats: mypagekeeper.AppStats{Posts: 10, ExternalLinks: 9},
	}
	ext := Extractor{Features: FullFeatures(), MaliciousNameCounts: map[string]int{"the app": 1}}
	v, err := ext.Vector(r)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{0, 0, 0, 0, 1, 1, -1, 1, 0.9}
	if len(v) != len(want) {
		t.Fatalf("len = %d", len(v))
	}
	for i := range want {
		if v[i] != want[i] {
			t.Errorf("v[%d] (%s) = %v, want %v", i, FullFeatures()[i], v[i], want[i])
		}
	}
}

func TestVectorUnclassifiable(t *testing.T) {
	ext := Extractor{Features: LiteFeatures()}
	if _, err := ext.Vector(AppRecord{ID: "x"}); !errors.Is(err, ErrNotClassifiable) {
		t.Errorf("nil crawl err = %v", err)
	}
	if _, err := ext.Vector(AppRecord{ID: "x", Crawl: &crawler.Result{SummaryErr: graphapi.ErrDeleted}}); !errors.Is(err, ErrNotClassifiable) {
		t.Errorf("deleted err = %v", err)
	}
}

func TestVectorImputation(t *testing.T) {
	// Install/feed crawl failures are marked missing and filled from the
	// fitted imputation values.
	broken := AppRecord{
		ID: "1",
		Crawl: &crawler.Result{
			Summary:    &graphapi.Summary{Name: "App", Description: "d"},
			FeedErr:    crawler.ErrNotCrawlable,
			InstallErr: crawler.ErrNotCrawlable,
		},
	}
	ok := AppRecord{
		ID: "2",
		Crawl: &crawler.Result{
			Summary: &graphapi.Summary{Name: "Other"},
			Feed:    []graphapi.FeedPost{{Message: "hello"}},
			Install: graphapi.InstallInfo{
				AppID: "2", ClientID: "2",
				Permissions: []string{"publish_stream", "email", "email2", "email3"},
			},
			WOTScore: 80,
		},
	}
	ext := Extractor{Features: LiteFeatures()}
	_, missing, err := ext.VectorMask(broken)
	if err != nil {
		t.Fatal(err)
	}
	// posts-in-profile, permission-count, client-id, wot must be missing.
	if !missing[3] || !missing[4] || !missing[5] || !missing[6] {
		t.Errorf("missing mask wrong: %v", missing)
	}
	if missing[0] || missing[2] {
		t.Errorf("summary features should never be missing: %v", missing)
	}
	if err := ext.FitImputation([]AppRecord{ok}); err != nil {
		t.Fatal(err)
	}
	v, err := ext.Vector(broken)
	if err != nil {
		t.Fatal(err)
	}
	// Imputed from the single observable record: posts=1, perms=4, wot=80.
	if v[3] != 1 || v[4] != 4 || v[6] != 80 {
		t.Errorf("imputed values wrong: %v", v)
	}
}

func TestTrainValidation(t *testing.T) {
	if _, err := Train(nil, nil, Options{}); err == nil {
		t.Error("empty training: want error")
	}
	if _, err := Train(make([]AppRecord, 2), make([]bool, 3), Options{}); err == nil {
		t.Error("length mismatch: want error")
	}
}

func TestCrossValidateFullFRAppE(t *testing.T) {
	records, labels := completeSet(t)
	m, err := CrossValidate(records, labels, 5, Options{Features: FullFeatures(), Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("full FRAppE: %v", m)
	if m.Accuracy() < 0.95 {
		t.Errorf("accuracy = %.3f, want >= 0.95 (paper: 0.995)", m.Accuracy())
	}
	if m.FPRate() > 0.02 {
		t.Errorf("FP rate = %.3f, want <= 0.02 (paper: 0)", m.FPRate())
	}
	if m.FNRate() > 0.20 {
		t.Errorf("FN rate = %.3f, want <= 0.20 (paper: 0.041)", m.FNRate())
	}
}

func TestLiteVsFullOrdering(t *testing.T) {
	records, labels := completeSet(t)
	lite, err := CrossValidate(records, labels, 5, Options{Features: LiteFeatures(), Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	full, err := CrossValidate(records, labels, 5, Options{Features: FullFeatures(), Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("lite: %v / full: %v", lite, full)
	// The paper: aggregation features can only help (99.0% -> 99.5%).
	if full.Accuracy()+0.01 < lite.Accuracy() {
		t.Errorf("full (%.3f) should not be clearly worse than lite (%.3f)",
			full.Accuracy(), lite.Accuracy())
	}
	if lite.Accuracy() < 0.93 {
		t.Errorf("lite accuracy = %.3f, want >= 0.93 (paper: 0.99)", lite.Accuracy())
	}
}

func TestSingleFeatureDescription(t *testing.T) {
	records, labels := completeSet(t)
	m, err := CrossValidate(records, labels, 5, Options{Features: []Feature{FeatDescription}, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("description-only: %v", m)
	// Table 6: description alone reaches 97.8%.
	if m.Accuracy() < 0.90 {
		t.Errorf("description-only accuracy = %.3f, want >= 0.90", m.Accuracy())
	}
}

func TestRobustFeatures(t *testing.T) {
	records, labels := completeSet(t)
	m, err := CrossValidate(records, labels, 5, Options{Features: RobustFeatures(), Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("robust-only: %v", m)
	// §7: the robust subset alone still yields 98.2%.
	if m.Accuracy() < 0.90 {
		t.Errorf("robust accuracy = %.3f, want >= 0.90", m.Accuracy())
	}
}

func TestSampleRatio(t *testing.T) {
	records, labels := completeSet(t)
	r, l, err := SampleRatio(records, labels, 3, 42)
	if err != nil {
		t.Fatal(err)
	}
	var mal int
	for _, x := range l {
		if x {
			mal++
		}
	}
	ben := len(l) - mal
	if ben != 3*mal {
		t.Errorf("ratio broken: %d benign vs %d malicious", ben, mal)
	}
	if len(r) != len(l) {
		t.Error("record/label mismatch")
	}
	if _, _, err := SampleRatio(records, labels, 0, 1); err == nil {
		t.Error("ratio 0: want error")
	}
	// Determinism.
	r2, _, err := SampleRatio(records, labels, 3, 42)
	if err != nil {
		t.Fatal(err)
	}
	for i := range r {
		if r[i].ID != r2[i].ID {
			t.Fatal("SampleRatio not deterministic")
		}
	}
}

func TestCrossValidateErrors(t *testing.T) {
	records, labels := completeSet(t)
	if _, err := CrossValidate(records, labels, 1, Options{}); err == nil {
		t.Error("k=1: want error")
	}
	if _, err := CrossValidate(records[:3], labels[:2], 5, Options{}); err == nil {
		t.Error("mismatch: want error")
	}
	if _, err := CrossValidate(records[:3], labels[:3], 5, Options{}); err == nil {
		t.Error("too few records: want error")
	}
}

func TestNewAppSweep(t *testing.T) {
	w, d := sharedData(t)
	// Train on all of D-Sample (with full features), then sweep the rest
	// of D-Total, like §5.3.
	labels := d.Labels()
	var trainR []AppRecord
	var trainL []bool
	for id, l := range labels {
		r := AppRecord{ID: id, Crawl: d.Crawl[id], Stats: d.Stats[id]}
		if r.Crawl == nil || r.Crawl.SummaryErr != nil {
			continue
		}
		trainR = append(trainR, r)
		trainL = append(trainL, l == datasets.LabelMalicious)
	}
	clf, err := Train(trainR, trainL, Options{Features: FullFeatures(), Seed: 3})
	if err != nil {
		t.Fatal(err)
	}

	inSample := make(map[string]bool, len(labels))
	for id := range labels {
		inSample[id] = true
	}
	b := &datasets.Builder{World: w}
	var sweepIDs []string
	for _, id := range d.DTotal {
		if !inSample[id] {
			sweepIDs = append(sweepIDs, id)
		}
	}
	sweep, err := b.CrawlAll(context.Background(), sweepIDs)
	if err != nil {
		t.Fatal(err)
	}
	var records []AppRecord
	for _, id := range sweepIDs {
		records = append(records, AppRecord{ID: id, Crawl: sweep[id], Stats: d.Stats[id]})
	}
	verdicts, skipped, err := clf.ClassifyAll(records)
	if err != nil {
		t.Fatal(err)
	}
	if len(skipped) == 0 {
		t.Error("expected deleted apps to be skipped in the sweep")
	}
	var flagged, trueHits int
	for _, v := range verdicts {
		if v.Malicious {
			flagged++
			if w.IsMalicious(v.AppID) {
				trueHits++
			}
		}
	}
	if flagged == 0 {
		t.Fatal("sweep flagged nothing; the paper found 8,144 new malicious apps")
	}
	precision := float64(trueHits) / float64(flagged)
	t.Logf("sweep: %d classified, %d flagged, precision %.3f", len(verdicts), flagged, precision)
	if precision < 0.90 {
		t.Errorf("sweep precision = %.3f, want >= 0.90 (paper validates 98.5%%)", precision)
	}
}

func TestValidationPipeline(t *testing.T) {
	w, d := sharedData(t)
	// Known malicious: D-Sample malicious records.
	known := recordsFor(d, d.Malicious)
	cfg := ValidationConfig{
		DeletedNow: func(id string) bool {
			m := w.DeleteMonthOf(id)
			return m > 0 && m <= w.Config.ValidationMonth
		},
		KnownNameCounts:     KnownNameCounts(known),
		KnownMaliciousLinks: KnownLinks(known),
		PopularNames:        []string{"FarmVille", "CityVille", "Zoo World"},
	}
	// Validate the hidden malicious apps not in D-Sample (a stand-in for
	// FRAppE's newly flagged apps, with perfect precision).
	inSample := map[string]bool{}
	for _, id := range d.Malicious {
		inSample[id] = true
	}
	var flagged []AppRecord
	for _, id := range w.MaliciousIDs {
		if inSample[id] {
			continue
		}
		r := AppRecord{ID: id, Stats: d.Stats[id]}
		if cr, ok := d.Crawl[id]; ok {
			r.Crawl = cr
		}
		// Name comes from the world for apps we never crawled (the paper
		// had classification-time crawls for these).
		if r.Crawl == nil {
			app, err := w.Platform.App(id)
			if err != nil {
				t.Fatal(err)
			}
			r.Crawl = &crawler.Result{Summary: &graphapi.Summary{ID: id, Name: app.Name}}
		}
		flagged = append(flagged, r)
	}
	rep := ValidateFlagged(flagged, cfg)
	if rep.Total != len(flagged) {
		t.Fatalf("total = %d", rep.Total)
	}
	validatedFrac := float64(rep.Validated) / float64(rep.Total)
	t.Logf("validated %.3f; by technique: deleted=%d name=%d post=%d typo=%d manual=%d unknown=%d",
		validatedFrac, rep.ByTechnique[ValDeleted], rep.ByTechnique[ValNameSimilarity],
		rep.ByTechnique[ValPostSimilarity], rep.ByTechnique[ValTyposquat],
		rep.ByTechnique[ValManual], rep.Unknown)
	if validatedFrac < 0.90 {
		t.Errorf("validated fraction = %.3f, want >= 0.90 (paper: 0.985)", validatedFrac)
	}
	// Deleted-from-graph should be the dominant technique (81% in Table 8).
	if rep.ByTechnique[ValDeleted] < rep.Total/2 {
		t.Errorf("deleted technique validates %d of %d, want majority",
			rep.ByTechnique[ValDeleted], rep.Total)
	}
	// Consistency: cumulative sums to validated.
	sum := 0
	for _, n := range rep.Cumulative {
		sum += n
	}
	if sum != rep.Validated {
		t.Errorf("cumulative sums to %d, validated = %d", sum, rep.Validated)
	}
}

// TestClassifierSaveLoad extends the svm gob round-trip guarantee up to
// the Classifier layer: for both feature modes, a loaded-from-bytes
// classifier must yield byte-identical verdicts — decision and exact
// decision value — to the in-memory one, on every record. This is what
// makes registry rollback exact: the model bytes ARE the behaviour.
func TestClassifierSaveLoad(t *testing.T) {
	records, labels := completeSet(t)
	for _, tc := range []struct {
		mode     string
		features []Feature
	}{
		{"lite", LiteFeatures()},
		{"full", FullFeatures()},
	} {
		t.Run(tc.mode, func(t *testing.T) {
			clf, err := Train(records, labels, Options{Features: tc.features, Seed: 5})
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := clf.Save(&buf); err != nil {
				t.Fatal(err)
			}
			// Save is byte-stable: a second Save, and a Save of the loaded
			// classifier, reproduce the bytes exactly, so a file's checksum
			// identifies the model.
			var again bytes.Buffer
			if err := clf.Save(&again); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf.Bytes(), again.Bytes()) {
				t.Fatalf("%s: two Saves of one classifier differ", tc.mode)
			}
			clf2, err := Load(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			again.Reset()
			if err := clf2.Save(&again); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf.Bytes(), again.Bytes()) {
				t.Fatalf("%s: Save of the loaded classifier differs from the bytes it was loaded from", tc.mode)
			}
			for _, r := range records {
				v1, err1 := clf.Classify(r)
				v2, err2 := clf2.Classify(r)
				if err1 != nil || err2 != nil {
					t.Fatal(err1, err2)
				}
				if v1.Malicious != v2.Malicious || v1.Score != v2.Score {
					t.Fatalf("%s: round-tripped classifier diverged on %s: in-memory %+v, loaded %+v",
						tc.mode, r.ID, v1, v2)
				}
			}
		})
	}
	if _, err := Load(bytes.NewReader([]byte("junk"))); err == nil {
		t.Error("Load(junk): want error")
	}
}

// TestLoadRejectsMapFormPayload: payloads written before the extractor's
// maps became sorted entry slices carry the same field names with map
// types. They must fail to decode, never decode into empty maps — a
// classifier without its known-malicious names would silently misjudge.
func TestLoadRejectsMapFormPayload(t *testing.T) {
	records, labels := completeSet(t)
	clf, err := Train(records, labels, Options{Features: FullFeatures(), Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(clf.extractor.MaliciousNameCounts) == 0 {
		t.Fatal("trained classifier has no malicious names; the test would prove nothing")
	}
	legacy := struct {
		Features            []Feature
		MaliciousNameCounts map[string]int
		ContributedIDs      map[string]bool
		Imputed             map[Feature]float64
		Scaler              *svm.Scaler
		Model               *svm.Model
	}{clf.extractor.Features, clf.extractor.MaliciousNameCounts, clf.extractor.ContributedIDs,
		clf.extractor.Imputed, clf.scaler, clf.model}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&legacy); err != nil {
		t.Fatal(err)
	}
	if got, err := Load(&buf); err == nil {
		t.Fatalf("Load(map-form payload) = %d malicious names, want a decode error",
			len(got.extractor.MaliciousNameCounts))
	}
}

func TestFeatureSetName(t *testing.T) {
	for _, tc := range []struct {
		want string
		fs   []Feature
	}{
		{"lite", LiteFeatures()},
		{"full", FullFeatures()},
		{"robust", RobustFeatures()},
		{"custom", []Feature{FeatWOTScore}},
		{"custom", nil},
	} {
		if got := FeatureSetName(tc.fs); got != tc.want {
			t.Errorf("FeatureSetName(%v) = %q, want %q", tc.fs, got, tc.want)
		}
	}
}

func TestMetricsMath(t *testing.T) {
	m := Metrics{TP: 90, TN: 95, FP: 5, FN: 10}
	if got := m.Accuracy(); got != 185.0/200 {
		t.Errorf("accuracy = %v", got)
	}
	if got := m.FPRate(); got != 0.05 {
		t.Errorf("FP rate = %v", got)
	}
	if got := m.FNRate(); got != 0.10 {
		t.Errorf("FN rate = %v", got)
	}
	var zero Metrics
	if zero.Accuracy() != 0 || zero.FPRate() != 0 || zero.FNRate() != 0 {
		t.Error("zero metrics should not divide by zero")
	}
	if m.String() == "" {
		t.Error("empty String")
	}
}

func TestValidationTechniqueNames(t *testing.T) {
	for v := ValidationTechnique(0); v < numTechniques; v++ {
		if v.String() == "" {
			t.Errorf("technique %d unnamed", v)
		}
	}
}
