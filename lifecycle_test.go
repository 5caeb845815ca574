package frappe

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"frappe/internal/modelreg"
	"frappe/internal/svm"
)

// End-to-end model lifecycle: train → publish → validate → hot-swap →
// rollback. The acceptance story: concurrent /check traffic across a
// v1→v2 publish completes with zero dropped or failed requests, a
// metrics-regressing candidate is refused promotion, and rollback to a
// prior version restores its exact verdicts.

// trainLifecycle fits a Lite classifier on a deterministic slice of the
// shared world's labeled sample.
func trainLifecycle(t *testing.T, seed int64, drop int) *Classifier {
	t.Helper()
	_, d := sharedWorld(t)
	records, labels := LabeledSample(d)
	if drop > 0 && drop < len(records) {
		records, labels = records[:len(records)-drop], labels[:len(labels)-drop]
	}
	clf, err := Train(records, labels, Options{Features: LiteFeatures(), Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return clf
}

// TestFileModelIDStableAcrossReplicas: two watchdogs loaded from one flat
// model file must stamp the same model_version. A flat file's ModelID is
// the checksum of the classifier's re-serialised bytes, so this holds only
// while Save is byte-stable.
func TestFileModelIDStableAcrossReplicas(t *testing.T) {
	var file bytes.Buffer
	if err := trainLifecycle(t, 3, 0).Save(&file); err != nil {
		t.Fatal(err)
	}
	var ids []string
	for i := 0; i < 2; i++ {
		wd, err := NewWatchdogFrom(bytes.NewReader(file.Bytes()), "http://127.0.0.1:9", "http://127.0.0.1:9")
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, wd.ServingManifest().ModelID())
	}
	if ids[0] != ids[1] {
		t.Fatalf("replicas loaded from one file report model IDs %s and %s", ids[0], ids[1])
	}
}

// TestRegistryRoundTripVerdictParity: a classifier loaded back out of the
// registry yields byte-identical verdicts to the in-memory one, for both
// Lite and Full feature modes — the Classifier-layer extension of the svm
// gob round-trip test, through the content-addressed store.
func TestRegistryRoundTripVerdictParity(t *testing.T) {
	_, d := sharedWorld(t)
	records, labels := LabeledSample(d)
	for _, tc := range []struct {
		mode     string
		features []Feature
	}{
		{"lite", LiteFeatures()},
		{"full", FullFeatures()},
	} {
		t.Run(tc.mode, func(t *testing.T) {
			reg, err := OpenModelRegistry(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			clf, err := Train(records, labels, Options{Features: tc.features, Seed: 7})
			if err != nil {
				t.Fatal(err)
			}
			m, err := PublishClassifier(reg, clf, ModelManifest{
				TrainingFingerprint: TrainingFingerprint(records, labels),
				TrainedRecords:      len(records),
			})
			if err != nil {
				t.Fatal(err)
			}
			if m.FeatureMode != tc.mode {
				t.Errorf("manifest feature mode = %q, want %q", m.FeatureMode, tc.mode)
			}
			loaded, lm, err := LoadClassifier(reg, 0)
			if err != nil {
				t.Fatal(err)
			}
			if lm.ModelID() != m.ModelID() {
				t.Errorf("loaded manifest %s, published %s", lm.ModelID(), m.ModelID())
			}
			for _, r := range records {
				v1, err1 := clf.Classify(r)
				v2, err2 := loaded.Classify(r)
				if err1 != nil || err2 != nil {
					t.Fatal(err1, err2)
				}
				if v1.Malicious != v2.Malicious || v1.Score != v2.Score {
					t.Fatalf("%s: registry round trip diverged on %s: %+v vs %+v",
						tc.mode, r.ID, v1, v2)
				}
			}
		})
	}
}

// lifecycleServer wires a registry-backed watchdog + reloader over the
// shared world's services and returns the pieces the tests drive.
func lifecycleServer(t *testing.T, reg *ModelRegistry) (*httptest.Server, *Watchdog) {
	t.Helper()
	w, d := sharedWorld(t)
	st, err := StartServices(w)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(st.Close)
	wd, err := NewWatchdogFromRegistry(reg, WatchdogConfig{
		GraphURL:   st.GraphURL,
		WOTURL:     st.WOTURL,
		VerdictTTL: time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	records, _ := LabeledSample(d)
	probe := records
	if len(probe) > 8 {
		probe = probe[:8]
	}
	rel := NewReloader(wd, reg, ReloadConfig{Probe: probe})
	srv := httptest.NewServer(WatchdogHandlerWith(wd, 15*time.Second, rel))
	t.Cleanup(srv.Close)
	return srv, wd
}

func getAssessment(t *testing.T, url string) (int, Assessment) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var a Assessment
	if err := json.NewDecoder(resp.Body).Decode(&a); err != nil {
		t.Fatalf("decoding %s: %v", url, err)
	}
	return resp.StatusCode, a
}

func postReload(t *testing.T, srv *httptest.Server) ReloadStatus {
	t.Helper()
	resp, err := http.Post(srv.URL+"/model/reload", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st ReloadStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestHotSwapUnderLoad: hammer /check from many goroutines while v2 is
// published and hot-swapped in. Every single request must complete as a
// verdict (200, or 404 for a deleted app) — zero drops, zero failures —
// and requests issued after the swap must report v2's model version.
func TestHotSwapUnderLoad(t *testing.T) {
	reg, err := OpenModelRegistry(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	v1 := trainLifecycle(t, 2, 4)
	m1, err := PublishClassifier(reg, v1, ModelManifest{Notes: "v1"})
	if err != nil {
		t.Fatal(err)
	}
	srv, wd := lifecycleServer(t, reg)
	ids := liveApps(t, 3)
	if len(ids) == 0 {
		t.Skip("world has no live apps")
	}
	if got := wd.ServingManifest().ModelID(); got != m1.ModelID() {
		t.Fatalf("serving %s before swap, want %s", got, m1.ModelID())
	}

	var (
		stop     atomic.Bool
		requests atomic.Int64
		failures atomic.Int64
	)
	const workers = 8
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				id := ids[(g+i)%len(ids)]
				resp, err := http.Get(srv.URL + "/check?app=" + id)
				if err != nil {
					failures.Add(1)
					t.Errorf("worker %d: request error: %v", g, err)
					continue
				}
				var a Assessment
				decErr := json.NewDecoder(resp.Body).Decode(&a)
				resp.Body.Close()
				requests.Add(1)
				switch {
				case decErr != nil:
					failures.Add(1)
					t.Errorf("worker %d: undecodable response: %v", g, decErr)
				case resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusNotFound:
					failures.Add(1)
					t.Errorf("worker %d: status %d (assessment %+v)", g, resp.StatusCode, a)
				case a.ModelVersion == "":
					failures.Add(1)
					t.Errorf("worker %d: verdict missing model version: %+v", g, a)
				}
			}
		}(g)
	}

	// Let the load build, then publish v2 and swap it in mid-flight.
	time.Sleep(50 * time.Millisecond)
	v2 := trainLifecycle(t, 3, 0)
	m2, err := PublishClassifier(reg, v2, ModelManifest{Notes: "v2"})
	if err != nil {
		t.Fatal(err)
	}
	if m2.ModelID() == m1.ModelID() {
		t.Fatal("v2 content-identical to v1; the swap would be a no-op")
	}
	st := postReload(t, srv)
	if st.Outcome != ReloadSwapped {
		t.Fatalf("reload outcome = %q (%s), want swapped", st.Outcome, st.Error)
	}
	if st.Serving.ModelID() != m2.ModelID() {
		t.Fatalf("reload serving %s, want %s", st.Serving.ModelID(), m2.ModelID())
	}
	// Keep hammering across the swap boundary, then stop.
	time.Sleep(50 * time.Millisecond)
	stop.Store(true)
	wg.Wait()

	if n := requests.Load(); n < workers {
		t.Fatalf("only %d requests completed; load generator broken", n)
	}
	if n := failures.Load(); n != 0 {
		t.Fatalf("%d of %d requests failed across the hot swap", n, requests.Load())
	}

	// Post-swap requests answer with v2's version, for every app.
	for _, id := range ids {
		status, a := getAssessment(t, srv.URL+"/check?app="+id)
		if status != http.StatusOK && status != http.StatusNotFound {
			t.Fatalf("post-swap check status = %d", status)
		}
		if a.ModelVersion != m2.ModelID() {
			t.Errorf("post-swap verdict for %s stamped %q, want %q", id, a.ModelVersion, m2.ModelID())
		}
	}
	// /model reports the new manifest.
	resp, err := http.Get(srv.URL + "/model")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var model struct {
		ModelID  string        `json:"model_id"`
		Manifest ModelManifest `json:"manifest"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&model); err != nil {
		t.Fatal(err)
	}
	if model.ModelID != m2.ModelID() || model.Manifest.Notes != "v2" {
		t.Errorf("/model = %+v, want %s", model, m2.ModelID())
	}
	t.Logf("hot swap absorbed %d concurrent requests, 0 failures (%s -> %s)",
		requests.Load(), m1.ModelID(), m2.ModelID())
}

// TestPromotionGateRefusesRegressingCandidate: a retraining round whose
// candidate shadow-evaluates worse than the incumbent on the shared
// holdout publishes nothing; the registry keeps serving the incumbent.
func TestPromotionGateRefusesRegressingCandidate(t *testing.T) {
	_, d := sharedWorld(t)
	records, labels := LabeledSample(d)
	reg, err := OpenModelRegistry(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}

	snapshot := func(context.Context) ([]AppRecord, []bool, error) {
		return records, labels, nil
	}
	healthy, err := NewRetrainer(reg, RetrainConfig{
		Snapshot: snapshot,
		Options:  Options{Features: LiteFeatures(), Seed: 2},
		CVFolds:  -1, // CV metrics are irrelevant here; keep the test fast
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := healthy.RunOnce(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != RetrainPublished {
		t.Fatalf("first round outcome = %q (%s), want published", res.Outcome, res.Reason)
	}
	incumbent := res.Manifest

	// An unchanged snapshot is recognised and skipped outright.
	res, err = healthy.RunOnce(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != RetrainUnchanged {
		t.Fatalf("unchanged-corpus round outcome = %q, want unchanged", res.Outcome)
	}

	// A crippled candidate: same pipeline, but an SVM that cannot fit
	// (vanishing C ⇒ near-constant decision function). Its holdout
	// accuracy collapses versus the incumbent, so the gate must refuse it.
	// Dropping one record changes the fingerprint so training actually runs.
	weak := svm.DefaultParams(len(LiteFeatures()))
	weak.C = 1e-9
	crippled, err := NewRetrainer(reg, RetrainConfig{
		Snapshot: func(context.Context) ([]AppRecord, []bool, error) {
			return records[:len(records)-1], labels[:len(labels)-1], nil
		},
		Options: Options{Features: LiteFeatures(), Seed: 2, SVM: &weak},
		CVFolds: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err = crippled.RunOnce(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != RetrainRefused {
		t.Fatalf("crippled-candidate outcome = %q (reason %q), want refused", res.Outcome, res.Reason)
	}
	if res.Incumbent == nil {
		t.Fatal("refusal carries no incumbent metrics")
	}
	if res.Candidate.Accuracy >= res.Incumbent.Accuracy {
		t.Errorf("candidate accuracy %.4f not below incumbent %.4f; refusal reason suspect",
			res.Candidate.Accuracy, res.Incumbent.Accuracy)
	}
	// The registry still serves the incumbent.
	m, err := reg.Latest()
	if err != nil {
		t.Fatal(err)
	}
	if m.ModelID() != incumbent.ModelID() {
		t.Errorf("registry serves %s after refusal, want incumbent %s", m.ModelID(), incumbent.ModelID())
	}
}

// TestRollbackRestoresExactVerdicts: publish v1, record its served
// verdicts, swap to v2, roll back to v1 — the same requests must return
// v1's exact scores and model version again.
func TestRollbackRestoresExactVerdicts(t *testing.T) {
	reg, err := OpenModelRegistry(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	v1 := trainLifecycle(t, 2, 4)
	m1, err := PublishClassifier(reg, v1, ModelManifest{Notes: "v1"})
	if err != nil {
		t.Fatal(err)
	}
	srv, _ := lifecycleServer(t, reg)
	ids := liveApps(t, 3)
	if len(ids) == 0 {
		t.Skip("world has no live apps")
	}

	baseline := make(map[string]Assessment, len(ids))
	for _, id := range ids {
		_, a := getAssessment(t, srv.URL+"/check?app="+id)
		if a.ModelVersion != m1.ModelID() {
			t.Fatalf("baseline verdict stamped %q, want %q", a.ModelVersion, m1.ModelID())
		}
		baseline[id] = a
	}

	v2 := trainLifecycle(t, 3, 0)
	m2, err := PublishClassifier(reg, v2, ModelManifest{Notes: "v2"})
	if err != nil {
		t.Fatal(err)
	}
	if st := postReload(t, srv); st.Outcome != ReloadSwapped {
		t.Fatalf("swap to v2: %q (%s)", st.Outcome, st.Error)
	}
	for _, id := range ids {
		_, a := getAssessment(t, srv.URL+"/check?app="+id)
		if a.ModelVersion != m2.ModelID() {
			t.Fatalf("v2 verdict stamped %q, want %q", a.ModelVersion, m2.ModelID())
		}
	}

	// Roll back: re-point CURRENT at v1 and reload. Content addressing
	// guarantees the identical bytes, so the verdicts must be exact.
	if err := reg.SetCurrent(m1.Version); err != nil {
		t.Fatal(err)
	}
	st := postReload(t, srv)
	if st.Outcome != ReloadSwapped {
		t.Fatalf("rollback reload: %q (%s)", st.Outcome, st.Error)
	}
	if st.Serving.ModelID() != m1.ModelID() {
		t.Fatalf("rollback serving %s, want %s", st.Serving.ModelID(), m1.ModelID())
	}
	for _, id := range ids {
		_, a := getAssessment(t, srv.URL+"/check?app="+id)
		want := baseline[id]
		if a.ModelVersion != m1.ModelID() {
			t.Errorf("rolled-back verdict for %s stamped %q, want %q", id, a.ModelVersion, m1.ModelID())
		}
		if a.Malicious != want.Malicious || a.Score != want.Score || a.Deleted != want.Deleted {
			t.Errorf("rollback verdict for %s diverged: %+v, want %+v", id, a, want)
		}
	}
}

// TestReloaderRejectsCorruptAndInvalidCandidates: checksum mismatches and
// probe failures keep the serving model in place.
func TestReloaderRejectsCorruptAndInvalidCandidates(t *testing.T) {
	dir := t.TempDir()
	reg, err := OpenModelRegistry(dir)
	if err != nil {
		t.Fatal(err)
	}
	v1 := trainLifecycle(t, 2, 4)
	m1, err := PublishClassifier(reg, v1, ModelManifest{Notes: "v1"})
	if err != nil {
		t.Fatal(err)
	}
	srv, wd := lifecycleServer(t, reg)

	// A "model" that is valid gob for nothing: published bytes that do not
	// decode into a classifier.
	if _, err := reg.Publish(strings.NewReader(`{"not":"a model"}`), modelreg.Manifest{Notes: "garbage"}); err != nil {
		t.Fatal(err)
	}
	st := postReload(t, srv)
	if st.Outcome != ReloadUndecodable {
		t.Fatalf("garbage candidate outcome = %q (%s), want undecodable", st.Outcome, st.Error)
	}
	if got := wd.ServingManifest().ModelID(); got != m1.ModelID() {
		t.Fatalf("serving %s after rejected reload, want %s", got, m1.ModelID())
	}
	// The HTTP layer surfaces the refusal as a gateway error.
	resp, err := http.Post(srv.URL+"/model/reload", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadGateway {
		t.Errorf("refused reload status = %d, want 502", resp.StatusCode)
	}
}
