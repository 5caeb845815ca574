package core

import (
	"bytes"
	"encoding/gob"
	"strings"
	"testing"

	"frappe/internal/svm"
)

// liteClassifier trains a Lite-feature classifier on the shared D-Complete
// set; Lite is the watchdog's serving configuration, so it is what the
// compiled-path tests exercise.
func liteClassifier(t testing.TB) (*Classifier, []AppRecord) {
	t.Helper()
	records, labels := completeSet(t)
	clf, err := Train(records, labels, Options{Features: LiteFeatures(), Seed: 5})
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	return clf, records
}

// TestCompiledSaveLoadRoundTrip proves a compiled artifact rides the gob
// payload: verdicts from the loaded classifier match the in-memory one
// bit-for-bit, and the compiled pin survives the trip.
func TestCompiledSaveLoadRoundTrip(t *testing.T) {
	for _, mode := range []svm.CompileMode{svm.CompileExact, svm.CompileRFF} {
		t.Run(mode.String(), func(t *testing.T) {
			clf, records := liteClassifier(t)
			if err := clf.CompileInference(svm.DefaultCompileOptions(mode)); err != nil {
				t.Fatalf("CompileInference: %v", err)
			}
			var buf bytes.Buffer
			if err := clf.Save(&buf); err != nil {
				t.Fatalf("Save: %v", err)
			}
			clf2, err := Load(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatalf("Load: %v", err)
			}
			if clf2.Compiled() == nil {
				t.Fatal("compiled artifact did not survive Save/Load")
			}
			if got, want := clf2.Compiled().String(), clf.Compiled().String(); got != want {
				t.Errorf("loaded compiled artifact = %s, want %s", got, want)
			}
			for _, r := range records {
				v1, err1 := clf.Classify(r)
				v2, err2 := clf2.Classify(r)
				if err1 != nil || err2 != nil {
					t.Fatal(err1, err2)
				}
				if v1.Malicious != v2.Malicious || v1.Score != v2.Score {
					t.Fatalf("round-tripped compiled classifier diverged on %s: %+v vs %+v",
						r.ID, v1, v2)
				}
			}
		})
	}
}

// TestLoadRejectsCorruptCompiled covers the registry-payload trust
// boundary: a gob whose compiled artifact is internally inconsistent, or
// whose dimension disagrees with the feature set, must be refused rather
// than decoded into a classifier that silently degrades.
func TestLoadRejectsCorruptCompiled(t *testing.T) {
	clf, _ := liteClassifier(t)
	if err := clf.CompileInference(svm.DefaultCompileOptions(svm.CompileRFF)); err != nil {
		t.Fatalf("CompileInference: %v", err)
	}

	encode := func(mutate func(p *persistedClassifier)) []byte {
		var buf bytes.Buffer
		if err := clf.Save(&buf); err != nil {
			t.Fatalf("Save: %v", err)
		}
		var p persistedClassifier
		if err := gob.NewDecoder(&buf).Decode(&p); err != nil {
			t.Fatalf("decode: %v", err)
		}
		mutate(&p)
		buf.Reset()
		if err := gob.NewEncoder(&buf).Encode(&p); err != nil {
			t.Fatalf("encode: %v", err)
		}
		return buf.Bytes()
	}

	for _, tc := range []struct {
		name   string
		mutate func(p *persistedClassifier)
		want   string
	}{
		{"truncated weights", func(p *persistedClassifier) {
			p.Compiled.W32 = p.Compiled.W32[:len(p.Compiled.W32)-1]
		}, "compiled artifact"},
		{"dimension mismatch", func(p *persistedClassifier) {
			p.Features = p.Features[:len(p.Features)-1]
		}, "does not match"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Load(bytes.NewReader(encode(tc.mutate)))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Load: err = %v, want mention of %q", err, tc.want)
			}
		})
	}

	// Sanity: the unmutated payload loads.
	if _, err := Load(bytes.NewReader(encode(func(*persistedClassifier) {}))); err != nil {
		t.Fatalf("unmutated payload should load: %v", err)
	}
}

// TestClassifyWarmZeroAlloc is the serving-path allocation gate: after one
// warming call populates the scratch pool, Classify must not allocate —
// with or without a compiled pin. CI runs this without -race.
func TestClassifyWarmZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is meaningless under the race detector")
	}
	clf, records := liteClassifier(t)
	probe := records[0]
	for _, tc := range []struct {
		name    string
		prepare func() error
	}{
		{"exact-model", func() error { clf.DropCompiled(); return nil }},
		{"compiled-exact", func() error {
			return clf.CompileInference(svm.DefaultCompileOptions(svm.CompileExact))
		}},
		{"compiled-rff", func() error {
			return clf.CompileInference(svm.DefaultCompileOptions(svm.CompileRFF))
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.prepare(); err != nil {
				t.Fatalf("prepare: %v", err)
			}
			if _, err := clf.Classify(probe); err != nil {
				t.Fatalf("warming Classify: %v", err)
			}
			allocs := testing.AllocsPerRun(1000, func() {
				if _, err := clf.Classify(probe); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Errorf("warm Classify allocates %.1f allocs/op, want 0", allocs)
			}
		})
	}
}

// BenchmarkClassifySingle measures the full single-verdict path — pooled
// extraction, in-place scaling, decision value — for each serving pin.
// ReportAllocs is load-bearing: CI's bench smoke fails the build if the
// warm path reports a nonzero allocs/op.
func BenchmarkClassifySingle(b *testing.B) {
	clf, records := liteClassifier(b)
	probe := records[0]
	for _, tc := range []struct {
		name    string
		prepare func() error
	}{
		{"Exact", func() error { clf.DropCompiled(); return nil }},
		{"CompiledRFF", func() error {
			return clf.CompileInference(svm.DefaultCompileOptions(svm.CompileRFF))
		}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			if err := tc.prepare(); err != nil {
				b.Fatalf("prepare: %v", err)
			}
			if _, err := clf.Classify(probe); err != nil {
				b.Fatalf("warming Classify: %v", err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := clf.Classify(probe); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
