package main

import (
	"bytes"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"

	"frappe"
)

// testScale keeps every workload's world small enough for a unit test.
const testScale = 0.01

type contractLine struct {
	Correct   bool                 `json:"correct"`
	Attempted uint64               `json:"attempted"`
	Failed    uint64               `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// TestTinyRunsEmitEveryMetric runs every workload at a tiny size, untraced
// and traced, and checks the result line carries exactly the declared
// metrics with their units, and nothing else.
func TestTinyRunsEmitEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for name, workload := range workloads {
		t.Run(name, func(t *testing.T) {
			for _, trace := range []bool{false, true} {
				cfg := tinyConfig(t, name)
				cfg.trace = trace
				rec, line, err := execute(cfg, workload)
				if err != nil {
					t.Fatal(err)
				}
				var last contractLine
				dec := json.NewDecoder(bytes.NewReader(line))
				dec.DisallowUnknownFields()
				if err := dec.Decode(&last); err != nil {
					t.Fatalf("result line %s: %v", line, err)
				}
				if !last.Correct || last.Attempted == 0 || last.Failed != 0 {
					t.Fatalf("trace %v: correct=%v attempted=%d failed=%d problems=%v",
						trace, last.Correct, last.Attempted, last.Failed, rec.Problems)
				}
				want := endToEnd
				if trace {
					want = perLayer
				}
				if len(last.Metrics) != len(want) {
					t.Errorf("trace %v: %d metrics, want %d", trace, len(last.Metrics), len(want))
				}
				for _, d := range want {
					m, ok := last.Metrics[d.name]
					switch {
					case !ok:
						t.Errorf("trace %v: missing %s", trace, d.name)
					case m.Unit != d.unit:
						t.Errorf("trace %v: %s unit %q, want %q", trace, d.name, m.Unit, d.unit)
					case !trace && m.Value <= 0:
						t.Errorf("end-to-end %s = %v, want > 0", d.name, m.Value)
					}
				}
				if rec.Fingerprint.NumCPU == 0 || rec.Fingerprint.GoVersion == "" || rec.Fingerprint.WALFS == "" {
					t.Errorf("incomplete fingerprint %+v", rec.Fingerprint)
				}
			}
		})
	}
}

// TestCommandLine checks the command's output framing: the record line,
// then the result line last; and usage errors exit non-zero.
func TestCommandLine(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"--workload", "nonesuch", "--seed", "1", "--seconds", "1", "--trace", "0"}, &stdout, &stderr); code == 0 || stdout.Len() != 0 {
		t.Fatalf("unknown workload: exit %d, stdout %q", code, stdout.String())
	}
	if testing.Short() {
		t.Skip("runs the ingest workload")
	}
	stdout.Reset()
	args := []string{"--workload", "ingest", "--seed", "1", "--seconds", "1", "--trace", "0", "--workdir", t.TempDir()}
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d:\n%s", code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var rec record
	var last contractLine
	if len(lines) != 2 || json.Unmarshal([]byte(lines[0]), &rec) != nil || rec.Schema != schema ||
		json.Unmarshal([]byte(lines[1]), &last) != nil || !last.Correct {
		t.Fatalf("want a record line then a correct result line, got:\n%s", stdout.String())
	}
}

func tinyConfig(t *testing.T, workload string) runConfig {
	return runConfig{workload: workload, seed: 3, seconds: 1, scale: testScale, setupReps: 1, dir: t.TempDir()}
}

func TestWrongVerdictFailsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("starts a serving stack")
	}
	cfg := tinyConfig(t, "serve-hot")
	cfg.tamper = func(ref map[string]frappe.Assessment) {
		for id, a := range ref {
			a.Malicious = !a.Malicious
			ref[id] = a
			return
		}
	}
	rec, line, err := execute(cfg, workloads[cfg.workload])
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(line, []byte(`"correct":true`)) || len(rec.Problems) == 0 {
		t.Fatalf("a wrong reference verdict went unnoticed: %s", line)
	}
}

func TestWrongReportHashFailsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the report pipeline")
	}
	cfg := tinyConfig(t, "report")
	cfg.reportPins = map[string]string{pinKey(cfg.scale, cfg.seed): strings.Repeat("0", 64)}
	rec, line, err := execute(cfg, workloads[cfg.workload])
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(line, []byte(`"correct":true`)) || len(rec.Problems) == 0 {
		t.Fatalf("a wrong report hash went unnoticed: %s", line)
	}
}

func TestPercentileReportsSampleCount(t *testing.T) {
	s := make([]float64, 200)
	for i := range s {
		s[i] = float64(i + 1)
	}
	for _, c := range []struct {
		p    float64
		want float64
	}{{0.5, 100}, {0.99, 198}, {1, 200}, {0.001, 1}} {
		if q := percentile(s, c.p); q.Value != c.want || q.N != len(s) {
			t.Errorf("percentile(1..200, %v) = %+v, want value %v n %d", c.p, q, c.want, len(s))
		}
	}
	if q := percentile(nil, 0.5); q.N != 0 {
		t.Errorf("empty input reported %d samples", q.N)
	}
}

// TestSummaryMatchesPythonQuartiles pins summarize to the values Python's
// statistics.quantiles(data, n=4) gives, which is how the spread is judged.
func TestSummaryMatchesPythonQuartiles(t *testing.T) {
	for _, c := range []struct {
		data        []float64
		q1, med, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
	} {
		s := summarize(c.data)
		if s.Q1 != c.q1 || s.Median != c.med || s.Q3 != c.q3 || s.N != len(c.data) {
			t.Errorf("summarize(%v) = %+v, want q1 %v median %v q3 %v", c.data, s, c.q1, c.med, c.q3)
		}
	}
}

// TestBenchmarkJSONMatchesCode keeps BENCHMARK.json and the metric lists
// the code emits in step.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	var code []string
	for n := range workloads {
		code = append(code, n)
	}
	sort.Strings(names)
	sort.Strings(code)
	if strings.Join(names, ",") != strings.Join(code, ",") {
		t.Errorf("BENCHMARK.json workloads %v, code runs %v", names, code)
	}
	for _, c := range []struct {
		decl []struct{ Name, Unit string }
		code []metricDef
	}{{b.EndToEnd, endToEnd}, {b.PerLayer, perLayer}} {
		if len(c.decl) != len(c.code) {
			t.Errorf("BENCHMARK.json declares %d metrics, code emits %d", len(c.decl), len(c.code))
			continue
		}
		for i, d := range c.decl {
			if d.Name != c.code[i].name || d.Unit != c.code[i].unit {
				t.Errorf("metric %d: BENCHMARK.json %s (%s), code %s (%s)", i, d.Name, d.Unit, c.code[i].name, c.code[i].unit)
			}
		}
	}
}

func TestCompareRefusesOtherHost(t *testing.T) {
	a := record{Schema: schema, Workload: "ingest", Fingerprint: fingerprint{CPUModel: "A", NumCPU: 2}}
	b := a
	b.Fingerprint.CPUModel = "B"
	var out, errb bytes.Buffer
	if code := compareRecords([]record{a}, []record{b}, &out, &errb); code != 2 {
		t.Fatalf("cross-host compare exited %d, want 2 (refused)", code)
	}
	b.Fingerprint.Commit = "other"
	b.Fingerprint.CPUModel = "A"
	if code := compareRecords([]record{a}, []record{b}, &out, &errb); code != 0 {
		t.Fatalf("same-host compare of two commits exited %d: %s", code, errb.String())
	}
}
