// Package experiments regenerates every table and figure of the paper's
// evaluation from a synthetic world. Each experiment returns typed rows
// plus a Render() string shaped like the original table, and records the
// paper's headline claim next to the measured value so EXPERIMENTS.md can
// be produced mechanically. cmd/frappelab, perfbench and the
// repository-level benchmarks all drive this package.
package experiments

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"frappe/internal/core"
	"frappe/internal/datasets"
	"frappe/internal/stats"
	"frappe/internal/synth"
)

// DefaultScale is the experiment-harness world scale: 15% of the paper's
// 111K-app corpus, large enough for stable classifier statistics.
const DefaultScale = 0.15

// Runner owns one generated world and its assembled datasets, shared by
// every experiment.
type Runner struct {
	World *synth.World
	Data  *datasets.Datasets
	Seed  int64
}

// New generates a world at the given scale and assembles the datasets.
// A zero scale or seed keeps the default, as in PipelineOptions. The
// context cancels the dataset build (and with it the crawl).
func New(ctx context.Context, scale float64, seed int64) (*Runner, error) {
	cfg := PipelineOptions{Scale: scale, Seed: seed}.synthConfig()
	w := synth.Generate(cfg)
	b := &datasets.Builder{World: w}
	d, err := b.Build(ctx)
	if err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	return &Runner{World: w, Data: d, Seed: cfg.Seed}, nil
}

// records assembles core records for ids.
func (r *Runner) records(ids []string) []core.AppRecord {
	out := make([]core.AppRecord, 0, len(ids))
	for _, id := range ids {
		out = append(out, core.AppRecord{ID: id, Crawl: r.Data.Crawl[id], Stats: r.Data.Stats[id]})
	}
	return out
}

// completeSample returns D-Complete records and labels.
func (r *Runner) completeSample() ([]core.AppRecord, []bool) {
	ben, mal := r.Data.DComplete()
	records := append(r.records(ben), r.records(mal)...)
	labels := make([]bool, len(records))
	for i := len(ben); i < len(records); i++ {
		labels[i] = true
	}
	return records, labels
}

// appName resolves an app's display name from the platform registry (the
// paper read names from post metadata, so deleted apps keep theirs).
func (r *Runner) appName(id string) string {
	app, err := r.World.Platform.App(id)
	if err != nil {
		return "(unknown)"
	}
	return app.Name
}

// fracAtLeast is a tiny CDF helper.
func fracAtLeast(xs []float64, min float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return stats.NewCDF(xs).FractionAtLeast(min)
}

// fracEqualZero returns the fraction of xs equal to zero.
func fracEqualZero(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	n := 0
	for _, x := range xs {
		if x == 0 {
			n++
		}
	}
	return float64(n) / float64(len(xs))
}

// pct renders a fraction as a percentage string.
func pct(f float64) string { return fmt.Sprintf("%.1f%%", 100*f) }

// table is a minimal fixed-width text table renderer.
type table struct {
	header []string
	rows   [][]string
}

func (t *table) add(cells ...string) { t.rows = append(t.rows, cells) }

func (t *table) String() string {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range t.rows {
		writeRow(row)
	}
	return b.String()
}

// sortedCounts turns a histogram into (key,count) pairs, largest first.
func sortedCounts(m map[string]int) []struct {
	Key   string
	Count int
} {
	out := make([]struct {
		Key   string
		Count int
	}, 0, len(m))
	for k, v := range m {
		out = append(out, struct {
			Key   string
			Count int
		}{k, v})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Key < out[j].Key
	})
	return out
}
