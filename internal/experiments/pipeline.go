package experiments

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/gob"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"strings"

	"frappe/internal/core"
	"frappe/internal/crawler"
	"frappe/internal/datasets"
	"frappe/internal/graphapi"
	"frappe/internal/lab"
	"frappe/internal/mypagekeeper"
	"frappe/internal/synth"
)

// PipelineOptions parameterise the experiment DAG (and the monolithic
// section loop, which renders the exact same sections in the same order).
type PipelineOptions struct {
	// Scale is the world scale; 0 means DefaultScale.
	Scale float64
	// Seed overrides the paper-calibrated world seed; 0 keeps it.
	Seed int64
	// Quick skips the classifier experiments, like frappelab -quick.
	Quick bool
	// Table5Ratios overrides Table 5's training ratios (nil = the paper's
	// 1, 4, 7, 10). The invalidation tests use it to change exactly one
	// evaluation stage's config.
	Table5Ratios []int
}

func (o PipelineOptions) synthConfig() synth.Config {
	scale := o.Scale
	if scale == 0 {
		scale = DefaultScale
	}
	cfg := synth.Default(scale)
	if o.Seed != 0 {
		cfg.Seed = o.Seed
	}
	return cfg
}

func (o PipelineOptions) ratios() []int {
	if len(o.Table5Ratios) > 0 {
		return o.Table5Ratios
	}
	return []int{1, 4, 7, 10}
}

// Section is one rendered block of the evaluation report. Sections() lists
// them in the paper's print order; RenderReport (the reference the DAG is
// tested against) and the DAG pipeline both render through the same Render
// funcs, which is what makes their reports byte-identical by construction.
type Section struct {
	// Name is the DAG stage name.
	Name string
	// InQuick marks sections that survive -quick (the measurement and
	// forensics studies; the classifier experiments don't).
	InQuick bool
	// Render produces the section text, excluding the trailing blank line
	// the report inserts between sections.
	Render func(ctx context.Context, r *Runner) (string, error)

	// Dependency surface: which pipeline values the renderer reads.
	world bool // the generated world
	data  bool // the crawled datasets
	train bool // the trained §5.3 full model (Table 8)
}

// Sections returns the report sections in print order.
func Sections(opts PipelineOptions) []Section {
	plain := func(f func(r *Runner) string) func(context.Context, *Runner) (string, error) {
		return func(_ context.Context, r *Runner) (string, error) { return f(r), nil }
	}
	ratios := opts.ratios()
	return []Section{
		// Measurement study (§2-§4).
		{Name: "table1", InQuick: true, data: true, Render: plain(func(r *Runner) string { return r.Table1().Render() })},
		{Name: "table2", InQuick: true, world: true, data: true, Render: plain(func(r *Runner) string { return RenderTable2(r.Table2()) })},
		{Name: "table3", InQuick: true, data: true, Render: plain(func(r *Runner) string { return r.Table3().Render() })},
		{Name: "table4", InQuick: true, Render: plain(func(*Runner) string { return Table4() })},
		{Name: "prevalence", InQuick: true, world: true, data: true, Render: plain(func(r *Runner) string { return r.Prevalence().Render() })},
		{Name: "fig3", InQuick: true, world: true, data: true, Render: plain(func(r *Runner) string { return r.Fig3().Render() })},
		{Name: "fig4", InQuick: true, world: true, data: true, Render: plain(func(r *Runner) string {
			f := r.Fig4()
			return f.Median.Render() + f.Max.Render()
		})},
		{Name: "fig5", InQuick: true, data: true, Render: plain(func(r *Runner) string { return RenderFig5(r.Fig5()) })},
		{Name: "fig6", InQuick: true, data: true, Render: plain(func(r *Runner) string { return RenderFig6(r.Fig6()) })},
		{Name: "fig7", InQuick: true, data: true, Render: plain(func(r *Runner) string { return r.Fig7().Render() })},
		{Name: "fig8", InQuick: true, data: true, Render: plain(func(r *Runner) string { return r.Fig8().Render() })},
		{Name: "fig9", InQuick: true, data: true, Render: plain(func(r *Runner) string { return r.Fig9().Render() })},
		{Name: "fig10", InQuick: true, world: true, data: true, Render: plain(func(r *Runner) string { return RenderFig10(r.Fig10()) })},
		{Name: "fig11", InQuick: true, world: true, data: true, Render: plain(func(r *Runner) string { return r.Fig11().Render() })},
		{Name: "fig12", InQuick: true, data: true, Render: plain(func(r *Runner) string { return r.Fig12().Render() })},

		// Classification (§5).
		{Name: "table5", data: true, Render: func(_ context.Context, r *Runner) (string, error) {
			rows, err := r.Table5With(ratios)
			if err != nil {
				return "", err
			}
			return RenderTable5(rows), nil
		}},
		{Name: "table6", data: true, Render: func(_ context.Context, r *Runner) (string, error) {
			rows, err := r.Table6()
			if err != nil {
				return "", err
			}
			return RenderTable6(rows), nil
		}},
		{Name: "frappe", data: true, Render: func(_ context.Context, r *Runner) (string, error) {
			head, err := r.FRAppE()
			if err != nil {
				return "", err
			}
			return head.Render(), nil
		}},
		{Name: "table8", world: true, data: true, train: true, Render: func(ctx context.Context, r *Runner) (string, error) {
			res, err := r.Table8(ctx)
			if err != nil {
				return "", err
			}
			return res.Render(), nil
		}},
		{Name: "robust", data: true, Render: func(_ context.Context, r *Runner) (string, error) {
			res, err := r.Robust()
			if err != nil {
				return "", err
			}
			return res.Render(), nil
		}},
		{Name: "kernels", data: true, Render: func(_ context.Context, r *Runner) (string, error) {
			rows, err := r.AblationKernels()
			if err != nil {
				return "", err
			}
			return RenderKernels(rows), nil
		}},
		{Name: "noise", data: true, Render: func(_ context.Context, r *Runner) (string, error) {
			rows, err := r.AblationLabelNoise()
			if err != nil {
				return "", err
			}
			return RenderNoise(rows), nil
		}},
		{Name: "grid", data: true, Render: func(_ context.Context, r *Runner) (string, error) {
			res, err := r.AblationGridSearch()
			if err != nil {
				return "", err
			}
			return res.Render(), nil
		}},
		{Name: "learnedmpk", Render: func(_ context.Context, r *Runner) (string, error) {
			res, err := r.AblationLearnedMPK()
			if err != nil {
				return "", err
			}
			return res.Render(), nil
		}},
		{Name: "countermeasures", Render: plain(func(r *Runner) string { return r.Countermeasures().Render() })},

		// Ecosystem forensics (§6).
		{Name: "fig1", InQuick: true, world: true, data: true, Render: plain(func(r *Runner) string { return r.Fig1().Render() })},
		{Name: "indirection", InQuick: true, world: true, Render: plain(func(r *Runner) string { return r.Indirection().Render() })},
		{Name: "fig14", InQuick: true, world: true, data: true, Render: plain(func(r *Runner) string { return r.Fig14().Render() })},
		{Name: "fig15", InQuick: true, world: true, data: true, Render: plain(func(r *Runner) string { return r.Fig15().Render() })},
		{Name: "fig16", InQuick: true, data: true, Render: plain(func(r *Runner) string { return r.Fig16().Render() })},
		{Name: "table9", InQuick: true, world: true, data: true, Render: plain(func(r *Runner) string { return RenderTable9(r.Table9()) })},
	}
}

// activeSections filters Sections by the quick flag.
func activeSections(opts PipelineOptions) []Section {
	var out []Section
	for _, s := range Sections(opts) {
		if opts.Quick && !s.InQuick {
			continue
		}
		out = append(out, s)
	}
	return out
}

// RenderReport runs every active section against a fully built Runner —
// the monolithic path. The result is byte-identical to the DAG pipeline's
// "report" artifact.
func RenderReport(ctx context.Context, r *Runner, opts PipelineOptions) (string, error) {
	var b strings.Builder
	for _, sec := range activeSections(opts) {
		out, err := sec.Render(ctx, r)
		if err != nil {
			return "", fmt.Errorf("experiments: section %s: %w", sec.Name, err)
		}
		b.WriteString(out)
		b.WriteByte('\n')
	}
	return b.String(), nil
}

// labSeed is the world seed the pipeline runs at (the fingerprint surface
// of the seed-dependent stages).
type labSeed struct {
	Seed int64
}

// Pipeline assembles the experiment DAG:
//
//	generate → ingest → datasets → crawl → train → {sections} → report
//
// Measurement and forensics sections hang off crawl (plus generate for the
// ones reading the world directly); table8 additionally consumes the
// trained model; table4, learnedmpk and countermeasures are independent
// roots. The report stage concatenates every section artifact in print
// order, so a fully cached run rebuilds the report without computing
// anything.
func Pipeline(opts PipelineOptions) []lab.Stage {
	cfg := opts.synthConfig()
	// Worker counts never enter fingerprints: the generated world is
	// byte-identical at any ingestion width.
	fpCfg := cfg
	fpCfg.IngestWorkers = 0
	seed := cfg.Seed

	stages := []lab.Stage{
		{
			Name:   "generate",
			Config: fpCfg,
			Run: func(c *lab.StageContext) ([]byte, error) {
				w := synth.Generate(cfg)
				c.SetValue(w)
				return worldArtifact(fpCfg, w)
			},
			// No Open: a world is rebuilt only by re-running Generate.
		},
		{
			Name:   "ingest",
			Deps:   []string{"generate"},
			Config: labSeed{seed},
			Run: func(c *lab.StageContext) ([]byte, error) {
				v, err := c.Value("generate")
				if err != nil {
					return nil, err
				}
				stats := v.(*synth.World).Monitor.Apps()
				c.SetValue(stats)
				return encodeStats(stats)
			},
			Open: func(data []byte) (any, error) { return decodeStats(data) },
		},
		{
			Name:   "datasets",
			Deps:   []string{"ingest", "generate"},
			Config: labSeed{seed},
			Run: func(c *lab.StageContext) ([]byte, error) {
				v, err := c.Value("generate")
				if err != nil {
					return nil, err
				}
				b := &datasets.Builder{World: v.(*synth.World)}
				sel, err := b.Select(c.Context())
				if err != nil {
					return nil, err
				}
				c.SetValue(sel)
				return encodeSelection(sel)
			},
			Open: func(data []byte) (any, error) { return decodeSelection(data) },
		},
		{
			Name:   "crawl",
			Deps:   []string{"datasets", "generate"},
			Config: labSeed{seed},
			Run: func(c *lab.StageContext) ([]byte, error) {
				wv, err := c.Value("generate")
				if err != nil {
					return nil, err
				}
				sv, err := c.Value("datasets")
				if err != nil {
					return nil, err
				}
				b := &datasets.Builder{World: wv.(*synth.World)}
				d, err := b.CrawlSample(c.Context(), sv.(*datasets.Selection))
				if err != nil {
					return nil, err
				}
				c.SetValue(d)
				return encodeDatasets(d)
			},
			Open: func(data []byte) (any, error) { return decodeDatasets(data) },
		},
	}

	if !opts.Quick {
		stages = append(stages, lab.Stage{
			Name:   "train",
			Deps:   []string{"crawl"},
			Config: labSeed{seed},
			Run: func(c *lab.StageContext) ([]byte, error) {
				v, err := c.Value("crawl")
				if err != nil {
					return nil, err
				}
				r := &Runner{Data: v.(*datasets.Datasets), Seed: seed}
				clf, err := r.TrainFull()
				if err != nil {
					return nil, err
				}
				c.SetValue(clf)
				var buf bytes.Buffer
				if err := clf.Save(&buf); err != nil {
					return nil, err
				}
				return buf.Bytes(), nil
			},
			Open: func(data []byte) (any, error) { return core.Load(bytes.NewReader(data)) },
		})
	}

	sections := activeSections(opts)
	reportDeps := make([]string, 0, len(sections))
	for _, s := range sections {
		sec := s
		deps := []string{}
		if sec.data {
			deps = append(deps, "crawl")
		}
		if sec.world {
			deps = append(deps, "generate")
		}
		if sec.train {
			deps = append(deps, "train")
		}
		config := any(labSeed{seed})
		if sec.Name == "table5" {
			config = struct {
				Seed   int64
				Ratios []int
			}{seed, opts.ratios()}
		}
		stages = append(stages, lab.Stage{
			Name:   sec.Name,
			Deps:   deps,
			Config: config,
			Run: func(c *lab.StageContext) ([]byte, error) {
				r := &Runner{Seed: seed}
				if sec.world {
					v, err := c.Value("generate")
					if err != nil {
						return nil, err
					}
					r.World = v.(*synth.World)
				}
				if sec.data {
					v, err := c.Value("crawl")
					if err != nil {
						return nil, err
					}
					r.Data = v.(*datasets.Datasets)
				}
				var out string
				if sec.train {
					// Table 8 consumes the train stage's model instead of
					// training inline like the monolithic path; Table8 and
					// TrainFull+Table8With are the same computation.
					v, err := c.Value("train")
					if err != nil {
						return nil, err
					}
					res, err := r.Table8With(c.Context(), v.(*core.Classifier))
					if err != nil {
						return nil, err
					}
					out = res.Render()
				} else {
					var err error
					out, err = sec.Render(c.Context(), r)
					if err != nil {
						return nil, err
					}
				}
				return []byte(out), nil
			},
			Open: func(data []byte) (any, error) { return string(data), nil },
		})
		reportDeps = append(reportDeps, sec.Name)
	}

	stages = append(stages, lab.Stage{
		Name: "report",
		Deps: reportDeps,
		Config: struct {
			Sections []string
		}{reportDeps},
		Run: func(c *lab.StageContext) ([]byte, error) {
			var b bytes.Buffer
			for _, name := range reportDeps {
				art, err := c.Artifact(name)
				if err != nil {
					return nil, err
				}
				b.Write(art)
				b.WriteByte('\n')
			}
			return b.Bytes(), nil
		},
		Open: func(data []byte) (any, error) { return string(data), nil },
	})
	return stages
}

// Fig1DOTStage renders Fig. 1's snapshot component (the paper's hairball)
// as Graphviz DOT. It is not part of Pipeline: callers that want the
// drawing append it, so the report DAG is unchanged without it.
func Fig1DOTStage() lab.Stage {
	return lab.Stage{
		Name: "fig1dot",
		Deps: []string{"generate", "crawl"},
		Run: func(c *lab.StageContext) ([]byte, error) {
			w, err := c.Value("generate")
			if err != nil {
				return nil, err
			}
			d, err := c.Value("crawl")
			if err != nil {
				return nil, err
			}
			r := &Runner{World: w.(*synth.World), Data: d.(*datasets.Datasets)}
			var buf bytes.Buffer
			if err := r.WriteFig1DOT(&buf); err != nil {
				return nil, err
			}
			return buf.Bytes(), nil
		},
	}
}

// ---- artifact encodings ----
//
// Artifacts must be deterministic byte-for-byte: fingerprints hash them, so
// a nondeterministic encoding would never cache-hit. Gob encodes structs
// and slices deterministically but randomises map order, so every map
// crosses the boundary as a sorted entry slice. Crawl errors are sentinel
// values (deleted, not-crawlable), encoded as tags and decoded back to the
// canonical errors.

// worldArtifact summarises a generated world. It embeds the config digest:
// the world is the root of the DAG, and any config or seed change must
// invalidate every world-reading stage even when the summary counts happen
// to agree.
func worldArtifact(fpCfg synth.Config, w *synth.World) ([]byte, error) {
	cfgJSON, err := json.Marshal(fpCfg)
	if err != nil {
		return nil, err
	}
	sum := sha256.Sum256(cfgJSON)
	return json.Marshal(struct {
		ConfigSHA256 string `json:"config_sha256"`
		Apps         int    `json:"apps"`
		Users        int    `json:"users"`
		Posts        int64  `json:"posts"`
	}{hex.EncodeToString(sum[:]), w.Platform.NumApps(), w.Platform.Users(), w.TotalStreamPosts})
}

type statsEntry struct {
	ID    string
	Stats mypagekeeper.AppStats
}

func sortedStats(stats map[string]mypagekeeper.AppStats) []statsEntry {
	entries := make([]statsEntry, 0, len(stats))
	for id, s := range stats {
		entries = append(entries, statsEntry{ID: id, Stats: s})
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].ID < entries[j].ID })
	return entries
}

func statsMap(entries []statsEntry) map[string]mypagekeeper.AppStats {
	m := make(map[string]mypagekeeper.AppStats, len(entries))
	for _, e := range entries {
		m[e.ID] = e.Stats
	}
	return m
}

func encodeStats(stats map[string]mypagekeeper.AppStats) ([]byte, error) {
	return encodeGob(sortedStats(stats))
}

func decodeStats(data []byte) (map[string]mypagekeeper.AppStats, error) {
	var entries []statsEntry
	if err := decodeGob(data, &entries); err != nil {
		return nil, err
	}
	return statsMap(entries), nil
}

type selectionWire struct {
	DTotal      []string
	Flagged     []string
	Whitelisted []string
	Malicious   []string
	Benign      []string
	Stats       []statsEntry
}

func encodeSelection(sel *datasets.Selection) ([]byte, error) {
	return encodeGob(selectionWire{
		DTotal:      sel.DTotal,
		Flagged:     sel.Flagged,
		Whitelisted: sel.Whitelisted,
		Malicious:   sel.Malicious,
		Benign:      sel.Benign,
		Stats:       sortedStats(sel.Stats),
	})
}

func decodeSelection(data []byte) (*datasets.Selection, error) {
	var w selectionWire
	if err := decodeGob(data, &w); err != nil {
		return nil, err
	}
	return &datasets.Selection{
		DTotal:      w.DTotal,
		Flagged:     w.Flagged,
		Whitelisted: w.Whitelisted,
		Malicious:   w.Malicious,
		Benign:      w.Benign,
		Stats:       statsMap(w.Stats),
	}, nil
}

type crawlResultWire struct {
	Summary    *graphapi.Summary
	SummaryErr string
	Feed       []graphapi.FeedPost
	FeedErr    string
	Install    graphapi.InstallInfo
	InstallErr string
	WOTScore   int
}

type crawlEntry struct {
	ID     string
	Result crawlResultWire
}

type datasetsWire struct {
	Selection selectionWire
	Crawl     []crawlEntry
}

const (
	errTagDeleted      = "!deleted"
	errTagNotCrawlable = "!not_crawlable"
	errTagOther        = "!other:"
)

func encodeCrawlErr(err error) string {
	switch {
	case err == nil:
		return ""
	case errors.Is(err, graphapi.ErrDeleted):
		return errTagDeleted
	case errors.Is(err, crawler.ErrNotCrawlable):
		return errTagNotCrawlable
	default:
		return errTagOther + err.Error()
	}
}

func decodeCrawlErr(tag string) error {
	switch {
	case tag == "":
		return nil
	case tag == errTagDeleted:
		return graphapi.ErrDeleted
	case tag == errTagNotCrawlable:
		return crawler.ErrNotCrawlable
	default:
		return errors.New(strings.TrimPrefix(tag, errTagOther))
	}
}

func encodeDatasets(d *datasets.Datasets) ([]byte, error) {
	wire := datasetsWire{
		Selection: selectionWire{
			DTotal:      d.DTotal,
			Flagged:     d.Flagged,
			Whitelisted: d.Whitelisted,
			Malicious:   d.Malicious,
			Benign:      d.Benign,
			Stats:       sortedStats(d.Stats),
		},
	}
	ids := make([]string, 0, len(d.Crawl))
	for id := range d.Crawl {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		r := d.Crawl[id]
		wire.Crawl = append(wire.Crawl, crawlEntry{ID: id, Result: crawlResultWire{
			Summary:    r.Summary,
			SummaryErr: encodeCrawlErr(r.SummaryErr),
			Feed:       r.Feed,
			FeedErr:    encodeCrawlErr(r.FeedErr),
			Install:    r.Install,
			InstallErr: encodeCrawlErr(r.InstallErr),
			WOTScore:   r.WOTScore,
		}})
	}
	return encodeGob(wire)
}

func decodeDatasets(data []byte) (*datasets.Datasets, error) {
	var wire datasetsWire
	if err := decodeGob(data, &wire); err != nil {
		return nil, err
	}
	d := &datasets.Datasets{
		DTotal:      wire.Selection.DTotal,
		Flagged:     wire.Selection.Flagged,
		Whitelisted: wire.Selection.Whitelisted,
		Malicious:   wire.Selection.Malicious,
		Benign:      wire.Selection.Benign,
		Stats:       statsMap(wire.Selection.Stats),
		Crawl:       make(map[string]*crawler.Result, len(wire.Crawl)),
	}
	for _, e := range wire.Crawl {
		d.Crawl[e.ID] = &crawler.Result{
			AppID:      e.ID,
			Summary:    e.Result.Summary,
			SummaryErr: decodeCrawlErr(e.Result.SummaryErr),
			Feed:       e.Result.Feed,
			FeedErr:    decodeCrawlErr(e.Result.FeedErr),
			Install:    e.Result.Install,
			InstallErr: decodeCrawlErr(e.Result.InstallErr),
			WOTScore:   e.Result.WOTScore,
		}
	}
	return d, nil
}

func encodeGob(v any) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return nil, fmt.Errorf("experiments: encoding artifact: %w", err)
	}
	return buf.Bytes(), nil
}

func decodeGob(data []byte, v any) error {
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(v); err != nil {
		return fmt.Errorf("experiments: decoding artifact: %w", err)
	}
	return nil
}
