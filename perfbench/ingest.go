package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"frappe/internal/bitly"
	"frappe/internal/mypagekeeper"
	"frappe/internal/synth"
	"frappe/internal/telemetry"
	"frappe/internal/wal"
	"frappe/internal/wot"
)

// The ingest workload feeds a seeded world's recorded event stream through
// the durable ingest path (one producer → Monitor.StartIngestWith at the
// default width over a fresh wal.Log → Close) and then replays the log
// that pass wrote into a fresh monitor. One operation is a chunk of
// chunkEvents consecutive events carried both ways; its latency is the
// producer's hand-off time for the chunk (WAL appends and queue
// backpressure included).
const chunkEvents = 256

// minPasses is the fewest passes of each kind a run makes, so a median
// never rests on one pass.
const minPasses = 3

// ingestState is what set-up builds: the recorded stream, decoded, and the
// serial-monitor oracle's snapshot digest.
type ingestState struct {
	events   []mypagekeeper.WALEvent
	payloads [][]byte
	users    int
	bitly    *bitly.Service
	oracle   string
	flagged  int
	props    map[string]any
	// generate is the synth.Generate share of set-up.
	generate time.Duration
}

// newMonitor returns a monitor configured as synth configures the world's:
// default thresholds, every user subscribed, bit.ly links resolved.
func (st *ingestState) newMonitor() *mypagekeeper.Monitor {
	m := mypagekeeper.New(mypagekeeper.DefaultClassifierConfig())
	m.SubscribeRange(0, st.users)
	b := st.bitly
	m.SetResolver(func(link string) (string, bool) {
		if !b.IsShort(link) {
			return "", false
		}
		long, err := b.Expand(link)
		if err != nil {
			return "", false
		}
		return long, true
	})
	return m
}

func setupIngest(cfg runConfig, dir string) (*ingestState, error) {
	wcfg := synth.Default(cfg.scale)
	wcfg.Seed = worldSeed(cfg.scale, cfg.seed)
	wcfg.WALDir = dir
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	genStart := time.Now()
	w := synth.Generate(wcfg)
	generate := time.Since(genStart)
	log, err := wal.Open(dir, wal.Options{})
	if err != nil {
		return nil, fmt.Errorf("opening captured stream: %w", err)
	}
	defer log.Close()
	r, err := log.Reader(0)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	st := &ingestState{users: wcfg.NumUsers(), bitly: w.Bitly, generate: generate}
	for {
		payload, _, err := r.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("reading captured stream: %w", err)
		}
		p := append([]byte(nil), payload...)
		ev, err := mypagekeeper.DecodeEvent(p)
		if err != nil {
			return nil, fmt.Errorf("decoding captured stream: %w", err)
		}
		st.payloads = append(st.payloads, p)
		st.events = append(st.events, ev)
	}
	if len(st.events) == 0 {
		return nil, fmt.Errorf("captured stream is empty")
	}
	m := st.newMonitor()
	st.flagged = observeSerial(m, st.events)
	if st.oracle, err = snapshotDigest(m); err != nil {
		return nil, err
	}
	st.props = streamProperties(st.events)
	return st, nil
}

// observeSerial applies the stream to m one event at a time, as the serial
// monitor would, and returns how many posts it flagged.
func observeSerial(m *mypagekeeper.Monitor, events []mypagekeeper.WALEvent) int {
	flagged := 0
	for _, ev := range events {
		switch ev.Kind {
		case mypagekeeper.KindPost:
			if m.Observe(ev.Post) {
				flagged++
			}
		case mypagekeeper.KindBlacklistURL:
			m.AddBlacklistedURL(ev.Value)
		case mypagekeeper.KindBlacklistDomain:
			m.AddBlacklistedDomain(ev.Value)
		}
	}
	return flagged
}

// streamProperties records the input properties an ingest optimization
// would cite: how many posts carry a link, and how many of those links
// were already seen earlier in the stream.
func streamProperties(events []mypagekeeper.WALEvent) map[string]any {
	var posts, links, reused, blacklists int
	seen := make(map[string]struct{})
	for _, ev := range events {
		switch ev.Kind {
		case mypagekeeper.KindPost:
			posts++
			if l := ev.Post.Link; l != "" {
				links++
				if _, ok := seen[l]; ok {
					reused++
				}
				seen[l] = struct{}{}
			}
		case mypagekeeper.KindBlacklistURL, mypagekeeper.KindBlacklistDomain:
			blacklists++
		}
	}
	return map[string]any{
		"events":          len(events),
		"posts":           posts,
		"blacklist_adds":  blacklists,
		"link_share":      share(links, posts),
		"url_reuse_share": share(reused, links),
		"distinct_urls":   len(seen),
		"chunk_events":    chunkEvents,
	}
}

func share(num, den int) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// snapshotDigest hashes the monitor's observable state: every app's
// aggregate and the stream-level counters.
func snapshotDigest(m *mypagekeeper.Monitor) (string, error) {
	b, err := json.Marshal(struct {
		Apps  map[string]mypagekeeper.AppStats
		Stats mypagekeeper.Stats
	}{m.Apps(), m.Stats()})
	if err != nil {
		return "", fmt.Errorf("encoding monitor snapshot: %w", err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// ingestTimers accumulate the traced pass's time inside Ingester calls.
type ingestTimers struct {
	enqueue, barrier time.Duration
}

// feed hands one event to the ingester; with t non-nil the call is timed.
func feed(ing *mypagekeeper.Ingester, ev mypagekeeper.WALEvent, t *ingestTimers) {
	var start time.Time
	if t != nil {
		start = time.Now()
	}
	barrier := false
	switch ev.Kind {
	case mypagekeeper.KindPost:
		ing.Observe(ev.Post)
	case mypagekeeper.KindBlacklistURL:
		ing.AddBlacklistedURL(ev.Value)
		barrier = true
	case mypagekeeper.KindBlacklistDomain:
		ing.AddBlacklistedDomain(ev.Value)
		barrier = true
	case mypagekeeper.KindInstall:
		ing.ObserveInstall(ev.AppID, ev.UserID)
	case mypagekeeper.KindRemoval:
		ing.ObserveRemoval(ev.AppID, ev.UserID)
	}
	if t == nil {
		return
	}
	if barrier {
		t.barrier += time.Since(start)
	} else {
		t.enqueue += time.Since(start)
	}
}

// ingestPass is one timed durable-ingest pass plus the replay of the log
// it wrote, followed by the (untimed) output oracles.
type ingestPass struct {
	ingest, replay time.Duration
	chunks         []time.Duration
	walErrors      uint64
	problems       []string
}

func runIngestPass(st *ingestState, dir string, t *ingestTimers) (ingestPass, error) {
	var p ingestPass
	if err := os.RemoveAll(dir); err != nil {
		return p, err
	}
	log, err := wal.Open(dir, wal.Options{})
	if err != nil {
		return p, fmt.Errorf("opening pass WAL: %w", err)
	}
	defer log.Close()
	reg := telemetry.Default()
	walErrs0 := reg.CounterValue("frappe_monitor_ingest_wal_errors_total")
	m := st.newMonitor()
	p.chunks = make([]time.Duration, 0, len(st.events)/chunkEvents)

	start := time.Now()
	ing := m.StartIngestWith(mypagekeeper.IngestConfig{WAL: log})
	mark := start
	for i, ev := range st.events {
		feed(ing, ev, t)
		if (i+1)%chunkEvents == 0 {
			now := time.Now()
			p.chunks = append(p.chunks, now.Sub(mark))
			mark = now
		}
	}
	closeStart := time.Now()
	closeErr := ing.Close()
	if t != nil {
		t.barrier += time.Since(closeStart)
	}
	p.ingest = time.Since(start)

	replica := st.newMonitor()
	replayStart := time.Now()
	rs, replayErr := mypagekeeper.Replay(replica, log, 0, nil)
	p.replay = time.Since(replayStart)

	p.walErrors = reg.CounterValue("frappe_monitor_ingest_wal_errors_total") - walErrs0
	if closeErr != nil && p.walErrors == 0 {
		// A session error no append or sync reported (a broken resume
		// contract) still fails the pass.
		p.walErrors = 1
	}
	if replayErr != nil {
		p.problems = append(p.problems, fmt.Sprintf("replay: %v", replayErr))
	}
	if n := uint64(len(st.events)); log.End() != n || rs.Records != n {
		p.problems = append(p.problems, fmt.Sprintf(
			"WAL holds %d records and replay applied %d, want %d events", log.End(), rs.Records, n))
	}
	for _, c := range []struct {
		name string
		m    *mypagekeeper.Monitor
	}{{"ingester", m}, {"replay", replica}} {
		d, err := snapshotDigest(c.m)
		if err != nil {
			return p, err
		}
		if d != st.oracle {
			p.problems = append(p.problems, fmt.Sprintf(
				"%s snapshot %s differs from the serial oracle %s", c.name, d[:12], st.oracle[:12]))
		}
	}
	return p, nil
}

func runIngest(cfg runConfig) (*result, error) {
	res := newResult()
	var st *ingestState
	for i := 0; i < cfg.setupReps; i++ {
		start := time.Now()
		s, err := setupIngest(cfg, filepath.Join(cfg.dir, "capture"))
		if err != nil {
			return nil, fmt.Errorf("ingest set-up: %w", err)
		}
		res.add("setup_s", "s", time.Since(start).Seconds())
		st = s
	}
	res.props = st.props
	res.props["scale"] = cfg.scale
	res.props["world_seed"] = worldSeed(cfg.scale, cfg.seed)

	passDir := filepath.Join(cfg.dir, "pass")
	n := float64(len(st.events))
	reg := telemetry.Default()
	// A traced run alternates untraced passes with passes that time every
	// Ingester call, so both kinds see the same host conditions; the
	// end-to-end series and latencies come from untraced passes only.
	var (
		chunks                    []time.Duration
		plain, traced             []float64
		timers                    ingestTimers
		posts, barriers, walBytes uint64
	)
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	for len(plain) < minPasses || (cfg.trace && len(traced) < minPasses) || time.Now().Before(deadline) {
		var t *ingestTimers
		if cfg.trace && len(traced) < len(plain) {
			t = &timers
		}
		posts0 := reg.CounterValue("frappe_monitor_ingest_posts_total")
		barriers0 := reg.CounterValue("frappe_monitor_ingest_blacklist_barriers_total")
		bytes0 := reg.CounterValue("frappe_wal_appended_bytes_total")
		p, err := runIngestPass(st, passDir, t)
		if err != nil {
			return nil, err
		}
		res.attempted += uint64(len(st.events))
		res.failed += p.walErrors
		res.problems = append(res.problems, p.problems...)
		rate := n / chunkEvents / (p.ingest + p.replay).Seconds()
		if t != nil {
			traced = append(traced, rate)
			posts += reg.CounterValue("frappe_monitor_ingest_posts_total") - posts0
			barriers += reg.CounterValue("frappe_monitor_ingest_blacklist_barriers_total") - barriers0
			walBytes += reg.CounterValue("frappe_wal_appended_bytes_total") - bytes0
			continue
		}
		plain = append(plain, rate)
		chunks = append(chunks, p.chunks...)
		res.add("ops_per_s", "1/s", rate)
		res.add("ingest_events_per_s", "1/s", n/p.ingest.Seconds())
		res.add("replay_events_per_s", "1/s", n/p.replay.Seconds())
	}
	lat := sortedMillis(chunks)
	p50, p99 := percentile(lat, 0.50), percentile(lat, 0.99)
	res.add("op_p50_ms", "ms", p50.Value)
	res.add("op_p99_ms", "ms", p99.Value)
	res.props["latency_samples"] = p50.N
	if !cfg.trace {
		return res, nil
	}

	k := float64(len(traced))
	res.layer("trace.overhead_share", overhead(plain, traced))
	res.layer("mypagekeeper.enqueue_s", timers.enqueue.Seconds()/k)
	res.layer("mypagekeeper.barrier_s", timers.barrier.Seconds()/k)
	res.layer("mypagekeeper.posts", float64(posts)/k)
	res.layer("mypagekeeper.blacklist_barriers", float64(barriers)/k)
	res.layer("wal.bytes", float64(walBytes)/k)
	res.layer("mypagekeeper.flagged_posts", float64(st.flagged))
	res.layer("synth.generate_s", st.generate.Seconds())
	if err := probeIngestLayers(st, filepath.Join(cfg.dir, "probe"), res); err != nil {
		return nil, err
	}
	return res, nil
}

// probeIngestLayers times each ingest layer's public functions directly
// over the recorded stream: WAL append/fsync (synced where the ingester
// syncs, at blacklist adds and at the end) and read, event decoding,
// link-domain extraction, and the serial monitor.
func probeIngestLayers(st *ingestState, dir string, res *result) error {
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	log, err := wal.Open(dir, wal.Options{})
	if err != nil {
		return err
	}
	defer log.Close()
	var appendD, syncD time.Duration
	for i, p := range st.payloads {
		t := time.Now()
		if _, err := log.Append(p); err != nil {
			return fmt.Errorf("probe append: %w", err)
		}
		appendD += time.Since(t)
		if k := st.events[i].Kind; k == mypagekeeper.KindBlacklistURL || k == mypagekeeper.KindBlacklistDomain || i == len(st.payloads)-1 {
			t = time.Now()
			if err := log.Sync(); err != nil {
				return fmt.Errorf("probe sync: %w", err)
			}
			syncD += time.Since(t)
		}
	}
	res.layer("wal.append_s", appendD.Seconds())
	res.layer("wal.sync_s", syncD.Seconds())

	t := time.Now()
	r, err := log.Reader(0)
	if err != nil {
		return err
	}
	for {
		if _, _, err := r.Next(); errors.Is(err, io.EOF) {
			break
		} else if err != nil {
			r.Close()
			return fmt.Errorf("probe read: %w", err)
		}
	}
	r.Close()
	res.layer("wal.read_s", time.Since(t).Seconds())

	t = time.Now()
	for _, p := range st.payloads {
		if _, err := mypagekeeper.DecodeEvent(p); err != nil {
			return fmt.Errorf("probe decode: %w", err)
		}
	}
	res.layer("mypagekeeper.decode_s", time.Since(t).Seconds())

	t = time.Now()
	for _, ev := range st.events {
		if ev.Kind == mypagekeeper.KindPost && ev.Post.Link != "" {
			wot.DomainOf(ev.Post.Link)
		}
	}
	res.layer("wot.domain_of_s", time.Since(t).Seconds())

	m := st.newMonitor()
	t = time.Now()
	observeSerial(m, st.events)
	res.layer("mypagekeeper.observe_s", time.Since(t).Seconds())
	return nil
}
