package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"frappe"
	"frappe/internal/cluster"
	"frappe/internal/core"
	"frappe/internal/graphapi"
	"frappe/internal/stack"
	"frappe/internal/telemetry"
	"frappe/internal/wot"
)

// The serve workloads drive /check with closed-loop clients: each of
// serveClients connections sends its next request only after the previous
// verdict arrived, rotating over an app pool from its own starting point.
//
//   - serve-hot: front door (internal/cluster, wired as cmd/frappelb wires
//     it) over two watchdog replicas (wired as cmd/watchdogd: exact model
//     loaded from the saved file, production VerdictTTL of 30s), over a
//     hotPool-app pool that the verdict cache holds after warm-up.
//   - serve-cold: one replica with VerdictTTL 0, addressed directly, over
//     every live app: each request crawls Graph API and WOT over loopback
//     HTTP, extracts features and classifies.
const (
	serveClients  = 2
	hotPool       = 32
	hotReplicas   = 2
	productionTTL = 30 * time.Second
	serveWindow   = time.Second
	// warmupRequests bounds the set-up sweep: enough to fill serve-hot's
	// caches and open every connection, without sweeping serve-cold's
	// whole pool.
	warmupRequests = 256
	// settle is closed-loop load run and discarded before each measured
	// pass, so the pass starts at steady state (connections open, heap
	// grown to its working size).
	settle          = time.Second
	upstreamTimeout = 5 * time.Second
)

// serveSpec distinguishes the two serve workloads.
type serveSpec struct {
	ttl      time.Duration
	replicas int // 0 = one replica addressed directly, no front door
	pool     int // 0 = every live app
}

var (
	serveHot  = serveSpec{ttl: productionTTL, replicas: hotReplicas, pool: hotPool}
	serveCold = serveSpec{ttl: 0}
)

// serveState is one set-up: the world's services, the trained model, the
// replicas (and front door) under load, and the reference verdicts.
type serveState struct {
	world    *frappe.World
	generate time.Duration // the world-generation share of set-up
	services *frappe.Stack
	model    []byte
	records  []frappe.AppRecord
	labels   []bool
	pool     []string
	ref      map[string]frappe.Assessment
	// versions maps each replica's member ID ("" when addressed directly)
	// to the model ID it serves. Two loads of one model file are stamped
	// with different IDs (the saved encoding is not byte-stable), so a
	// verdict's model_version is checked against the replica that
	// answered, and the rest of it against the reference.
	versions map[string]string

	replicas *stack.ReplicaSet
	lb       *http.Server
	stopLB   context.CancelFunc
	endpoint string

	// traceable installs the member-transport wrapper (traced runs only).
	// While traceFrom is set (Unix ns), the benchmark's wrappers (replica
	// handler, front door, member transport) time requests in every other
	// serveWindow counted from it, and pass through in the rest.
	traceable bool
	traceFrom atomic.Int64
	handler   latencies
	proxy     latencies
}

// latencies collects durations from concurrent goroutines.
type latencies struct {
	mu sync.Mutex
	ds []time.Duration
}

func (l *latencies) add(d time.Duration) {
	l.mu.Lock()
	l.ds = append(l.ds, d)
	l.mu.Unlock()
}

func (l *latencies) sorted() []float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return sortedMillis(l.ds)
}

func (st *serveState) close() {
	if st.lb != nil {
		st.stopLB()
		st.lb.Close()
	}
	if st.replicas != nil {
		st.replicas.Close()
	}
	if st.services != nil {
		st.services.Close()
	}
}

// newWatchdog loads the saved model the way cmd/watchdogd does and points
// it at the world's services with watchdogd's default client settings.
func (st *serveState) newWatchdog(ttl time.Duration) (*frappe.Watchdog, error) {
	return frappe.NewWatchdogFromWith(bytes.NewReader(st.model), frappe.WatchdogConfig{
		GraphURL:   st.services.GraphURL,
		WOTURL:     st.services.WOTURL,
		Timeout:    upstreamTimeout,
		VerdictTTL: ttl,
	})
}

func setupServe(cfg runConfig, spec serveSpec) (*serveState, error) {
	ctx := context.Background()
	wcfg := frappe.DefaultConfig(cfg.scale)
	wcfg.Seed = worldSeed(cfg.scale, cfg.seed)
	genStart := time.Now()
	st := &serveState{world: frappe.GenerateWorld(wcfg), traceable: cfg.trace}
	st.generate = time.Since(genStart)
	ok := false
	defer func() {
		if !ok {
			st.close()
		}
	}()
	d, err := frappe.BuildDatasets(ctx, st.world)
	if err != nil {
		return nil, fmt.Errorf("building datasets: %w", err)
	}
	st.records, st.labels = frappe.LabeledSample(d)
	clf, err := frappe.Train(st.records, st.labels, frappe.Options{Features: frappe.LiteFeatures(), Seed: 2})
	if err != nil {
		return nil, fmt.Errorf("training: %w", err)
	}
	var buf bytes.Buffer
	if err := clf.Save(&buf); err != nil {
		return nil, fmt.Errorf("saving model: %w", err)
	}
	st.model = buf.Bytes()
	if st.services, err = frappe.StartServices(st.world); err != nil {
		return nil, fmt.Errorf("starting services: %w", err)
	}
	st.pool = livePool(st.world, spec.pool)
	if len(st.pool) == 0 {
		return nil, fmt.Errorf("no live apps in the world")
	}
	if err := st.reference(ctx); err != nil {
		return nil, err
	}
	if err := st.startReplicas(spec); err != nil {
		return nil, err
	}
	// Warm up: one sweep of a small pool fills the verdict caches
	// (serve-hot); any sweep opens the keep-alive connections every path
	// reuses.
	if _, err := st.drive(nil, time.Now().Add(time.Minute), min(len(st.pool), warmupRequests)); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	ok = true
	return st, nil
}

// reference computes every pool app's verdict with an uncached watchdog —
// the oracle each served verdict must equal, trace ID and cached flag
// aside.
func (st *serveState) reference(ctx context.Context) error {
	wd, err := st.newWatchdog(0)
	if err != nil {
		return fmt.Errorf("reference watchdog: %w", err)
	}
	st.ref = make(map[string]frappe.Assessment, len(st.pool))
	for _, id := range st.pool {
		a := wd.Assess(ctx, id)
		if a.Cause != "" && a.Cause != frappe.CauseDeleted {
			return fmt.Errorf("reference verdict for %s: %s (%s)", id, a.Cause, a.Error)
		}
		st.ref[id] = normalize(a)
	}
	return nil
}

// normalize drops the per-request fields a served verdict may differ in,
// and the model version, which check verifies per replica.
func normalize(a frappe.Assessment) frappe.Assessment {
	a.TraceID = ""
	a.Cached = false
	a.ModelVersion = ""
	return a
}

func (st *serveState) startReplicas(spec serveSpec) error {
	ids := []string{"w1"}
	for i := 2; i <= spec.replicas; i++ {
		ids = append(ids, fmt.Sprintf("w%d", i))
	}
	var buildErr error
	st.versions = map[string]string{}
	rs, err := stack.StartReplicas(ids, func(_ int, id string) http.Handler {
		wd, err := st.newWatchdog(spec.ttl)
		if err != nil {
			buildErr = err
			return http.NotFoundHandler()
		}
		memberID := ""
		if spec.replicas > 0 {
			memberID = id
		}
		st.versions[memberID] = wd.ServingManifest().ModelID()
		h := frappe.NewWatchdogHandler(wd, frappe.HandlerConfig{
			Timeout:  15 * time.Second,
			Health:   frappe.NewHealthState(),
			MemberID: memberID,
		})
		return st.timed(h)
	})
	if err != nil {
		return err
	}
	st.replicas = rs
	if buildErr != nil {
		return fmt.Errorf("building replica: %w", buildErr)
	}
	if spec.replicas == 0 {
		st.endpoint = rs.URL(0)
		return nil
	}

	members := make([]cluster.Member, rs.Len())
	for i := range members {
		members[i] = cluster.Member{ID: rs.ID(i), URL: rs.URL(i)}
	}
	// The member transport is configured exactly as cluster.New's default;
	// the wrapper only adds up each proxied request's member round trips.
	// An untraced run leaves the transport to cluster.New, as frappelb does.
	ccfg := cluster.Config{Members: members}
	if st.traceable {
		inner := http.DefaultTransport.(*http.Transport).Clone()
		inner.MaxIdleConnsPerHost = 64
		ccfg.Transport = &memberTimer{inner: inner}
	}
	c, err := cluster.New(ccfg)
	if err != nil {
		return err
	}
	ctx, cancel := context.WithCancel(context.Background())
	st.stopLB = cancel
	c.Start(ctx)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		cancel()
		return err
	}
	lb := telemetry.Middleware(nil, "frappelb", c.Handler())
	st.lb = &http.Server{Handler: st.proxied(lb), ReadHeaderTimeout: 5 * time.Second}
	go st.lb.Serve(ln)
	st.endpoint = "http://" + ln.Addr().String()
	return nil
}

// tracing reports whether requests starting now are in a traced window.
func (st *serveState) tracing() bool {
	from := st.traceFrom.Load()
	return from != 0 && (time.Now().UnixNano()-from)/int64(serveWindow)%2 == 1
}

// timed wraps a replica handler so that, while tracing is on, every
// /check's handler time is recorded.
func (st *serveState) timed(h http.Handler) http.Handler {
	return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/check" || !st.tracing() {
			h.ServeHTTP(rw, r)
			return
		}
		start := time.Now()
		h.ServeHTTP(rw, r)
		st.handler.add(time.Since(start))
	})
}

type roundTrips struct{ total atomic.Int64 }

type roundTripsKey struct{}

// proxied wraps the front door: while tracing is on, each request's time
// minus the member round trips it made (summed by memberTimer) is the
// proxy's own time.
func (st *serveState) proxied(h http.Handler) http.Handler {
	return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/check" || !st.tracing() {
			h.ServeHTTP(rw, r)
			return
		}
		rt := &roundTrips{}
		r = r.WithContext(context.WithValue(r.Context(), roundTripsKey{}, rt))
		start := time.Now()
		h.ServeHTTP(rw, r)
		st.proxy.add(time.Since(start) - time.Duration(rt.total.Load()))
	})
}

// memberTimer times the front door's member round trips made for traced
// requests, from sending the request to the member until its response
// body is closed.
type memberTimer struct{ inner http.RoundTripper }

func (m *memberTimer) RoundTrip(req *http.Request) (*http.Response, error) {
	rt, _ := req.Context().Value(roundTripsKey{}).(*roundTrips)
	if rt == nil {
		return m.inner.RoundTrip(req)
	}
	start := time.Now()
	resp, err := m.inner.RoundTrip(req)
	if err != nil {
		rt.total.Add(int64(time.Since(start)))
		return nil, err
	}
	resp.Body = &timedBody{ReadCloser: resp.Body, start: start, rt: rt}
	return resp, nil
}

type timedBody struct {
	io.ReadCloser
	start time.Time
	rt    *roundTrips
	once  sync.Once
}

func (b *timedBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() { b.rt.total.Add(int64(time.Since(b.start))) })
	return err
}

// livePool picks up to n (0 = all) live app IDs, alternating benign and
// malicious so both crawl shapes are represented.
func livePool(w *frappe.World, n int) []string {
	var benign, malicious []string
	for _, id := range w.BenignIDs {
		if _, err := w.Platform.Lookup(id); err == nil {
			benign = append(benign, id)
		}
	}
	for _, id := range w.MaliciousIDs {
		if _, err := w.Platform.Lookup(id); err == nil {
			malicious = append(malicious, id)
		}
	}
	var pool []string
	for i := 0; i < len(benign) || i < len(malicious); i++ {
		if i < len(benign) {
			pool = append(pool, benign[i])
		}
		if i < len(malicious) {
			pool = append(pool, malicious[i])
		}
	}
	if n > 0 && len(pool) > n {
		pool = pool[:n]
	}
	return pool
}

// served is one completed /check.
type served struct {
	at      time.Time
	latency time.Duration
	ok      bool
}

// drive runs the closed-loop clients until deadline (or until limit
// requests in total, when limit > 0) and returns every request's outcome.
// A verdict that differs from the reference is a correctness problem,
// appended to problems; a request without a verdict is a failure, left
// for the caller to count. With problems nil (warm-up) either is an error.
func (st *serveState) drive(problems *[]string, deadline time.Time, limit int) ([]served, error) {
	var (
		mu      sync.Mutex
		out     []served
		firstEr error
		issued  atomic.Int64
		wg      sync.WaitGroup
	)
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			tr := &http.Transport{MaxIdleConnsPerHost: 1}
			defer tr.CloseIdleConnections()
			client := &http.Client{Transport: tr, Timeout: 30 * time.Second}
			var local []served
			var bad, failed []string
			for i := c * len(st.pool) / serveClients; time.Now().Before(deadline); i++ {
				if limit > 0 && issued.Add(1) > int64(limit) {
					break
				}
				id := st.pool[i%len(st.pool)]
				t0 := time.Now()
				ok, msg := st.check(client, id)
				now := time.Now()
				local = append(local, served{at: now, latency: now.Sub(t0), ok: ok})
				switch {
				case msg == "":
				case ok && len(bad) < 5:
					bad = append(bad, msg)
				case !ok && len(failed) < 1:
					failed = append(failed, msg)
				}
			}
			mu.Lock()
			out = append(out, local...)
			if problems != nil {
				*problems = append(*problems, bad...)
			} else if all := append(bad, failed...); len(all) > 0 && firstEr == nil {
				firstEr = errors.New(all[0])
			}
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	return out, firstEr
}

// check issues one /check and compares the verdict with the reference. ok
// reports whether the request produced a verdict (200, or 404 for a
// deleted app); msg is non-empty when the verdict is wrong or missing.
func (st *serveState) check(client *http.Client, id string) (ok bool, msg string) {
	resp, err := client.Get(st.endpoint + "/check?app=" + url.QueryEscape(id))
	if err != nil {
		return false, fmt.Sprintf("%s: %v", id, err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return false, fmt.Sprintf("%s: reading body: %v", id, err)
	}
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusNotFound {
		return false, fmt.Sprintf("%s: status %d", id, resp.StatusCode)
	}
	var a frappe.Assessment
	if err := json.Unmarshal(body, &a); err != nil {
		return true, fmt.Sprintf("%s: undecodable verdict: %v", id, err)
	}
	if got, want := normalize(a), st.ref[id]; got != want {
		return true, fmt.Sprintf("%s: verdict %+v, reference %+v", id, got, want)
	}
	member := resp.Header.Get("X-Cluster-Member")
	if want, ok := st.versions[member]; !ok || a.ModelVersion != want {
		return true, fmt.Sprintf("%s: model_version %q from member %q, which serves %q", id, a.ModelVersion, member, want)
	}
	return true, ""
}

// windowed splits a pass into serveWindow-long windows by completion
// time and returns each window's verdict rate, plus every verdict's
// latency in ascending milliseconds.
func windowed(reqs []served, start time.Time, d time.Duration) (rate, lat []float64) {
	n := max(1, int(d/serveWindow))
	width := d / time.Duration(n)
	counts := make([]int, n)
	var ds []time.Duration
	for _, r := range reqs {
		w := int(r.at.Sub(start) / width)
		if w < 0 || w >= n || !r.ok {
			continue
		}
		counts[w]++
		ds = append(ds, r.latency)
	}
	for _, n := range counts {
		rate = append(rate, float64(n)/width.Seconds())
	}
	return rate, sortedMillis(ds)
}

func runServe(cfg runConfig, spec serveSpec) (*result, error) {
	res := newResult()
	var st *serveState
	for i := 0; i < cfg.setupReps; i++ {
		if st != nil {
			st.close()
		}
		start := time.Now()
		s, err := setupServe(cfg, spec)
		if err != nil {
			return nil, fmt.Errorf("serve set-up: %w", err)
		}
		res.add("setup_s", "s", time.Since(start).Seconds())
		st = s
	}
	defer st.close()
	if cfg.tamper != nil {
		cfg.tamper(st.ref)
	}
	res.props = map[string]any{
		"scale":         cfg.scale,
		"world_seed":    worldSeed(cfg.scale, cfg.seed),
		"pool_apps":     len(st.pool),
		"clients":       serveClients,
		"replicas":      max(spec.replicas, 1),
		"front_door":    spec.replicas > 0,
		"verdict_ttl_s": spec.ttl.Seconds(),
		"labeled_apps":  len(st.records),
		"window_s":      serveWindow.Seconds(),
	}

	reg := telemetry.Default()
	// pass settles, then drives the measured load for seconds; counters
	// are read around the measured part only.
	type passOut struct {
		rates         []float64
		verdicts      int
		hitShare      float64
		before, after serveCounterSet
	}
	pass := func(seconds float64) (passOut, error) {
		var out passOut
		if _, err := st.drive(&res.problems, time.Now().Add(settle), 0); err != nil {
			return out, err
		}
		d := time.Duration(seconds * float64(time.Second))
		out.before = serveCounters(reg)
		start := time.Now()
		if cfg.trace {
			st.traceFrom.Store(start.UnixNano())
			defer st.traceFrom.Store(0)
		}
		reqs, err := st.drive(&res.problems, start.Add(d), 0)
		if err != nil {
			return out, err
		}
		out.after = serveCounters(reg)
		for _, r := range reqs {
			res.attempted++
			if r.ok {
				out.verdicts++
			} else {
				res.failed++
			}
		}
		var lat []float64
		out.rates, lat = windowed(reqs, start, d)
		for _, r := range out.rates {
			res.add("ops_per_s", "1/s", r)
			res.add("verdicts_per_s", "1/s", r)
		}
		p50, p99 := percentile(lat, 0.50), percentile(lat, 0.99)
		res.add("op_p50_ms", "ms", p50.Value)
		res.add("op_p99_ms", "ms", p99.Value)
		res.add("check_p50_ms", "ms", p50.Value)
		res.add("check_p99_ms", "ms", p99.Value)
		res.props["latency_samples"] = p50.N
		out.hitShare = out.after.hitShare(out.before)
		res.props["hit_share"] = out.hitShare
		return out, nil
	}

	out, err := pass(cfg.seconds)
	if err != nil || !cfg.trace {
		return res, err
	}

	// Traced run: the timers ran in odd windows only, so traced and
	// untraced windows share the host's conditions.
	var plain, traced []float64
	for i, r := range out.rates {
		if i%2 == 1 {
			traced = append(traced, r)
		} else {
			plain = append(plain, r)
		}
	}
	before, after := out.before, out.after
	res.layer("trace.overhead_share", overhead(plain, traced))
	res.layer("verdict.hit_share", out.hitShare)

	proxy := st.proxy.sorted()
	res.layer("cluster.proxy_self_ms_p50", percentile(proxy, 0.50).Value)
	routed := after.routed.minus(before.routed)
	res.layer("cluster.member_skew", skew(routed))
	res.layer("cluster.failovers", after.failovers-before.failovers)
	handler := st.handler.sorted()
	res.layer("watchdog.handler_ms_p50", percentile(handler, 0.50).Value)
	res.layer("watchdog.handler_ms_p99", percentile(handler, 0.99).Value)
	if out.verdicts > 0 {
		upstream := after.attempts.minus(before.attempts)
		res.layer("watchdog.upstream_per_verdict", (upstream["graph"]+upstream["wot"])/float64(out.verdicts))
	}
	for _, svc := range []string{"graph", "wot"} {
		res.layer("httpx.attempt_ms_mean."+svc, after.attemptSec.meanMs(before.attemptSec, svc))
		res.layer("httpx.server_ms_mean."+svc, after.serverSec.meanMs(before.serverSec, svc))
	}
	res.layer("synth.generate_s", st.generate.Seconds())
	res.props["proxy_samples"] = len(proxy)
	res.props["handler_samples"] = len(handler)
	if err := st.probeServeLayers(spec, res); err != nil {
		return nil, err
	}
	return res, nil
}

// labelled holds one value per label of a metric family.
type labelled map[string]float64

func (a labelled) minus(b labelled) labelled {
	out := labelled{}
	for k, v := range a {
		out[k] = v - b[k]
	}
	return out
}

// histSums pairs a histogram family's per-label sum and count.
type histSums struct{ sum, count labelled }

func (h histSums) meanMs(before histSums, label string) float64 {
	n := h.count[label] - before.count[label]
	if n == 0 {
		return 0
	}
	return (h.sum[label] - before.sum[label]) / n * 1000
}

type serveCounterSet struct {
	routed, attempts, cache labelled
	attemptSec, serverSec   histSums
	failovers               float64
}

// hitShare is verdict-cache hits over lookups since before.
func (s serveCounterSet) hitShare(before serveCounterSet) float64 {
	d := s.cache.minus(before.cache)
	lookups := d["hit"] + d["miss"] + d["expired"] + d["stale_model"]
	if lookups == 0 {
		return 0
	}
	return d["hit"] / lookups
}

func serveCounters(reg *telemetry.Registry) serveCounterSet {
	s := serveCounterSet{
		routed:     labelled{},
		attempts:   labelled{},
		cache:      labelled{},
		attemptSec: histSums{labelled{}, labelled{}},
		serverSec:  histSums{labelled{}, labelled{}},
	}
	for i := 1; i <= hotReplicas; i++ {
		id := fmt.Sprintf("w%d", i)
		s.routed[id] = float64(reg.CounterValue("frappe_cluster_requests_total", id))
	}
	for _, svc := range []string{"graph", "wot"} {
		s.attempts[svc] = float64(reg.CounterValue("frappe_httpx_attempts_total", svc))
		sum, n := reg.HistogramSum("frappe_httpx_attempt_duration_seconds", svc)
		s.attemptSec.sum[svc], s.attemptSec.count[svc] = sum, float64(n)
		sum, n = reg.HistogramSum("frappe_http_request_duration_seconds", svc)
		s.serverSec.sum[svc], s.serverSec.count[svc] = sum, float64(n)
	}
	for _, r := range []string{"hit", "miss", "expired", "stale_model"} {
		s.cache[r] = float64(reg.CounterValue("frappe_verdict_cache_total", r))
	}
	for _, reason := range []string{"error", "5xx", "breaker_open"} {
		s.failovers += float64(reg.CounterValue("frappe_cluster_failover_total", reason))
	}
	return s
}

// skew is the busiest member's share of routed requests over the mean
// share; 1 is perfectly even, 0 means nothing was routed.
func skew(routed labelled) float64 {
	var total, top float64
	for _, n := range routed {
		total += n
		top = max(top, n)
	}
	if total == 0 {
		return 0
	}
	return top / (total / float64(len(routed)))
}

// probeServeLayers times each serving layer's public functions directly:
// Watchdog.Assess without HTTP, the Graph API and WOT clients, and
// single-record inference on the served exact model and its RFF compile.
func (st *serveState) probeServeLayers(spec serveSpec, res *result) error {
	ctx := context.Background()
	wd, err := st.newWatchdog(spec.ttl)
	if err != nil {
		return err
	}
	probe := st.pool
	if len(probe) > 200 {
		probe = probe[:200]
	}
	for _, id := range probe { // fills the cache on serve-hot, as the warm-up did
		wd.Assess(ctx, id)
	}
	var assess []time.Duration
	for r := 0; r < 5; r++ {
		for _, id := range probe {
			t := time.Now()
			wd.Assess(ctx, id)
			assess = append(assess, time.Since(t))
		}
	}
	res.layer("watchdog.assess_us_p50", percentile(sortedMillis(assess), 0.5).Value*1000)

	graph := &graphapi.Client{BaseURL: st.services.GraphURL}
	wotc := &wot.Client{BaseURL: st.services.WOTURL}
	var summary, feed, install, score []time.Duration
	for _, id := range probe {
		t := time.Now()
		_, serr := graph.Summary(ctx, id)
		summary = append(summary, time.Since(t))
		t = time.Now()
		_, ferr := graph.Feed(ctx, id)
		feed = append(feed, time.Since(t))
		t = time.Now()
		info, ierr := graph.Install(ctx, id)
		install = append(install, time.Since(t))
		if err := errors.Join(serr, ferr, ierr); err != nil && !errors.Is(err, graphapi.ErrDeleted) {
			return fmt.Errorf("graph probe %s: %w", id, err)
		}
		if domain := wot.DomainOf(info.RedirectURI); domain != "" {
			t = time.Now()
			wotc.Score(ctx, domain) // unknown domains are an answer too
			score = append(score, time.Since(t))
		}
	}
	res.layer("graphapi.summary_ms_p50", percentile(sortedMillis(summary), 0.5).Value)
	res.layer("graphapi.feed_ms_p50", percentile(sortedMillis(feed), 0.5).Value)
	res.layer("graphapi.install_ms_p50", percentile(sortedMillis(install), 0.5).Value)
	res.layer("wot.score_ms_p50", percentile(sortedMillis(score), 0.5).Value)

	recs := poolRecords(st.records, st.pool)
	exact, err := core.Load(bytes.NewReader(st.model))
	if err != nil {
		return err
	}
	res.layer("core.classify_ns", classifyNS(exact, recs))
	rff, err := core.Load(bytes.NewReader(st.model))
	if err != nil {
		return err
	}
	opts := frappe.DefaultCompileOptions(frappe.CompileRFF)
	opts.Seed = 2
	for {
		_, err = frappe.CompileClassifier(rff, st.records, st.labels, opts, 0.02)
		if errors.Is(err, frappe.ErrCompileRefused) && opts.RFFDim < 1024 {
			opts.RFFDim *= 2
			continue
		}
		break
	}
	if err != nil {
		res.props["rff_compile"] = err.Error()
		return nil
	}
	res.props["rff_compile"] = rff.Compiled().String()
	res.layer("svm.classify_ns_rff", classifyNS(rff, recs))
	return nil
}

// poolRecords returns the labeled records of pool apps, or every labeled
// record when none of the pool was sampled.
func poolRecords(records []frappe.AppRecord, pool []string) []frappe.AppRecord {
	in := make(map[string]bool, len(pool))
	for _, id := range pool {
		in[id] = true
	}
	var out []frappe.AppRecord
	for _, r := range records {
		if in[r.ID] {
			out = append(out, r)
		}
	}
	if len(out) == 0 {
		return records
	}
	return out
}

// classifyNS is the median over rounds of the mean single-record
// classification time across recs.
func classifyNS(clf *frappe.Classifier, recs []frappe.AppRecord) float64 {
	const rounds = 7
	per := make([]float64, rounds)
	n := max(1, 20000/len(recs))
	for r := range per {
		start := time.Now()
		for i := 0; i < n; i++ {
			for _, rec := range recs {
				clf.Classify(rec)
			}
		}
		per[r] = float64(time.Since(start).Nanoseconds()) / float64(n*len(recs))
	}
	sort.Float64s(per)
	return per[rounds/2]
}
