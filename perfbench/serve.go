package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"pgvn"
	"pgvn/internal/cluster"
	"pgvn/internal/obs"
	"pgvn/internal/server"
	"pgvn/internal/server/store"
	"pgvn/internal/workload"
)

// serveShape sizes the serve workload. Every round sends the same stream
// to a freshly booted gvnd with an empty disk store and hot tier, so each
// round computes every distinct source once and answers every repeat from
// a cache tier.
type serveShape struct {
	// distinct sources per round, drawn from workload.Corpus(2.0).
	distinct int
	// requests per round; the rest of the stream repeats earlier sources.
	requests int
	// zipf is the exponent of the repeat distribution over the sources
	// already sent, the earliest the most popular.
	zipf float64
	// hotBytes is the hot tier's budget, well below the working set, so
	// that repeats are served from memory and from disk.
	hotBytes int64
	// clients is the number of closed-loop clients.
	clients int
}

// serveWorkload: 400 computed requests and 800 cache hits per round.
var serveWorkload = serveShape{distinct: 400, requests: 1200, zipf: 1.1, hotBytes: 96 << 10, clients: 2}

// serveBench holds one run's inputs and what the oracle established.
type serveBench struct {
	shape  serveShape
	seed   int64
	srcs   []string // distinct sources, in order of first request
	bodies [][]byte // request body per source
	stream []int    // request i asks for srcs[stream[i]]

	// ref holds, per source, the facade's text, the interpreter's returns
	// and whether the oracle rejected it.
	ref reference
}

// inputs generates the pool, picks the round's sources and renders the
// request stream: the set-up a run times, along with server boot.
func (s serveShape) inputs(seed int64) (*serveBench, error) {
	var pool []string
	for _, b := range workload.Corpus(2.0) {
		for _, r := range b.Routines {
			pool = append(pool, workload.SourceText(r))
		}
	}
	if s.distinct > len(pool) || s.distinct < 1 || s.requests < s.distinct {
		return nil, fmt.Errorf("serve shape %d/%d does not fit a pool of %d", s.distinct, s.requests, len(pool))
	}
	// The set of sources is fixed, so every seed asks for the same work;
	// the seed orders their first requests and draws the repeats.
	picked := rand.New(rand.NewSource(1)).Perm(len(pool))[:s.distinct]
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(picked), func(i, j int) { picked[i], picked[j] = picked[j], picked[i] })
	sb := &serveBench{shape: s, seed: seed}
	for _, k := range picked {
		body, err := json.Marshal(server.OptimizeRequest{Source: pool[k]})
		if err != nil {
			return nil, err
		}
		sb.srcs = append(sb.srcs, pool[k])
		sb.bodies = append(sb.bodies, body)
	}
	sent := 0
	for i := 0; i < s.requests; i++ {
		// A new source with the probability that spreads the remaining
		// new sources evenly over the remaining requests.
		if sent == 0 || (sent < s.distinct && rng.Intn(s.requests-i) < s.distinct-sent) {
			sb.stream = append(sb.stream, sent)
			sent++
			continue
		}
		z := rand.NewZipf(rng, s.zipf, 1, uint64(sent-1))
		sb.stream = append(sb.stream, int(z.Uint64()))
	}
	return sb, nil
}

func (s serveShape) run(seed int64, d time.Duration, traced bool, scratch string) (*outcome, error) {
	sb, gen, err := timedSetup(3, func() (*serveBench, error) { return s.inputs(seed) })
	if err != nil {
		return nil, err
	}
	o, boot, err := sb.measure(d, traced, scratch)
	if err != nil {
		return nil, err
	}
	o.set("setup_s", "s", seconds(gen+boot))
	return o, nil
}

// measure checks the sources under the oracle, then drives a warm-up
// round and measured rounds for at least d, with stores under scratch.
// It returns the median boot time of the measured rounds with the
// outcome.
func (sb *serveBench) measure(d time.Duration, traced bool, scratch string) (*outcome, time.Duration, error) {
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return nil, 0, err
	}
	dir, err := os.MkdirTemp(scratch, "serve-")
	if err != nil {
		return nil, 0, err
	}
	defer os.RemoveAll(dir)

	o := &outcome{}
	var l layers
	sb.oracle(&l, o)
	runtime.GC()

	var boots, cpus, walls, allocs, gcCPU, gcs []float64
	var plainRPS, tracedRPS []float64
	// Latency percentiles are taken per round; the run reports their
	// median over rounds.
	var p50, p99, missP50, missP99, hitP50, hitP99 []float64
	var requests int
	var total time.Duration
	tiers := map[string]int{}
	var sp spanFigures
	var direct directFigures

	// Round 0 warms the process up and is checked like every other, but
	// not measured. A traced run alternates untraced and traced rounds.
	start := time.Now()
	more := func(round int) bool {
		return round == 0 || time.Since(start) < d || len(walls) == 0 || (traced && len(tracedRPS) == 0)
	}
	for round := 0; more(round); round++ {
		tracedRound := traced && round%2 == 0 && round > 0
		rr, err := sb.round(filepath.Join(dir, fmt.Sprint(round)), tracedRound)
		if err != nil {
			return nil, 0, err
		}
		o.account(len(rr.replies), sb.failures(rr, o))
		if tracedRound {
			sp.add(rr)
			direct.add(rr)
		}
		if err := os.RemoveAll(rr.scratch); err != nil {
			return nil, 0, err
		}
		if round == 0 {
			start = time.Now()
			continue
		}
		rps := float64(len(rr.replies)) / rr.wall.Seconds()
		if tracedRound {
			tracedRPS = append(tracedRPS, rps)
			continue
		}
		plainRPS = append(plainRPS, rps)
		boots = append(boots, float64(rr.boot))
		cpus = append(cpus, seconds(rr.rt.cpu))
		walls = append(walls, seconds(rr.wall))
		allocs = append(allocs, megabytes(rr.rt.alloc))
		gcCPU = append(gcCPU, rr.rt.gcCPU)
		gcs = append(gcs, float64(rr.rt.gcs))
		requests += len(rr.replies)
		total += rr.wall
		var lat, missLat, hitLat []float64
		for _, r := range rr.replies {
			ms := millis(r.lat)
			lat = append(lat, ms)
			k := r.kind()
			tiers[k]++
			if k == "mem" || k == "disk" {
				hitLat = append(hitLat, ms)
			} else {
				missLat = append(missLat, ms)
			}
		}
		p50 = append(p50, quantile(lat, 0.50))
		p99 = append(p99, quantile(lat, 0.99))
		missP50 = append(missP50, quantile(missLat, 0.50))
		missP99 = append(missP99, quantile(missLat, 0.99))
		hitP50 = append(hitP50, quantile(hitLat, 0.50))
		hitP99 = append(hitP99, quantile(hitLat, 0.99))
	}

	o.set("compile_s", "s", median(cpus))
	o.set("alloc_mb", "MB", median(allocs))
	o.set("out_instrs", "count", float64(sb.ref.instrs.out))
	o.set("exec_steps", "count", float64(sb.ref.steps))
	if traced {
		o.set("compile_wall_s", "s", median(walls))
		o.set("serve_rps", "req/s", float64(requests)/total.Seconds())
		o.set("req_p50_ms", "ms", median(p50))
		o.set("req_p99_ms", "ms", median(p99))
		l.report(o)
		o.set("driver.layer_coverage", "ratio", sp.coverage())
		o.set("runtime.gc_cpu_s", "s", median(gcCPU))
		o.set("runtime.gc_cycles", "count", median(gcs))
		o.set("miss_p50_ms", "ms", median(missP50))
		o.set("miss_p99_ms", "ms", median(missP99))
		o.set("hit_p50_ms", "ms", median(hitP50))
		o.set("hit_p99_ms", "ms", median(hitP99))
		sp.report(o)
		direct.report(o)
		o.set("hot.hit_ratio", "ratio", float64(tiers["mem"])/float64(tiers["mem"]+tiers["disk"]))
		o.set("obs.span_overhead", "ratio", median(plainRPS)/median(tracedRPS))
	}
	o.notef("sources %d, requests %d per round; output instrs %d, interpreter steps %d; measured rounds %d",
		len(sb.srcs), len(sb.stream), sb.ref.instrs.out, sb.ref.steps, len(walls))
	o.notef("replies by tier: computed %d, coalesced %d, mem %d, disk %d",
		tiers["computed"], tiers["coalesced"], tiers["mem"], tiers["disk"])
	return o, time.Duration(median(boots)), nil
}

// oracle submits every source once to the facade with gvnd's default
// configuration, and judges the result like a compile batch: the
// facade's text is what every reply must carry.
func (sb *serveBench) oracle(l *layers, o *outcome) {
	b := &compileBench{
		srcs: sb.srcs,
		seed: sb.seed,
		optimize: func(src string) (string, []pgvn.Report, error) {
			return pgvn.OptimizeSource(src, pgvn.Options{Jobs: 1})
		},
	}
	sb.ref = b.oracle(b.facadeRound(), l, o)
}

// reply is one request's outcome as the client saw it.
type reply struct {
	status int
	cache  string // X-Gvnd-Cache
	tier   string // X-Gvnd-Cache-Tier
	trace  string // X-Gvnd-Trace
	body   []byte
	lat    time.Duration
	err    error
}

// kind classifies a reply: "computed" (the pipeline ran for it),
// "coalesced" (it shared a concurrent computation), or the cache tier
// that answered it ("mem", "disk").
func (r reply) kind() string {
	if r.cache == "miss" {
		return "computed"
	}
	return r.tier
}

// roundResult is one round: a fresh gvnd, the whole stream, and, on a
// traced round, the span trees and the store and hot tier left behind.
type roundResult struct {
	boot, wall time.Duration
	rt         runtimeSample
	replies    []reply
	spans      *obs.Spans
	store      *store.Store
	hot        *cluster.HotTier
	scratch    string
}

// round boots a gvnd on an empty store in dir, drives the stream through
// it with the closed-loop clients, and shuts it down.
func (sb *serveBench) round(dir string, traced bool) (*roundResult, error) {
	rr := &roundResult{scratch: dir}
	bootStart := cpuTime()
	st, err := store.Open(filepath.Join(dir, "store"), 0)
	if err != nil {
		return nil, err
	}
	rr.store = st
	rr.hot = cluster.NewHotTier(sb.shape.hotBytes, nil)
	if traced {
		// Room for every span of the round, so none is evicted before it
		// is read.
		rr.spans = obs.NewSpans("perfbench", 32*len(sb.stream), nil)
	}
	srv := server.New(server.Config{
		Jobs:          1,
		MaxConcurrent: sb.shape.clients,
		Store:         st,
		Hot:           rr.hot,
		Spans:         rr.spans,
	})
	if err := srv.Start("127.0.0.1:0"); err != nil {
		return nil, err
	}
	rr.boot = cpuTime() - bootStart

	transport := &http.Transport{MaxIdleConnsPerHost: sb.shape.clients, DisableCompression: true}
	client := &http.Client{Transport: transport, Timeout: time.Minute}
	url := "http://" + srv.Addr + "/v1/optimize"
	rr.replies = make([]reply, len(sb.stream))
	var next atomic.Int64
	var wg sync.WaitGroup
	before := readRuntime()
	start := time.Now()
	for c := 0; c < sb.shape.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(sb.stream) {
					return
				}
				rr.replies[i] = send(client, url, sb.bodies[sb.stream[i]])
			}
		}()
	}
	wg.Wait()
	rr.wall = time.Since(start)
	rr.rt = readRuntime().since(before)
	transport.CloseIdleConnections()
	// Shutdown waits for every handler to return, so each request's root
	// span is in the buffer once it does.
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		return nil, fmt.Errorf("shutting gvnd down: %w", err)
	}
	return rr, nil
}

func send(client *http.Client, url string, body []byte) reply {
	start := time.Now()
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return reply{err: err, lat: time.Since(start)}
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return reply{
		status: resp.StatusCode,
		cache:  resp.Header.Get(server.CacheHeader),
		tier:   resp.Header.Get(server.CacheTierHeader),
		trace:  resp.Header.Get(server.TraceHeader),
		body:   data,
		lat:    time.Since(start),
		err:    err,
	}
}

// failures checks every reply of a round and counts the requests that
// failed: an error or a status other than 200, a computed response
// whose text differs from the facade's or that reports a failed routine
// or a false constant claim, a cache hit that differs from the computed
// response for its source, and a source computed more than once.
func (sb *serveBench) failures(rr *roundResult, o *outcome) int {
	computed := make([][]byte, len(sb.srcs))
	bad := 0
	for i, r := range rr.replies {
		k := sb.stream[i]
		switch {
		case r.err != nil || r.status != http.StatusOK:
			bad++
			o.failf(false, "failed: request %d: status %d, %v", i, r.status, r.err)
		case sb.ref.bad[k]:
			bad++
		case r.kind() == "computed" && computed[k] != nil:
			bad++
			o.failf(false, "failed: request %d: source %d computed twice in one round", i, k)
		case r.kind() == "computed":
			computed[k] = r.body
			if err := sb.checkComputed(k, r.body); err != nil {
				bad++
				o.failf(true, "convicted: request %d: %v", i, err)
			}
		}
	}
	for i, r := range rr.replies {
		k := sb.stream[i]
		if r.err != nil || r.status != http.StatusOK || sb.ref.bad[k] || r.kind() == "computed" {
			continue
		}
		if !bytes.Equal(r.body, computed[k]) {
			bad++
			o.failf(true, "convicted: request %d: %s reply differs from the computed one for source %d", i, r.kind(), k)
		}
	}
	return bad
}

// checkComputed checks one computed response against the facade's text
// and the interpreter's returns.
func (sb *serveBench) checkComputed(k int, body []byte) error {
	var resp server.OptimizeResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return err
	}
	if resp.Stats.Failed != 0 {
		return fmt.Errorf("%d routines failed", resp.Stats.Failed)
	}
	if resp.Text != sb.ref.texts[k] {
		return fmt.Errorf("text differs from the facade's for source %d", k)
	}
	for _, rs := range resp.Routines {
		for _, want := range sb.ref.returns[k] {
			if rs.Const && rs.AlwaysReturns != want {
				return fmt.Errorf("%s claimed to always return %d, returns %d", rs.Name, rs.AlwaysReturns, want)
			}
		}
	}
	return nil
}

// spanFigures gathers, from the span trees of traced rounds, where each
// request spent its time.
type spanFigures struct {
	admission, lookup, compute, missSelf, hitSelf []float64
	rootTotal, childTotal                         time.Duration
}

func (f *spanFigures) add(rr *roundResult) {
	for _, r := range rr.replies {
		if r.trace == "" {
			continue
		}
		spans := rr.spans.Trace(r.trace)
		var root *obs.SpanRecord
		for k := range spans {
			if spans[k].ParentID == "" {
				root = &spans[k]
			}
		}
		if root == nil {
			continue
		}
		var children time.Duration
		for _, s := range spans {
			if s.ParentID != root.SpanID {
				continue
			}
			dur := time.Duration(s.DurationNS)
			children += dur
			switch s.Name {
			case "admission":
				f.admission = append(f.admission, millis(dur))
			case "store":
				f.lookup = append(f.lookup, millis(dur))
			case "compute":
				f.compute = append(f.compute, millis(dur))
			}
		}
		self := millis(time.Duration(root.DurationNS) - children)
		switch r.kind() {
		case "computed":
			f.missSelf = append(f.missSelf, self)
		case "mem", "disk":
			f.hitSelf = append(f.hitSelf, self)
		}
		f.rootTotal += time.Duration(root.DurationNS)
		f.childTotal += children
	}
}

// coverage is the share of request time the root span's children account
// for; the rest is the handler's own, charged to no layer.
func (f *spanFigures) coverage() float64 {
	if f.rootTotal == 0 {
		return 0
	}
	return f.childTotal.Seconds() / f.rootTotal.Seconds()
}

func (f *spanFigures) report(o *outcome) {
	o.set("server.admission_ms", "ms", median(f.admission))
	o.set("server.store_lookup_ms", "ms", median(f.lookup))
	o.set("server.compute_ms", "ms", median(f.compute))
	o.set("server.miss_unattributed_ms", "ms", median(f.missSelf))
	o.set("server.hit_unattributed_ms", "ms", median(f.hitSelf))
}

// directFigures times the store and the hot tier directly, on the
// entries a traced round left behind.
type directFigures struct {
	get, put, hotGet []float64
	bytes, entries   int64
}

func (f *directFigures) add(rr *roundResult) {
	st := rr.store.Stats()
	f.bytes += st.Bytes
	f.entries += int64(st.Entries)
	keys := rr.store.Keys()
	sort.Strings(keys)
	payloads := make([][]byte, 0, len(keys))
	for _, k := range keys {
		t := time.Now()
		p, ok := rr.store.Get(k)
		d := time.Since(t)
		if ok {
			f.get = append(f.get, millis(d))
			payloads = append(payloads, p)
		}
	}
	fresh, err := store.Open(filepath.Join(rr.scratch, "put"), 0)
	if err == nil {
		for i, p := range payloads {
			t := time.Now()
			if fresh.Put(keys[i], p) == nil {
				f.put = append(f.put, millis(time.Since(t)))
			}
		}
	}
	for _, k := range keys {
		t := time.Now()
		_, ok := rr.hot.Get(k)
		d := time.Since(t)
		if ok {
			f.hotGet = append(f.hotGet, float64(d)/float64(time.Microsecond))
		}
	}
}

func (f *directFigures) report(o *outcome) {
	o.set("store.get_ms", "ms", median(f.get))
	o.set("store.put_ms", "ms", median(f.put))
	if f.entries > 0 {
		o.set("store.bytes_per_entry", "B", float64(f.bytes)/float64(f.entries))
	}
	o.set("hot.get_us", "us", median(f.hotGet))
}
