package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	allarm "allarm"
	"allarm/internal/fleet"
	"allarm/internal/obs"
	"allarm/internal/server"
)

// The sweep-fleet workload: an in-process allarm-router in front of two
// in-process allarm-serve shards over loopback HTTP. Each round boots a
// fresh fleet, where one client's cold sweep simulates every job; then
// two closed-loop clients re-submit the same sweep, and every job is a
// cache hit.
const (
	fleetShards   = 2
	fleetThreads  = 8
	fleetAccesses = 500 // per thread, per job
	warmClients   = 2
	bootReps      = 25 // extra boots before the timed region, for setup_s
	// traceBench, traceThreads and traceAccesses shape the uploaded trace.
	traceBench    = "x264"
	traceThreads  = 8
	traceAccesses = 1000
	// shardRetain is how long a shard keeps a finished sweep (the
	// allarm-serve -retain option); it bounds the memory the warm loop's
	// thousands of sweeps hold.
	shardRetain = 2 * time.Second
	// spanHeader carries the shard-call span id from the router's
	// transport to the shard's handler, so server spans nest under it.
	spanHeader = "X-Perfbench-Span"
)

var (
	fleetPolicies = []string{"baseline", "allarm", "allarm-hyst"}
	fleetPFKiB    = []int{32, 64, 128, 256}
)

// fleetRun is the state of one sweep-fleet invocation.
type fleetRun struct {
	seed    uint64
	rep     *report
	trace   []byte
	traceID string
	reqBody []byte
	refCSV  []byte
	ref     []allarm.SweepResult
	boots   []float64
	op      atomic.Uint64
	loop    closedLoop // every sweep, cold and warm, for attempted/failed
	scrape  scrape
}

// coldSample is one cold sweep.
type coldSample struct {
	latency, jobTime time.Duration
	events           uint64
	use              usage
}

// phaseResult is what one cold+warm phase measured.
type phaseResult struct {
	colds   []coldSample
	warm    closedLoop
	warmDur time.Duration
}

func runFleet(cfg runConfig) *report {
	r := &fleetRun{seed: cfg.seed, rep: newReport()}
	if err := r.prepare(); err != nil {
		r.rep.problem("prepare: %v", err)
		r.rep.attempted, r.rep.failed = 1, 1
		return r.rep
	}
	for i := 0; i < bootReps; i++ {
		f, boot, err := bootFleet(nil)
		if err != nil {
			r.rep.problem("boot: %v", err)
			r.rep.attempted, r.rep.failed = 1, 1
			return r.rep
		}
		f.close()
		r.boots = append(r.boots, boot.Seconds())
	}
	if !cfg.traced {
		pr := r.phase(cfg.budget, nil)
		r.endToEnd(pr)
	} else {
		untraced := r.phase(cfg.budget/2, nil)
		var traced phaseResult
		tr, shares, cpu := tracedPhase(cfg, r.rep, func(tr *tracer) {
			r.scrape = scrape{}
			traced = r.phase(cfg.budget/2, tr)
		})
		r.perLayer(untraced, traced, tr, shares, cpu)
	}
	r.rep.attempted, r.rep.failed = r.loop.attempted(), r.loop.failed
	return r.rep
}

// prepare captures the trace, builds the sweep request and computes the
// reference CSV with an in-process allarm.Runner, outside the timed
// region.
func (r *fleetRun) prepare() error {
	wl, err := allarm.BenchmarkWorkload(traceBench, traceThreads, traceAccesses)
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	if err := allarm.CaptureTrace(&buf, wl, r.seed); err != nil {
		return err
	}
	r.trace = buf.Bytes()
	sum := sha256.Sum256(r.trace)
	r.traceID = "tr-" + hex.EncodeToString(sum[:])
	seed := r.seed
	req := server.SweepRequest{
		Benchmarks: allarm.Benchmarks(),
		Workloads:  []string{"trace:" + r.traceID},
		Policies:   fleetPolicies,
		PFKiB:      fleetPFKiB,
		Config:     &server.ConfigOverrides{Threads: fleetThreads, AccessesPerThread: fleetAccesses, Seed: &seed},
	}
	if r.reqBody, err = json.Marshal(req); err != nil {
		return err
	}
	replay, err := allarm.ReadTraceNamed(bytes.NewReader(r.trace), r.traceID)
	if err != nil {
		return err
	}
	sweep, err := server.ExpandSweep(&req, func(id string) allarm.Workload {
		if id == r.traceID {
			return replay
		}
		return nil
	})
	if err != nil {
		return err
	}
	if r.ref, err = (&allarm.Runner{Parallelism: warmClients}).Run(context.Background(), sweep); err != nil {
		return err
	}
	if err := allarm.FirstError(r.ref); err != nil {
		return err
	}
	for _, sr := range r.ref {
		want := uint64(sr.Job.Config.Threads * sr.Job.Config.AccessesPerThread)
		if sr.Job.Workload != nil {
			want = uint64(traceThreads * traceAccesses)
		}
		if sr.Result.Partial || sr.Result.Accesses != want {
			return fmt.Errorf("reference %s (%s): partial %t, %d accesses, want %d",
				sr.Job.WorkloadName(), sr.Job.Config.Policy, sr.Result.Partial, sr.Result.Accesses, want)
		}
	}
	var csv bytes.Buffer
	if err := (allarm.CSVEmitter{}).Emit(&csv, r.ref); err != nil {
		return err
	}
	r.refCSV = csv.Bytes()
	sum = sha256.Sum256(r.refCSV)
	r.rep.digest = hex.EncodeToString(sum[:])
	return nil
}

// phase runs rounds until the budget would be exceeded by one more
// round of the last round's length (at least one round). A round boots
// a fresh fleet, runs one cold sweep on it, then runs the warm closed
// loop on the same fleet for as long as the cold sweep took, so cold
// and warm samples are spread over the whole phase.
func (r *fleetRun) phase(budget time.Duration, tr *tracer) phaseResult {
	var pr phaseResult
	start := time.Now()
	var last time.Duration
	for n := 0; n == 0 || time.Since(start)+last <= budget; n++ {
		t0 := time.Now()
		f, boot, err := bootFleet(tr)
		if err != nil {
			r.loop.fail()
			r.rep.problem("boot: %v", err)
			return pr
		}
		r.boots = append(r.boots, boot.Seconds())
		use := usageNow()
		lat, err := r.sweep(f, tr)
		if err != nil {
			r.loop.fail()
			r.rep.problem("cold sweep: %v", err)
		} else {
			r.loop.ok(lat)
			fmt.Fprintf(os.Stderr, "cold sweep %d: %.4fs, jobs %.4fs\n", n, lat.Seconds(), time.Duration(f.jobNs.Load()).Seconds())
			pr.colds = append(pr.colds, coldSample{latency: lat, use: use.since(),
				jobTime: time.Duration(f.jobNs.Load()), events: f.jobEvents.Load()})
			warm, d := r.warmLoop(f, tr, lat)
			pr.warm.merge(&warm)
			pr.warmDur += d
		}
		r.scrape.add(f)
		f.close()
		last = time.Since(t0)
	}
	r.loop.merge(&pr.warm)
	return pr
}

// warmLoop runs the closed loop of warmClients clients on f for d (each
// client completes at least one operation) and returns its accounting
// and how long it ran.
func (r *fleetRun) warmLoop(f *fleetInst, tr *tracer, d time.Duration) (closedLoop, time.Duration) {
	start := time.Now()
	deadline := start.Add(d)
	var (
		mu    sync.Mutex
		wg    sync.WaitGroup
		total closedLoop
	)
	for c := 0; c < warmClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var loop closedLoop
			for loop.attempted() == 0 || time.Now().Before(deadline) {
				lat, err := r.sweep(f, tr)
				if err != nil {
					loop.fail()
					mu.Lock()
					r.rep.problem("warm sweep: %v", err)
					mu.Unlock()
					continue
				}
				loop.ok(lat)
			}
			mu.Lock()
			total.merge(&loop)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return total, time.Since(start)
}

// sweep is one client operation: upload the trace, then submit the
// sweep, wait for its SSE stream to end on "done", fetch the CSV and
// check it against the reference; the latency runs from submit to the
// last CSV byte. The finished sweep is deleted afterwards, untimed.
func (r *fleetRun) sweep(f *fleetInst, tr *tracer) (time.Duration, error) {
	op := r.op.Add(1)
	root := tr.start("op", 0, op)
	defer tr.end(root)
	c := &call{f: f, tr: tr, op: op, root: root}

	var up server.TraceResponse
	if err := c.json("trace.upload", "POST", "/v1/traces", r.trace, http.StatusCreated, &up); err != nil {
		return 0, err
	}
	if up.ID != r.traceID {
		return 0, fmt.Errorf("trace uploaded as %s, want %s", up.ID, r.traceID)
	}
	t0 := time.Now()
	var sub server.SubmitResponse
	if err := c.json("fleet.submit", "POST", "/v1/sweeps", r.reqBody, http.StatusAccepted, &sub); err != nil {
		return 0, err
	}
	stream, err := c.do("fleet.events", "GET", sub.Events, nil, http.StatusOK)
	if err != nil {
		return 0, err
	}
	if status := lastSweepStatus(stream); status != server.StatusDone {
		return 0, fmt.Errorf("sweep %s: event stream ended with status %q", sub.ID, status)
	}
	csv, err := c.do("fleet.results", "GET", sub.Results+"?format=csv", nil, http.StatusOK)
	if err != nil {
		return 0, err
	}
	lat := time.Since(t0)
	if !bytes.Equal(csv, r.refCSV) {
		return 0, fmt.Errorf("sweep %s: gathered CSV differs from the in-process Runner's", sub.ID)
	}
	if _, err := c.do("", "DELETE", sub.Status, nil, http.StatusNoContent); err != nil {
		return 0, err
	}
	return lat, nil
}

// lastSweepStatus returns the status of the last "sweep" event of an
// SSE stream.
func lastSweepStatus(stream []byte) string {
	status := ""
	event := ""
	for _, line := range strings.Split(string(stream), "\n") {
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: ") && event == "sweep":
			var ev struct {
				Status string `json:"status"`
			}
			if json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev) == nil {
				status = ev.Status
			}
		}
	}
	return status
}

// call issues one operation's requests to the router, each in a span
// under the operation's root and tagged with the operation's request
// id, which the router carries onto its shard calls.
type call struct {
	f        *fleetInst
	tr       *tracer
	op, root uint64
}

func (c *call) do(name, method, path string, body []byte, want int) ([]byte, error) {
	sp := c.tr.start(name, c.root, c.op)
	defer c.tr.end(sp)
	c.f.setActive(c.op, sp)
	req, err := http.NewRequest(method, c.f.url+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set(obs.RequestIDHeader, opRequestID(c.op))
	resp, err := c.f.client.Do(req)
	if err != nil {
		return nil, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != want {
		return nil, fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(data))
	}
	return data, nil
}

func (c *call) json(name, method, path string, body []byte, want int, out any) error {
	data, err := c.do(name, method, path, body, want)
	if err != nil {
		return err
	}
	return json.Unmarshal(data, out)
}

func opRequestID(op uint64) string { return "perfbench-op-" + strconv.FormatUint(op, 10) }

func opOf(requestID string) uint64 {
	n, _ := strconv.ParseUint(strings.TrimPrefix(requestID, "perfbench-op-"), 10, 64)
	return n
}

// fleetInst is one booted fleet.
type fleetInst struct {
	tr        *tracer
	url       string
	client    *http.Client
	transport *http.Transport // the router's, for shard calls
	shards    []*server.Server
	shardURLs []string
	router    *fleet.Router
	servers   []*http.Server

	jobNs, jobEvents atomic.Uint64

	mu     sync.Mutex
	active map[uint64]uint64 // op -> the client span in progress
}

// bootFleet starts the shards and the router and waits until every
// daemon answers /healthz and the router reports all shards healthy.
func bootFleet(tr *tracer) (*fleetInst, time.Duration, error) {
	t0 := time.Now()
	f := &fleetInst{tr: tr, active: map[uint64]uint64{}}
	f.client = &http.Client{Transport: newTransport()}
	f.transport = newTransport()
	for i := 0; i < fleetShards; i++ {
		srv, err := server.New(server.Options{Workers: 1, RunJob: f.runJob, Retain: shardRetain})
		if err != nil {
			f.close()
			return nil, 0, err
		}
		f.shards = append(f.shards, srv)
		url, err := f.serve(f.wrapShard(srv.Handler()))
		if err != nil {
			f.close()
			return nil, 0, err
		}
		f.shardURLs = append(f.shardURLs, url)
	}
	rt, err := fleet.New(fleet.Options{Shards: f.shardURLs, Transport: &shardTransport{f: f}, JitterSeed: 1})
	if err != nil {
		f.close()
		return nil, 0, err
	}
	f.router = rt
	if f.url, err = f.serve(rt.Handler()); err != nil {
		f.close()
		return nil, 0, err
	}
	if err := f.awaitHealthy(); err != nil {
		f.close()
		return nil, 0, err
	}
	return f, time.Since(t0), nil
}

func newTransport() *http.Transport {
	t := http.DefaultTransport.(*http.Transport).Clone()
	t.MaxIdleConnsPerHost = 16
	return t
}

func (f *fleetInst) serve(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	hs := &http.Server{Handler: h}
	f.servers = append(f.servers, hs)
	go hs.Serve(ln)
	return "http://" + ln.Addr().String(), nil
}

func (f *fleetInst) awaitHealthy() error {
	deadline := time.Now().Add(10 * time.Second)
	for _, u := range append(append([]string(nil), f.shardURLs...), f.url) {
		for {
			var h struct {
				Status string            `json:"status"`
				Shards map[string]string `json:"shards"`
			}
			err := f.get(u+"/healthz", &h)
			healthy := err == nil && h.Status == "ok"
			for _, s := range h.Shards {
				healthy = healthy && s == "healthy"
			}
			if healthy {
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("%s/healthz not healthy after 10s (status %q, err %v)", u, h.Status, err)
			}
			time.Sleep(time.Millisecond)
		}
	}
	return nil
}

func (f *fleetInst) get(url string, out any) error {
	resp, err := f.client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

func (f *fleetInst) close() {
	for _, hs := range f.servers {
		hs.Close()
	}
	if f.router != nil {
		f.router.Close()
	}
	for _, s := range f.shards {
		s.Close()
	}
	f.client.CloseIdleConnections()
	f.transport.CloseIdleConnections()
}

// runJob is the shards' Options.RunJob: Job.RunCtx, which is what a nil
// RunJob runs, timed by the CPU clock of the thread it runs on.
func (f *fleetInst) runJob(ctx context.Context, j allarm.Job) (*allarm.Result, error) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	sp := f.tr.start("server.job", 0, 0)
	c0 := threadCPU()
	res, err := j.RunCtx(ctx)
	f.jobNs.Add(uint64(threadCPU() - c0))
	f.tr.end(sp)
	if res != nil {
		f.jobEvents.Add(res.Events)
	}
	return res, err
}

func (f *fleetInst) setActive(op, sp uint64) {
	if f.tr == nil {
		return
	}
	f.mu.Lock()
	f.active[op] = sp
	f.mu.Unlock()
}

// parentOf maps a shard call's request id to its operation and the
// client span in progress for it.
func (f *fleetInst) parentOf(requestID string) (op, parent uint64) {
	op = opOf(requestID)
	f.mu.Lock()
	defer f.mu.Unlock()
	return op, f.active[op]
}

// shardTransport is the router's Options.Transport: every shard call of
// an operation becomes a span, ended when its response body is closed.
type shardTransport struct{ f *fleetInst }

func (t *shardTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	tr := t.f.tr
	op, parent := uint64(0), uint64(0)
	if tr != nil {
		op, parent = t.f.parentOf(req.Header.Get(obs.RequestIDHeader))
	}
	if op == 0 {
		return t.f.transport.RoundTrip(req)
	}
	name := "fleet.shard_call"
	if strings.HasSuffix(req.URL.Path, "/events") {
		name = "fleet.shard_stream"
	}
	sp := tr.start(name, parent, op)
	req = req.Clone(req.Context())
	req.Header.Set(spanHeader, strconv.FormatUint(sp, 10))
	resp, err := t.f.transport.RoundTrip(req)
	if err != nil {
		tr.end(sp)
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, end: func() { tr.end(sp) }}
	return resp, nil
}

// spanBody ends its span when the body is closed.
type spanBody struct {
	io.ReadCloser
	once sync.Once
	end  func()
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.end)
	return err
}

// wrapShard times the shard handler's sweep routes as server.* spans,
// nested under the router's shard-call span.
func (f *fleetInst) wrapShard(h http.Handler) http.Handler {
	if f.tr == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		name := shardRoute(r)
		parent, _ := strconv.ParseUint(r.Header.Get(spanHeader), 10, 64)
		if name == "" || parent == 0 {
			h.ServeHTTP(w, r)
			return
		}
		sp := f.tr.start(name, parent, opOf(r.Header.Get(obs.RequestIDHeader)))
		h.ServeHTTP(w, r)
		f.tr.end(sp)
	})
}

// shardRoute names the span of a shard request ("" for untimed routes).
func shardRoute(r *http.Request) string {
	p := r.URL.Path
	switch {
	case r.Method == http.MethodPost && p == "/v1/sweeps":
		return "server.submit"
	case r.Method == http.MethodGet && strings.HasPrefix(p, "/v1/sweeps/"):
		rest := strings.TrimPrefix(p, "/v1/sweeps/")
		switch {
		case !strings.Contains(rest, "/"):
			return "server.status"
		case strings.HasSuffix(rest, "/results"):
			return "server.results"
		case strings.HasSuffix(rest, "/events"):
			return "server.events"
		}
	}
	return ""
}

// scrape accumulates the daemons' own counters over the fleets of a
// phase, read from their /metrics before each fleet closes. A failed
// scrape leaves its counters out; it checks no output.
type scrape struct {
	queueWaitS, queueWaitN float64
	hits, misses           float64
	coalesced, retries     float64
}

func (s *scrape) add(f *fleetInst) {
	for _, u := range f.shardURLs {
		var m server.Metrics
		if err := f.get(u+"/metrics", &m); err == nil {
			s.hits += float64(m.CacheHits + m.CacheDiskHits)
			s.misses += float64(m.CacheMisses)
			s.coalesced += float64(m.InflightCoalesced)
		}
		resp, err := f.client.Get(u + "/metrics?format=prometheus")
		if err != nil {
			continue
		}
		text, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		s.queueWaitS += promValue(string(text), "allarm_job_queue_wait_seconds_sum")
		s.queueWaitN += promValue(string(text), "allarm_job_queue_wait_seconds_count")
	}
	var rm fleet.Metrics
	if err := f.get(f.url+"/metrics", &rm); err == nil {
		for _, sh := range rm.Shards {
			s.retries += float64(sh.Retries)
		}
	}
}

// promValue returns the value of an unlabelled sample in Prometheus
// text exposition (0 when absent).
func promValue(text, name string) float64 {
	for _, line := range strings.Split(text, "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			x, err := strconv.ParseFloat(strings.TrimSpace(v), 64)
			if err == nil {
				return x
			}
		}
	}
	return 0
}

// endToEnd derives the untraced run's metrics.
func (r *fleetRun) endToEnd(pr phaseResult) {
	m := r.rep.metrics
	if len(pr.colds) == 0 || len(pr.warm.lat) == 0 {
		return
	}
	var lat, sim, rate, cpu, alloc []float64
	for _, c := range pr.colds {
		lat = append(lat, c.latency.Seconds())
		sim = append(sim, c.jobTime.Seconds())
		rate = append(rate, float64(c.events)/c.jobTime.Seconds())
		cpu = append(cpu, c.use.cpu.Seconds())
		alloc = append(alloc, float64(c.use.alloc)/mib)
	}
	m["setup_s"] = median(r.boots)
	m["sim_s"] = median(sim)
	m["events_per_s"] = median(rate)
	m["cpu_s"] = median(cpu)
	m["alloc_mb"] = median(alloc)
	m["max_rss_mb"] = maxRSSMiB()
	m["sim_speedup"] = r.speedup()
	m["cold_s"] = median(lat)
	m["op_p50_ms"] = pr.warm.percentile(50)
	m["op_p95_ms"] = pr.warm.percentile(95)
	m["ops_per_s"] = pr.warm.rate(pr.warmDur)
	p, v, ok := tailPercentile(pr.warm.samples())
	fmt.Printf("cold sweeps %d; warm sweeps %d, p95 over %d samples; highest percentile with >=10 beyond: p%g = %.4g ms (ok %t)\n",
		len(pr.colds), pr.warm.attempted(), pr.warm.attempted(), p, v, ok)
}

// speedup is the geometric mean over the sweep's (workload, probe
// filter) cells of baseline runtime / allarm runtime, in simulated time.
func (r *fleetRun) speedup() float64 {
	type cell struct {
		wl string
		pf int
	}
	base := map[cell]float64{}
	for _, sr := range r.ref {
		if sr.Job.Config.Policy == allarm.Baseline {
			base[cell{sr.Job.WorkloadName(), sr.Job.Config.PFBytes}] = sr.Result.RuntimeNs
		}
	}
	var ratios []float64
	for _, sr := range r.ref {
		if sr.Job.Config.Policy == allarm.ALLARM {
			ratios = append(ratios, base[cell{sr.Job.WorkloadName(), sr.Job.Config.PFBytes}]/sr.Result.RuntimeNs)
		}
	}
	return allarm.Geomean(ratios)
}

// perLayer derives the traced run's metrics.
func (r *fleetRun) perLayer(untraced, traced phaseResult, tr *tracer, shares map[string]float64, cpu time.Duration) {
	rep := r.rep
	m := rep.metrics
	byPolicy := map[string]counts{}
	var work counts
	for _, sr := range r.ref {
		c := countsOf(sr.Result)
		work.add(c)
		pol := sr.Job.Config.Policy.String()
		acc := byPolicy[pol]
		acc.add(c)
		byPolicy[pol] = acc
	}
	policyCounts(rep, byPolicy)
	spans := tr.closed()
	layerMetrics(rep, shares, cpu, work, uint64(len(traced.colds)), spans)

	// Shard calls per client operation; the warm operations far
	// outnumber the cold ones, so the median is a warm sweep's.
	calls := map[uint64]float64{}
	for _, s := range spans {
		if s.Name == "op" {
			calls[s.Op] += 0
		}
		if s.Name == "fleet.shard_call" || s.Name == "fleet.shard_stream" {
			calls[s.Op]++
		}
	}
	var perSweep []float64
	for _, c := range calls {
		perSweep = append(perSweep, c)
	}
	m["fleet.shard_calls_per_sweep"] = medianOr(perSweep)
	if r.scrape.queueWaitN > 0 {
		m["server.queue_wait_ms"] = r.scrape.queueWaitS / r.scrape.queueWaitN * 1e3
	}
	if total := r.scrape.hits + r.scrape.misses; total > 0 {
		m["server.cache_hit_share"] = r.scrape.hits / total
	}
	m["server.coalesced"] = r.scrape.coalesced
	m["fleet.retries"] = r.scrape.retries
	tracedP50, untracedP50 := traced.warm.percentile(50), untraced.warm.percentile(50)
	if !math.IsInf(tracedP50, 0) && !math.IsInf(untracedP50, 0) && untracedP50 > 0 {
		m["bench.trace_overhead"] = tracedP50/untracedP50 - 1
	}
	fillZero(rep, perLayer())
}
