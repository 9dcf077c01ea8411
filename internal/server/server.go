// Package server is the simulation-as-a-service daemon behind
// cmd/allarm-serve: a REST front end over the allarm Sweep API with a
// job store, a bounded simulation worker pool, and a content-addressed
// result cache.
//
// The cache is keyed on Job.Key — the same fingerprint Sweep.Dedup uses
// — so every distinct simulation runs at most once for the daemon's
// lifetime (LRU-bounded): identical jobs in later sweeps are served
// from cache, and identical jobs in-flight at the same time are
// coalesced onto one execution (singleflight). Results are exactly what
// the library produces; the emitters rendering them are the ones the
// CLI tools use, so served output is byte-identical to a local run.
//
// # Durability
//
// With a cache directory (Options.CacheDir, allarm-serve -cache-dir)
// the daemon becomes restart-safe. The in-memory LRU gains a disk tier
// (results/, content-addressed by the same Job.Key) that every complete
// result is written through to; submitted sweep specs are persisted
// (sweeps/<id>.json) until the sweep is deleted or expires; uploaded
// traces are kept (traces/<id>); and drain checkpoints default into
// checkpoints/. At boot the daemon re-enqueues every persisted sweep
// under its original id — jobs whose keys are already in the disk store
// are served from it without re-simulating, so only the missing jobs
// actually run. A SIGKILL therefore costs at most the simulations that
// were mid-flight; everything completed is recovered byte-identically.
//
// # Machine-state checkpoints
//
// With Options.CheckpointInterval set (allarm-serve
// -checkpoint-interval) even the mid-flight jobs survive: the runner
// snapshots the full machine state of every running simulation — event
// heap, caches, directories, MSHRs, workload cursors, rng streams —
// every N events into jobckpts/ (sha256(Job.Key)-named files, written
// with the same fsync'd temp+rename discipline as the result store).
// After a kill, boot recovery re-enqueues the sweep as above and the
// runner resumes each interrupted job from its checkpoint instead of
// event zero; a resumed run is bit-identical to an uninterrupted one
// (internal/checkpoint's golden-tested guarantee), so cached results
// and rendered output are unaffected. Checkpoints are an optimization,
// never a correctness dependency: a corrupt, truncated or
// version-skewed file is discarded (CRC + version checks) and the job
// re-simulates from scratch. Checkpoint boundaries also give the pool
// preemption points — a long job yields its worker slot to waiting
// work and resumes when a slot frees — and the /v1/checkpoints
// endpoints let allarm-router migrate in-flight jobs between shards.
//
// # Cancellation
//
// Drain cancellation is threaded through Runner.Exec into the event
// loop itself (sim.RunCtx), so an executing simulation aborts within
// one sim.CancelCheckBudget of events instead of running to
// completion: drain time is bounded by the grace period plus one event
// budget, not one full simulation. Interrupted jobs report status
// "aborted" (with their partial metrics in the checkpoint NDJSON);
// jobs cancellation reached first report "skipped".
package server

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	allarm "allarm"
	"allarm/internal/obs"
)

// Default sizing knobs.
const (
	// DefaultCacheEntries bounds the result cache when Options doesn't.
	DefaultCacheEntries = 1024
	// maxSubmitBytes bounds a POST /v1/sweeps body.
	maxSubmitBytes = 1 << 20
	// maxTraceBytes bounds a POST /v1/traces body.
	maxTraceBytes = 64 << 20
	// maxTraces bounds the uploaded-trace store (each entry pins a
	// parsed replay in memory); the least recently uploaded is evicted.
	// Sweeps capture their Workload at submit time, so evicting a trace
	// never breaks an in-flight sweep — only future "trace:ID" specs.
	maxTraces = 64
)

// Options configures a Server.
type Options struct {
	// Workers bounds concurrently running simulations across all sweeps
	// (<= 0: NumCPU, divided by SimThreads when that is set so the
	// total goroutine demand stays near the core count). Request
	// handling is not bounded by it: cache hits and status reads never
	// wait for a worker.
	Workers int
	// SimThreads, when > 1, runs every executed simulation on that many
	// parallel event shards (Config.SimThreads). It is applied at
	// execution time and is NOT part of a job's cache identity: the
	// parallel engine is bit-identical to the serial one, so a result
	// computed at any thread count serves every client. Machines that
	// cannot shard fall back to serial execution on their own.
	SimThreads int
	// CacheEntries bounds the in-memory result cache (<= 0:
	// DefaultCacheEntries). The disk tier, when enabled, is unbounded.
	CacheEntries int
	// CacheDir, when non-empty, makes the daemon restart-safe: results
	// are written through to a disk store under it, sweep specs and
	// uploaded traces are persisted, and boot re-enqueues unfinished
	// sweeps (see the package's Durability section for the layout).
	CacheDir string
	// Store, when non-nil, is the persistent result tier, replacing the
	// <CacheDir>/results disk store — typically NewObjectStore, so fleet
	// shards share results without shared disks. CacheDir (when also
	// set) still persists sweep specs, traces and checkpoints locally.
	Store ResultStore
	// Guard, when non-nil, authenticates and rate-limits every request
	// (see Guard) and enforces per-client job quotas at submit time.
	Guard *Guard
	// ObjectServeDir, when non-empty, additionally serves the S3-style
	// object protocol (ObjectHandler) from that directory under
	// /v1/objects/ — one shard's disk becoming the fleet's shared
	// result store.
	ObjectServeDir string
	// CheckpointDir, when non-empty, receives one <sweep-id>.ndjson per
	// sweep still in flight when Drain cancels it. Empty with a CacheDir
	// defaults to <CacheDir>/checkpoints.
	CheckpointDir string
	// CheckpointInterval, when positive, enables machine-state
	// checkpointing of running simulations (allarm-serve
	// -checkpoint-interval): every that-many events, the executing job's
	// whole simulation state is snapshotted to the job checkpoint
	// directory, a killed daemon resumes interrupted jobs from their
	// latest checkpoint at boot instead of re-simulating from event
	// zero, and long jobs are preempted at checkpoint boundaries when
	// shorter work is waiting for a pool slot. Resumed results are
	// bit-identical to uninterrupted ones. Ignored when Options.RunJob
	// is set (the injected runner owns execution).
	CheckpointInterval uint64
	// JobCheckpointDir is where machine-state checkpoints live (one
	// <sha256(Job.Key)>.ckpt per in-flight job). Empty with a CacheDir
	// defaults to <CacheDir>/jobckpts; CheckpointInterval without any
	// directory is a configuration error. The directory also backs the
	// /v1/checkpoints endpoints allarm-router uses to migrate in-flight
	// jobs between shards.
	JobCheckpointDir string
	// Retain, when positive, evicts finished sweeps (and their persisted
	// specs and checkpoints) that reached a terminal state longer than
	// this ago, instead of keeping them for the daemon's lifetime. The
	// content-addressed result store is not affected: identical
	// re-submissions stay cache hits after the sweep itself is gone.
	Retain time.Duration
	// RunJob executes one simulation; nil means Job.RunCtx. Tests inject
	// gates and counters here. Implementations must honour ctx the way
	// Job.RunCtx does: drain latency is bounded by how promptly they
	// abort.
	RunJob func(ctx context.Context, j allarm.Job) (*allarm.Result, error)
	// Logf, when non-nil, receives one line per lifecycle event.
	Logf func(format string, args ...any)
	// Logger, when non-nil, is the structured logger: lifecycle events
	// go to it (at info) when Logf is nil, and the Handler emits one
	// request log line per request with method/route/status/duration and
	// the X-Allarm-Request-Id correlation id.
	Logger *slog.Logger
}

// Server is the daemon state: sweeps, uploaded traces, the result cache
// and the worker pool. Create with New, serve Handler, stop with Drain.
type Server struct {
	opts          Options
	workers       int
	mux           *http.ServeMux
	handler       http.Handler // mux behind the Guard (when configured)
	ctx           context.Context
	cancel        context.CancelFunc
	sem           chan struct{}
	cache         *tieredStore
	flights       flightGroup
	met           *metrics
	start         time.Time
	runJob        func(ctx context.Context, j allarm.Job) (*allarm.Result, error)
	sweepDir      string       // persisted sweep specs (restart recovery); "" = none
	traceDir      string       // persisted trace uploads; "" = none
	checkpointDir string       // drain checkpoints; "" = none
	jobCkptDir    string       // machine-state job checkpoints; "" = off
	ckptInterval  uint64       // events between job checkpoints
	waiting       atomic.Int64 // jobs blocked on the worker pool (preemption signal)

	mu       sync.Mutex
	draining bool
	sweeps   map[string]*sweepState
	order    []string
	traces   map[string]allarm.Workload
	traceIDs []string // upload order, oldest first (eviction)
	nextID   uint64
	resumed  map[string]bool // job keys resumed from a checkpoint (view flag)
	active   sync.WaitGroup
	actives  int // running sweep goroutines (metrics)
	// jobRefs maps an in-flight job key to every (sweep, index) running
	// it, so checkpoint/preempt/resume events — which happen deep in the
	// runner where only the Job is known — land on the right timelines,
	// including every sweep coalesced onto one flight.
	jobRefs map[string][]jobRef
}

// jobRef locates one job within one sweep's timeline.
type jobRef struct {
	st  *sweepState
	idx int
}

// New returns a ready Server. With Options.CacheDir set it also opens
// the disk result store and re-enqueues every persisted sweep (see
// Recover); the returned server is already running those.
func New(opts Options) (*Server, error) {
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.NumCPU()
		if opts.SimThreads > 1 {
			// Each running job occupies SimThreads cores; keep the
			// default pool from oversubscribing the machine.
			if workers = workers / opts.SimThreads; workers < 1 {
				workers = 1
			}
		}
	}
	entries := opts.CacheEntries
	if entries <= 0 {
		entries = DefaultCacheEntries
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		opts:          opts,
		workers:       workers,
		ctx:           ctx,
		cancel:        cancel,
		sem:           make(chan struct{}, workers),
		cache:         &tieredStore{lru: newResultCache(entries)},
		start:         time.Now(),
		runJob:        opts.RunJob,
		checkpointDir: opts.CheckpointDir,
		jobCkptDir:    opts.JobCheckpointDir,
		ckptInterval:  opts.CheckpointInterval,
		met:           newMetrics(),
		sweeps:        make(map[string]*sweepState),
		traces:        make(map[string]allarm.Workload),
		jobRefs:       make(map[string][]jobRef),
	}
	// Gauges read live server state at exposition time.
	s.met.reg.Gauge("allarm_uptime_seconds", "Seconds since the daemon started.",
		func() float64 { return time.Since(s.start).Seconds() })
	s.met.reg.Gauge("allarm_sweeps_active", "Sweeps currently running.",
		func() float64 { s.mu.Lock(); defer s.mu.Unlock(); return float64(s.actives) })
	s.met.reg.Gauge("allarm_draining", "1 while the daemon is draining.",
		func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			if s.draining {
				return 1
			}
			return 0
		})
	s.met.reg.Gauge("allarm_cache_entries", "Results in the in-memory cache.",
		func() float64 { return float64(s.cache.lru.Len()) })
	s.met.reg.Gauge("allarm_cache_capacity", "In-memory cache capacity.",
		func() float64 { return float64(s.cache.lru.cap) })
	s.met.reg.Gauge("allarm_sim_events_per_second", "Simulation events over accumulated busy time.",
		func() float64 {
			wallNs, events := s.met.simWallNs.Load(), s.met.simEvents.Load()
			if wallNs == 0 {
				return 0
			}
			return float64(events) / (float64(wallNs) / 1e9)
		})
	if s.ckptInterval > 0 && s.jobCkptDir == "" && opts.CacheDir != "" {
		s.jobCkptDir = filepath.Join(opts.CacheDir, "jobckpts")
	}
	if s.ckptInterval > 0 && s.jobCkptDir == "" {
		cancel()
		return nil, fmt.Errorf("CheckpointInterval needs JobCheckpointDir or CacheDir (nowhere to persist checkpoints)")
	}
	if s.jobCkptDir != "" {
		if err := os.MkdirAll(s.jobCkptDir, 0o755); err != nil {
			cancel()
			return nil, fmt.Errorf("job checkpoint dir: %w", err)
		}
	}
	switch {
	case s.runJob != nil:
		// Injected runner (tests) owns execution.
	case s.ckptInterval > 0:
		s.runJob = s.runCheckpointed
	default:
		s.runJob = func(ctx context.Context, j allarm.Job) (*allarm.Result, error) { return j.RunCtx(ctx) }
	}
	if opts.Store != nil {
		s.cache.disk = opts.Store
	}
	if opts.CacheDir != "" {
		if s.cache.disk == nil {
			disk, err := NewDiskStore(filepath.Join(opts.CacheDir, "results"))
			if err != nil {
				cancel()
				return nil, err
			}
			s.cache.disk = disk
		}
		s.sweepDir = filepath.Join(opts.CacheDir, "sweeps")
		s.traceDir = filepath.Join(opts.CacheDir, "traces")
		if s.checkpointDir == "" {
			s.checkpointDir = filepath.Join(opts.CacheDir, "checkpoints")
		}
		for _, dir := range []string{s.sweepDir, s.traceDir, s.checkpointDir} {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				cancel()
				return nil, fmt.Errorf("cache dir: %w", err)
			}
		}
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/sweeps", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/sweeps", s.handleList)
	s.mux.HandleFunc("GET /v1/sweeps/{id}", s.handleStatus)
	s.mux.HandleFunc("DELETE /v1/sweeps/{id}", s.handleDelete)
	s.mux.HandleFunc("GET /v1/sweeps/{id}/results", s.handleResults)
	s.mux.HandleFunc("GET /v1/sweeps/{id}/events", s.handleEvents)
	s.mux.HandleFunc("GET /v1/sweeps/{id}/timeline", s.handleTimeline)
	s.mux.HandleFunc("POST /v1/traces", s.handleTraceUpload)
	s.mux.HandleFunc("GET /v1/policies", s.handlePolicies)
	s.mux.HandleFunc("GET /v1/benchmarks", s.handleBenchmarks)
	s.mux.HandleFunc("GET /v1/version", handleVersion)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	if s.jobCkptDir != "" {
		s.mux.HandleFunc("GET /v1/checkpoints/{name}", s.handleCheckpointGet)
		s.mux.HandleFunc("POST /v1/checkpoints/{name}", s.handleCheckpointPut)
	}
	if opts.ObjectServeDir != "" {
		oh, err := ObjectHandler(opts.ObjectServeDir)
		if err != nil {
			cancel()
			return nil, err
		}
		s.mux.Handle("/v1/objects/", http.StripPrefix("/v1/objects", oh))
	}
	// pprof is admin-gated like the timeline: with a Guard the request
	// already carries a valid bearer token (Wrap 401s otherwise) and
	// adminOnly 403s non-admin clients; without -auth it is open,
	// matching /metrics conventions.
	s.mux.HandleFunc("/debug/pprof/", adminOnly(pprof.Index))
	s.mux.HandleFunc("/debug/pprof/cmdline", adminOnly(pprof.Cmdline))
	s.mux.HandleFunc("/debug/pprof/profile", adminOnly(pprof.Profile))
	s.mux.HandleFunc("/debug/pprof/symbol", adminOnly(pprof.Symbol))
	s.mux.HandleFunc("/debug/pprof/trace", adminOnly(pprof.Trace))
	// Request-id minting, request logging and per-route latency wrap
	// outside the Guard so rejected requests are observable too.
	s.handler = obs.Instrument(opts.Guard.Wrap(s.mux), obs.MiddlewareOptions{
		Logger:   opts.Logger,
		Registry: s.met.reg,
		Prefix:   "allarm_",
		Route: func(r *http.Request) string {
			_, pattern := s.mux.Handler(r)
			return pattern
		},
	})
	if err := s.recover(); err != nil {
		cancel()
		return nil, err
	}
	if opts.Retain > 0 {
		go s.janitor()
	}
	return s, nil
}

// Handler returns the daemon's HTTP handler (behind the Guard when one
// is configured).
func (s *Server) Handler() http.Handler { return s.handler }

// handleVersion reports the build's allarm.Version — how fleet
// operators (and allarm-router itself) verify shard/router build skew.
func handleVersion(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, map[string]string{"version": allarm.Version})
}

// Close cancels everything immediately (tests; production uses Drain)
// and waits for the cancelled sweeps to wind down, drain checkpoints
// included, so nothing writes to the cache directory after it returns.
func (s *Server) Close() {
	s.cancel()
	s.active.Wait()
}

func (s *Server) logf(format string, args ...any) {
	switch {
	case s.opts.Logf != nil:
		s.opts.Logf(format, args...)
	case s.opts.Logger != nil:
		s.opts.Logger.Info(fmt.Sprintf(format, args...))
	}
}

// adminOnly wraps an operational handler (pprof) behind the admin
// scope: 403 for authenticated non-admin clients, open when no Guard
// is configured.
func adminOnly(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if err := CheckAdmin(r); err != nil {
			writeError(w, http.StatusForbidden, err)
			return
		}
		h(w, r)
	}
}

// Drain shuts the daemon down gracefully: new sweep submissions are
// refused (503) immediately, then in-flight sweeps get until ctx
// expires to complete; after that, still-running sweeps are cancelled
// and checkpointed — their partial results stay fetchable (skipped
// jobs carry the cancellation error, aborted ones additionally their
// partial metrics) and, with a checkpoint directory, are written as
// <sweep-id>.ndjson. Cancellation reaches into the event loop itself
// (sim.RunCtx): an executing simulation aborts within one
// sim.CancelCheckBudget of events, so total drain time is bounded by
// the grace period plus one event budget — not by a full simulation.
// With a CacheDir, the cancelled sweeps' specs stay persisted, so the
// next daemon re-enqueues exactly the jobs that did not finish.
func (s *Server) Drain(ctx context.Context) {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	done := make(chan struct{})
	go func() {
		s.active.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		s.logf("drain grace expired; checkpointing in-flight sweeps")
		s.cancel()
		<-done
	}
	s.cancel()
}

// persistedSweep is the sweeps/<id>.json record a CacheDir daemon
// writes at submit time: everything needed to rebuild the sweep under
// its original id after a restart. It deliberately stores the request,
// not the expanded job list — buildSweep is deterministic, and
// re-expanding keeps the file format decoupled from Job's fields.
type persistedSweep struct {
	ID      string       `json:"id"`
	Created time.Time    `json:"created"`
	Request SweepRequest `json:"request"`
}

// persistSweep writes the sweep's spec for restart recovery (no-op
// without a CacheDir). Errors are logged, not fatal: durability
// degrades, serving does not.
func (s *Server) persistSweep(id string, created time.Time, req *SweepRequest) {
	if s.sweepDir == "" {
		return
	}
	data, err := json.Marshal(persistedSweep{ID: id, Created: created, Request: *req})
	if err == nil {
		err = AtomicWrite(filepath.Join(s.sweepDir, id+".json"), append(data, '\n'))
	}
	if err != nil {
		s.logf("sweep %s: persist: %v", id, err)
	}
}

// removeSweepFiles deletes a sweep's persisted spec and checkpoint
// (DELETE endpoint and -retain eviction).
func (s *Server) removeSweepFiles(id string) {
	if s.sweepDir != "" {
		os.Remove(filepath.Join(s.sweepDir, id+".json"))
	}
	if s.checkpointDir != "" {
		os.Remove(filepath.Join(s.checkpointDir, id+".ndjson"))
	}
}

// recover re-enqueues every persisted sweep at boot, in id order, under
// its original id. Jobs whose keys are already in the disk result
// store resolve as disk hits without re-simulating; only the missing
// jobs run. Corrupt or no-longer-buildable specs are logged and
// skipped, never fatal — the daemon must come up.
func (s *Server) recover() error {
	if s.sweepDir == "" {
		return nil
	}
	paths, err := filepath.Glob(filepath.Join(s.sweepDir, "*.json"))
	if err != nil {
		return err
	}
	sort.Strings(paths) // sw-%06d ids sort chronologically
	var states []*sweepState
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			s.logf("recover %s: %v", path, err)
			continue
		}
		var ps persistedSweep
		if err := json.Unmarshal(data, &ps); err != nil || ps.ID == "" {
			s.logf("recover %s: corrupt spec, skipping", path)
			continue
		}
		sweep, err := s.buildSweep(&ps.Request)
		if err != nil {
			s.logf("recover %s: %v", ps.ID, err)
			continue
		}
		var n uint64
		if _, err := fmt.Sscanf(ps.ID, "sw-%d", &n); err == nil && n > s.nextID {
			s.nextID = n
		}
		st := newSweepState(ps.ID, sweep, ps.Created)
		st.recovered = true
		s.sweeps[ps.ID] = st
		s.order = append(s.order, ps.ID)
		s.active.Add(1)
		s.actives++
		states = append(states, st)
	}
	for _, st := range states {
		s.met.sweepsRecovered.Add(1)
		// Recovery has no inbound request; mint a fresh correlation id so
		// the recovered run's timeline and logs still stitch together.
		st.reqID = obs.NewRequestID()
		st.timeline("accepted", -1, "recovered from persisted spec")
		st.timeline("expanded", -1, fmt.Sprintf("%d job(s)", st.total))
		s.logf("sweep %s: recovered from %s (%d jobs)", st.id, s.sweepDir, st.total)
		go s.runSweep(st)
	}
	return nil
}

// janitor periodically evicts finished sweeps older than Retain.
func (s *Server) janitor() {
	interval := s.opts.Retain / 4
	if interval < time.Second {
		interval = time.Second
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-s.ctx.Done():
			return
		case <-t.C:
			s.evictExpired()
		}
	}
}

// evictExpired removes finished sweeps that outlived the retention TTL
// (their persisted specs and checkpoints with them). It runs from the
// janitor and opportunistically from the listing handler so tests and
// bursty deployments see timely eviction without waiting a tick.
func (s *Server) evictExpired() {
	if s.opts.Retain <= 0 {
		return
	}
	cutoff := time.Now().Add(-s.opts.Retain)
	var evicted []string
	s.mu.Lock()
	kept := s.order[:0]
	for _, id := range s.order {
		if st := s.sweeps[id]; st != nil && st.expired(cutoff) {
			delete(s.sweeps, id)
			evicted = append(evicted, id)
			continue
		}
		kept = append(kept, id)
	}
	s.order = kept
	s.mu.Unlock()
	for _, id := range evicted {
		s.removeSweepFiles(id)
		s.met.sweepsExpired.Add(1)
		s.logf("sweep %s: expired after %s retention", id, s.opts.Retain)
	}
}

// SweepRequest is the POST /v1/sweeps body: seed workloads crossed with
// policies and probe-filter sizes, exactly like the Sweep combinators,
// plus optional explicit per-job specs (Jobs).
type SweepRequest struct {
	// Benchmarks are preset names; Workloads are "bench:NAME" or
	// "trace:ID" specs (IDs from POST /v1/traces). Together they seed
	// the crossed grid; at least one job (grid or explicit) is required.
	Benchmarks []string `json:"benchmarks,omitempty"`
	Workloads  []string `json:"workloads,omitempty"`
	// Policies are registered policy names (default: baseline only).
	Policies []string `json:"policies,omitempty"`
	// PFKiB are probe-filter coverages to cross (default: the config's).
	PFKiB []int `json:"pf_kib,omitempty"`
	// Jobs are explicit per-job specs appended after the crossed grid,
	// in order, NOT expanded by Policies/PFKiB — each carries its own.
	// They express arbitrary job subsets the cross-product cannot, which
	// is how allarm-router scatters a sweep: every shard receives
	// exactly its hash-assigned jobs as an explicit list, in the global
	// spec order, so the gathered results merge deterministically.
	Jobs []JobSpec `json:"jobs,omitempty"`
	// Config overrides the default experiment-scale configuration.
	Config *ConfigOverrides `json:"config,omitempty"`
}

// JobSpec pins down one job exactly: a workload under one policy and
// probe-filter size. Zero Policy/PFKiB keep the request config's
// defaults, so a spec expands to the same Job — and therefore the same
// golden-tested Job.Key — the crossed grid would have produced.
type JobSpec struct {
	// Workload is "bench:NAME" or "trace:ID".
	Workload string `json:"workload"`
	// Policy is a registered policy name ("" = the config's default).
	Policy string `json:"policy,omitempty"`
	// PFKiB is the probe-filter coverage (0 = the config's default).
	PFKiB int `json:"pf_kib,omitempty"`
}

// ConfigOverrides are the Config fields the API exposes; zero values
// keep the server default (ExperimentConfig, the CLI tools' default).
type ConfigOverrides struct {
	Threads           int     `json:"threads,omitempty"`
	AccessesPerThread int     `json:"accesses_per_thread,omitempty"`
	Seed              *uint64 `json:"seed,omitempty"`
	// FullScale selects the unscaled Table I SRAM sizes (DefaultConfig).
	FullScale       bool `json:"full_scale,omitempty"`
	CheckInvariants bool `json:"check_invariants,omitempty"`
}

// SubmitResponse is the POST /v1/sweeps reply.
type SubmitResponse struct {
	ID      string `json:"id"`
	Jobs    int    `json:"jobs"`
	Status  string `json:"status_url"`
	Results string `json:"results_url"`
	Events  string `json:"events_url"`
}

// buildSweep validates the request and expands it into a Sweep,
// resolving trace:ID workloads against the upload store (memory first,
// then the persisted copy).
func (s *Server) buildSweep(req *SweepRequest) (*allarm.Sweep, error) {
	return ExpandSweep(req, s.lookupTrace)
}

// lookupTrace resolves an uploaded trace id, falling back to the
// persisted upload when it is not in memory (restart, or evicted
// beyond maxTraces).
func (s *Server) lookupTrace(id string) allarm.Workload {
	s.mu.Lock()
	wl := s.traces[id]
	s.mu.Unlock()
	if wl == nil {
		wl = s.loadTraceFromDisk(id)
	}
	return wl
}

// RequestConfig resolves a request's configuration: the experiment-
// scale default with the request's overrides applied. It is split from
// ExpandSweep because allarm-router needs the same resolution to
// compute shard-local Job.Keys.
func RequestConfig(o *ConfigOverrides) allarm.Config {
	cfg := allarm.ExperimentConfig()
	if o != nil {
		if o.FullScale {
			cfg = allarm.DefaultConfig()
		}
		if o.Threads > 0 {
			cfg.Threads = o.Threads
		}
		if o.AccessesPerThread > 0 {
			cfg.AccessesPerThread = o.AccessesPerThread
		}
		if o.Seed != nil {
			cfg.Seed = *o.Seed
		}
		cfg.CheckInvariants = o.CheckInvariants
	}
	return cfg
}

// ExpandSweep validates req and expands it into a Sweep: the crossed
// grid (Benchmarks/Workloads × Policies × PFKiB) followed by the
// explicit Jobs, in order. traces resolves "trace:ID" workload specs
// (nil means traces are not supported). The expansion is deterministic
// — the same request always yields the same jobs in the same order —
// which both restart recovery and the router's scatter/gather merge
// depend on. It is exported for allarm-router, which must expand a
// request exactly like the shards it scatters to.
func ExpandSweep(req *SweepRequest, traces func(id string) allarm.Workload) (*allarm.Sweep, error) {
	cfg := RequestConfig(req.Config)

	known := make(map[string]bool)
	for _, b := range allarm.Benchmarks() {
		known[b] = true
	}
	resolve := func(spec string) (allarm.Job, error) {
		job := allarm.Job{Config: cfg}
		switch {
		case strings.HasPrefix(spec, "bench:"):
			name := strings.TrimPrefix(spec, "bench:")
			if !known[name] {
				return job, fmt.Errorf("unknown benchmark %q (see GET /v1/benchmarks)", name)
			}
			job.Benchmark = name
		case strings.HasPrefix(spec, "trace:"):
			id := strings.TrimPrefix(spec, "trace:")
			var wl allarm.Workload
			if traces != nil {
				wl = traces(id)
			}
			if wl == nil {
				return job, fmt.Errorf("unknown trace %q (upload with POST /v1/traces)", id)
			}
			job.Workload = wl
		default:
			return job, fmt.Errorf("workload %q: want bench:NAME or trace:ID", spec)
		}
		return job, nil
	}

	var jobs []allarm.Job
	for _, b := range req.Benchmarks {
		if !known[b] {
			return nil, fmt.Errorf("unknown benchmark %q (see GET /v1/benchmarks)", b)
		}
		jobs = append(jobs, allarm.Job{Benchmark: b, Config: cfg})
	}
	for _, spec := range req.Workloads {
		job, err := resolve(spec)
		if err != nil {
			return nil, err
		}
		jobs = append(jobs, job)
	}

	sweep := allarm.NewSweep(jobs...)
	if len(req.Policies) > 0 {
		pols := make([]allarm.Policy, len(req.Policies))
		for i, name := range req.Policies {
			p, err := allarm.ParsePolicy(name)
			if err != nil {
				return nil, err
			}
			pols[i] = p
		}
		sweep.CrossPolicies(pols...)
	}
	if len(req.PFKiB) > 0 {
		sizes := make([]int, len(req.PFKiB))
		for i, kib := range req.PFKiB {
			if kib <= 0 {
				return nil, fmt.Errorf("pf_kib must be positive, got %d", kib)
			}
			sizes[i] = kib << 10
		}
		sweep.CrossPFSizes(sizes...)
	}

	// Explicit jobs ride after the grid, uncrossed: each spec carries
	// its own policy and probe-filter size.
	for _, js := range req.Jobs {
		job, err := resolve(js.Workload)
		if err != nil {
			return nil, err
		}
		if js.Policy != "" {
			p, err := allarm.ParsePolicy(js.Policy)
			if err != nil {
				return nil, err
			}
			job.Config.Policy = p
		}
		if js.PFKiB < 0 {
			return nil, fmt.Errorf("pf_kib must be positive, got %d", js.PFKiB)
		}
		if js.PFKiB > 0 {
			job.Config.PFBytes = js.PFKiB << 10
		}
		sweep.Add(job)
	}

	if sweep.Len() == 0 {
		return nil, fmt.Errorf("empty sweep: give at least one benchmark, workload or job")
	}
	return sweep, nil
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req SweepRequest
	body := http.MaxBytesReader(w, r.Body, maxSubmitBytes)
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return
	}
	sweep, err := s.buildSweep(&req)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if err := CheckJobQuota(r, sweep.Len()); err != nil {
		writeError(w, http.StatusForbidden, err)
		return
	}

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		writeError(w, http.StatusServiceUnavailable, fmt.Errorf("draining: not accepting new sweeps"))
		return
	}
	s.nextID++
	id := fmt.Sprintf("sw-%06d", s.nextID)
	created := time.Now()
	st := newSweepState(id, sweep, created)
	s.sweeps[id] = st
	s.order = append(s.order, id)
	s.active.Add(1)
	s.actives++
	s.mu.Unlock()

	// Persist the spec before acknowledging: once the client holds the
	// id, a crash must not forget the sweep.
	s.persistSweep(id, created, &req)
	s.met.sweepsSubmitted.Add(1)
	st.reqID = obs.RequestID(r.Context())
	st.timeline("accepted", -1, "")
	st.timeline("expanded", -1, fmt.Sprintf("%d job(s)", sweep.Len()))
	s.logf("sweep %s: %d jobs submitted", id, sweep.Len())
	go s.runSweep(st)

	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusAccepted)
	writeJSON(w, SubmitResponse{
		ID: id, Jobs: sweep.Len(),
		Status:  "/v1/sweeps/" + id,
		Results: "/v1/sweeps/" + id + "/results",
		Events:  "/v1/sweeps/" + id + "/events",
	})
}

// runSweep drives one sweep through a Runner whose Exec is the cached,
// coalesced, pool-bounded executor.
func (s *Server) runSweep(st *sweepState) {
	defer func() {
		s.mu.Lock()
		s.actives--
		s.mu.Unlock()
		s.active.Done()
	}()
	runner := &allarm.Runner{
		// Per-sweep fan-out matches the pool width; the pool itself is
		// enforced globally in exec, so concurrent sweeps share — not
		// multiply — the simulation workers. Cache hits and coalesced
		// jobs resolve without occupying a pool slot.
		Parallelism: s.workers,
		Start: func(i, _ int, j allarm.Job) {
			s.registerJobRef(j.Key(), st, i)
			st.jobStarted(i)
		},
		JobDone: func(i, _ int, r allarm.SweepResult) {
			s.unregisterJobRef(r.Job.Key(), st, i)
			st.jobFinished(i, r, s.takeResumed(r.Job.Key()))
		},
		Exec: s.exec,
	}
	results, runErr := runner.Run(s.ctx, st.sweep)
	checkpointed := runErr != nil
	st.finish(results, checkpointed)
	if checkpointed {
		s.met.sweepsCheckpointed.Add(1)
		s.checkpoint(st, results)
		s.logf("sweep %s: checkpointed with %d/%d jobs done", st.id, st.view().Done, st.total)
		return
	}
	s.met.sweepsCompleted.Add(1)
	s.logf("sweep %s: done (%d jobs)", st.id, st.total)
}

// checkpoint writes a cancelled sweep's partial results as NDJSON
// (aborted jobs carry their partial metrics and "aborted":true). Like
// every other cache-dir file it is written atomically, so a kill
// during shutdown never leaves a torn checkpoint.
func (s *Server) checkpoint(st *sweepState, results []allarm.SweepResult) {
	if s.checkpointDir == "" {
		return
	}
	path := filepath.Join(s.checkpointDir, st.id+".ndjson")
	var buf bytes.Buffer
	if err := (allarm.NDJSONEmitter{}).Emit(&buf, results); err != nil {
		s.logf("sweep %s: checkpoint: %v", st.id, err)
		return
	}
	if err := AtomicWrite(path, buf.Bytes()); err != nil {
		s.logf("sweep %s: checkpoint: %v", st.id, err)
		return
	}
	s.logf("sweep %s: partial results checkpointed to %s", st.id, path)
}

// exec runs one job through the two-tier cache, the singleflight group
// and the bounded pool, in that order. It is the Runner.Exec of every
// sweep, so its outcome for a job must equal Job.RunCtx's — it only
// ever returns a result the simulator produced for exactly this key.
func (s *Server) exec(ctx context.Context, job allarm.Job) (*allarm.Result, error) {
	key := job.Key()
	if res, src := s.cache.Get(key); src != tierNone {
		s.countHit(src)
		return res, nil
	}
	fl, leader := s.flights.join(key)
	if !leader {
		s.met.coalesced.Add(1)
		select {
		case <-fl.done:
			return fl.res, fl.err
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}

	res, err := s.lead(ctx, key, job)
	s.flights.finish(key, fl, res, err)
	return res, err
}

func (s *Server) countHit(src tier) {
	s.met.cacheHits.Add(1)
	if src == tierDisk {
		s.met.cacheDiskHits.Add(1)
	}
}

// lead executes a flight's simulation as its leader.
func (s *Server) lead(ctx context.Context, key string, job allarm.Job) (*allarm.Result, error) {
	// Re-check the cache: the flight we would have followed may have
	// finished between our cache probe and taking leadership.
	if res, src := s.cache.Get(key); src != tierNone {
		s.countHit(src)
		return res, nil
	}
	// The waiting counter is the preemption signal: while it is
	// non-zero, a checkpointing long job inside the pool yields its slot
	// at the next checkpoint boundary (see runCheckpointed).
	s.waiting.Add(1)
	enqueued := time.Now()
	select {
	case s.sem <- struct{}{}:
		s.waiting.Add(-1)
	case <-ctx.Done():
		s.waiting.Add(-1)
		return nil, ctx.Err()
	}
	defer func() { <-s.sem }()
	s.met.queueWait.ObserveSince(enqueued)

	s.met.cacheMisses.Add(1)
	if s.opts.SimThreads > 0 {
		// Execution-time knob only: the key the result is cached under
		// was computed before this (SimThreads is excluded from Job.Key
		// because results are thread-count-invariant).
		job.Config.SimThreads = s.opts.SimThreads
	}
	start := time.Now()
	res, err := s.runJob(ctx, job)
	s.met.jobsRun.Add(1)
	s.met.jobDuration.ObserveSince(start)
	if err != nil {
		switch {
		case !allarm.IsCancellation(err):
			s.met.jobErrors.Add(1)
		case res != nil:
			// Counted here, at the one simulation the flight actually
			// interrupted — coalesced followers sharing the partial
			// result must not inflate the metric.
			s.met.jobsAborted.Add(1)
		}
		// An aborted job's partial result travels with its error so the
		// sweep can checkpoint it — but it is never cached: only
		// complete results are content-addressed.
		return res, err
	}
	s.met.simEvents.Add(res.Events)
	s.met.simWallNs.Add(uint64(time.Since(start).Nanoseconds()))
	if err := s.cache.Add(key, res); err != nil {
		s.logf("result store: %s: %v", key, err)
	}
	return res, nil
}

func (s *Server) lookup(id string) *sweepState {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sweeps[id]
}

// registerJobRef records that sweep st's job idx is in flight under
// key, so runner-level events (checkpoint, preempt, resume) reach its
// timeline.
func (s *Server) registerJobRef(key string, st *sweepState, idx int) {
	s.mu.Lock()
	s.jobRefs[key] = append(s.jobRefs[key], jobRef{st, idx})
	s.mu.Unlock()
}

func (s *Server) unregisterJobRef(key string, st *sweepState, idx int) {
	s.mu.Lock()
	refs := s.jobRefs[key]
	for i, ref := range refs {
		if ref.st == st && ref.idx == idx {
			refs = append(refs[:i], refs[i+1:]...)
			break
		}
	}
	if len(refs) == 0 {
		delete(s.jobRefs, key)
	} else {
		s.jobRefs[key] = refs
	}
	s.mu.Unlock()
}

// jobEvent fans a runner-level event out to the timeline of every
// sweep currently running the job — with coalescing, one execution can
// serve several sweeps, and each should see the event.
func (s *Server) jobEvent(key, event, detail string) {
	s.mu.Lock()
	refs := append([]jobRef(nil), s.jobRefs[key]...)
	s.mu.Unlock()
	for _, ref := range refs {
		ref.st.timeline(event, ref.idx, detail)
	}
}

// handleTimeline serves a sweep's lifecycle timeline. Operational
// detail (which shard, when preempted) is admin-scoped under -auth,
// like pprof and membership mutation; open otherwise.
func (s *Server) handleTimeline(w http.ResponseWriter, r *http.Request) {
	if err := CheckAdmin(r); err != nil {
		writeError(w, http.StatusForbidden, err)
		return
	}
	st := s.lookup(r.PathValue("id"))
	if st == nil {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown sweep %q", r.PathValue("id")))
		return
	}
	events := st.tl.Snapshot()
	obs.SortEvents(events)
	writeJSON(w, obs.TimelineView{ID: st.id, Events: events})
}

// handleDelete evicts a finished sweep from the job store — its state,
// persisted spec and checkpoint. Running sweeps are not deletable
// (409): cancel-by-delete would complicate drain semantics for little
// gain. The content-addressed result cache is untouched, so deleting a
// sweep never costs a future submission its cache hits.
func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	st := s.sweeps[id]
	if st == nil {
		s.mu.Unlock()
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown sweep %q", id))
		return
	}
	if !st.terminal() {
		s.mu.Unlock()
		writeError(w, http.StatusConflict, fmt.Errorf("sweep %s is still running; only finished sweeps can be deleted", id))
		return
	}
	delete(s.sweeps, id)
	for i, oid := range s.order {
		if oid == id {
			s.order = append(s.order[:i], s.order[i+1:]...)
			break
		}
	}
	s.mu.Unlock()
	s.removeSweepFiles(id)
	s.met.sweepsDeleted.Add(1)
	s.logf("sweep %s: deleted", id)
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.evictExpired()
	s.mu.Lock()
	states := make([]*sweepState, 0, len(s.order))
	for _, id := range s.order {
		states = append(states, s.sweeps[id])
	}
	s.mu.Unlock()
	views := make([]SweepView, len(states))
	for i, st := range states {
		views[i] = st.view()
	}
	writeJSON(w, views)
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	st := s.lookup(r.PathValue("id"))
	if st == nil {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown sweep %q", r.PathValue("id")))
		return
	}
	writeJSON(w, st.view())
}

// handleResults renders a finished sweep through the library emitters,
// negotiated via ?format= (json, ndjson, csv, table) or the Accept
// header. The bytes are identical to what the same emitter produces
// over a local RunSweep of the same jobs.
func (s *Server) handleResults(w http.ResponseWriter, r *http.Request) {
	st := s.lookup(r.PathValue("id"))
	if st == nil {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown sweep %q", r.PathValue("id")))
		return
	}
	results, status, ok := st.snapshot()
	if !ok {
		writeError(w, http.StatusConflict, fmt.Errorf("sweep %s is %s; results are available once it is done", st.id, status))
		return
	}
	format, err := NegotiateFormat(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	emitter, ctype := FormatEmitter(format)
	w.Header().Set("Content-Type", ctype)
	if err := emitter.Emit(w, results); err != nil {
		s.logf("sweep %s: emit: %v", st.id, err)
	}
}

// FormatEmitter maps a negotiated format name to its emitter and
// content type. Exported for allarm-router, which renders gathered
// Records through exactly these emitters — the single code path is
// what makes fleet output byte-identical to a single daemon's.
func FormatEmitter(format string) (allarm.RecordEmitter, string) {
	switch format {
	case "csv":
		return allarm.CSVEmitter{}, "text/csv; charset=utf-8"
	case "ndjson":
		return allarm.NDJSONEmitter{}, "application/x-ndjson"
	case "table":
		return &allarm.TableEmitter{}, "text/plain; charset=utf-8"
	default:
		return allarm.JSONEmitter{Indent: true}, "application/json"
	}
}

// NegotiateFormat picks the results rendering: an explicit ?format=
// wins (unknown values are an error, like every other request field),
// then the Accept header, then JSON. Exported for allarm-router, whose
// results endpoint must negotiate exactly like the shards'.
func NegotiateFormat(r *http.Request) (string, error) {
	switch f := r.URL.Query().Get("format"); f {
	case "csv", "ndjson", "table", "json":
		return f, nil
	case "":
	default:
		return "", fmt.Errorf("unknown format %q (want json, ndjson, csv or table)", f)
	}
	accept := r.Header.Get("Accept")
	for _, want := range []struct{ mime, format string }{
		{"text/csv", "csv"},
		{"application/x-ndjson", "ndjson"},
		{"text/plain", "table"},
	} {
		if strings.Contains(accept, want.mime) {
			return want.format, nil
		}
	}
	return "json", nil
}

// handleEvents streams a sweep's progress as Server-Sent Events: one
// "job" event per job start/finish and one "sweep" event per lifecycle
// transition. New subscribers first replay the full history, so a late
// subscriber still sees every transition; the stream ends when the
// sweep is final.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	st := s.lookup(r.PathValue("id"))
	if st == nil {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown sweep %q", r.PathValue("id")))
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, fmt.Errorf("streaming unsupported"))
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()

	poke := st.subscribe()
	defer st.unsubscribe(poke)
	sent := 0
	for {
		evs, final := st.eventsSince(sent)
		for _, e := range evs {
			fmt.Fprintf(w, "event: %s\ndata: %s\n\n", e.Type, e.Data)
		}
		if len(evs) > 0 {
			sent += len(evs)
			flusher.Flush()
		}
		if final {
			// Drain any events published between eventsSince and here.
			if evs, _ := st.eventsSince(sent); len(evs) == 0 {
				return
			}
			continue
		}
		select {
		case <-poke:
		case <-r.Context().Done():
			return
		case <-st.finished:
		}
	}
}

// TraceResponse is the POST /v1/traces reply. Uploads are
// content-addressed: the id is a hash of the trace bytes, re-uploading
// identical bytes returns the same id, and jobs reference the trace as
// "trace:<id>" in SweepRequest.Workloads.
type TraceResponse struct {
	ID       string `json:"id"`
	Workload string `json:"workload"`
	Threads  int    `json:"threads"`
}

func (s *Server) handleTraceUpload(w http.ResponseWriter, r *http.Request) {
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxTraceBytes))
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("reading trace: %w", err))
		return
	}
	// The full digest is the id: the address is correctness-bearing (a
	// collision would serve the wrong workload and poison its cache
	// lineage), so it is not truncated.
	sum := sha256.Sum256(data)
	id := "tr-" + hex.EncodeToString(sum[:])

	s.mu.Lock()
	wl, exists := s.traces[id]
	s.mu.Unlock()
	if !exists {
		// The workload is named by the content hash so Job.Key — and
		// therefore the result cache — distinguishes distinct traces
		// and unifies identical ones, whatever they were called locally.
		wl, err = allarm.ReadTraceNamed(bytes.NewReader(data), id)
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("parsing trace: %w", err))
			return
		}
		s.mu.Lock()
		if cur, ok := s.traces[id]; ok {
			wl = cur // lost a racing identical upload; keep one instance
		} else {
			s.traces[id] = wl
			s.traceIDs = append(s.traceIDs, id)
			// Bound the store: each entry pins a parsed replay, so the
			// oldest upload is dropped beyond maxTraces (in-flight
			// sweeps hold their own reference and are unaffected).
			for len(s.traceIDs) > maxTraces {
				delete(s.traces, s.traceIDs[0])
				s.traceIDs = s.traceIDs[1:]
			}
		}
		s.mu.Unlock()
		s.met.tracesUploaded.Add(1)
		s.logf("trace %s: %d bytes, %d threads", id, len(data), wl.Threads())
		if s.traceDir != "" {
			// Persist the raw bytes so "trace:ID" specs survive restarts
			// (the id is the content hash, so the file is immutable).
			if err := AtomicWrite(filepath.Join(s.traceDir, id), data); err != nil {
				s.logf("trace %s: persist: %v", id, err)
			}
		}
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusCreated)
	writeJSON(w, TraceResponse{ID: id, Workload: "trace:" + id, Threads: wl.Threads()})
}

// loadTraceFromDisk re-parses a persisted trace upload and re-installs
// it in the in-memory store. Returns nil when the trace is unknown (or
// no trace directory is configured).
func (s *Server) loadTraceFromDisk(id string) allarm.Workload {
	if s.traceDir == "" {
		return nil
	}
	data, err := os.ReadFile(filepath.Join(s.traceDir, id))
	if err != nil {
		return nil
	}
	wl, err := allarm.ReadTraceNamed(bytes.NewReader(data), id)
	if err != nil {
		s.logf("trace %s: reload: %v", id, err)
		return nil
	}
	s.mu.Lock()
	if cur, ok := s.traces[id]; ok {
		wl = cur
	} else {
		s.traces[id] = wl
		s.traceIDs = append(s.traceIDs, id)
		for len(s.traceIDs) > maxTraces {
			delete(s.traces, s.traceIDs[0])
			s.traceIDs = s.traceIDs[1:]
		}
	}
	s.mu.Unlock()
	return wl
}

func (s *Server) handlePolicies(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, allarm.DescribePolicies())
}

func (s *Server) handleBenchmarks(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, allarm.DescribeBenchmarks())
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	status := "ok"
	if draining {
		status = "draining"
	}
	writeJSON(w, map[string]string{"status": status})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	// ?format=prometheus (or a text/plain Accept, what scrapers send)
	// selects text exposition; the default stays the flat JSON object,
	// whose existing field names are a compatibility contract.
	if obs.WantsPrometheus(r) {
		w.Header().Set("Content-Type", obs.PrometheusContentType)
		s.met.reg.WritePrometheus(w)
		return
	}
	s.mu.Lock()
	draining, actives := s.draining, s.actives
	s.mu.Unlock()
	wallNs := s.met.simWallNs.Load()
	events := s.met.simEvents.Load()
	// The headline rate is events over accumulated busy time, so it
	// reflects simulator throughput and holds steady while the daemon
	// idles; the uptime-based rate is exposed alongside for comparison.
	perSec := 0.0
	if wallNs > 0 {
		perSec = float64(events) / (float64(wallNs) / 1e9)
	}
	uptime := time.Since(s.start).Seconds()
	perUptimeSec := 0.0
	if uptime > 0 {
		perUptimeSec = float64(events) / uptime
	}
	m := Metrics{
		UptimeSeconds:         uptime,
		Draining:              draining,
		SweepsSubmitted:       s.met.sweepsSubmitted.Load(),
		SweepsActive:          uint64(actives),
		SweepsCompleted:       s.met.sweepsCompleted.Load(),
		SweepsCheckpointed:    s.met.sweepsCheckpointed.Load(),
		SweepsRecovered:       s.met.sweepsRecovered.Load(),
		SweepsDeleted:         s.met.sweepsDeleted.Load(),
		SweepsExpired:         s.met.sweepsExpired.Load(),
		JobsRun:               s.met.jobsRun.Load(),
		JobsAborted:           s.met.jobsAborted.Load(),
		JobErrors:             s.met.jobErrors.Load(),
		CacheHits:             s.met.cacheHits.Load(),
		CacheDiskHits:         s.met.cacheDiskHits.Load(),
		CacheMisses:           s.met.cacheMisses.Load(),
		InflightCoalesced:     s.met.coalesced.Load(),
		CacheEntries:          s.cache.lru.Len(),
		CacheCapacity:         s.cache.lru.cap,
		TracesUploaded:        s.met.tracesUploaded.Load(),
		SimEventsTotal:        events,
		SimEventsPerSec:       perSec,
		SimBusySeconds:        float64(wallNs) / 1e9,
		SimEventsPerUptimeSec: perUptimeSec,
		CheckpointsWritten:    s.met.checkpointsWritten.Load(),
		CheckpointBytes:       s.met.checkpointBytes.Load(),
		JobsResumed:           s.met.jobsResumed.Load(),
		JobsPreempted:         s.met.jobsPreempted.Load(),
	}
	if s.cache.disk != nil {
		m.DiskEntries = s.cache.disk.Len()
	}
	writeJSON(w, m)
}

func writeJSON(w http.ResponseWriter, v any) {
	if w.Header().Get("Content-Type") == "" {
		w.Header().Set("Content-Type", "application/json")
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}
