package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"time"

	allarm "allarm"
)

// simWorkload is one whole-simulation workload: a preset run under
// baseline, then under allarm, one at a time.
type simWorkload struct {
	bench    string
	accesses int // per thread
}

var simWorkloads = map[string]simWorkload{
	// Read-mostly data homed at node 0: the directory, probe filter,
	// coherence and NoC layers do the most work.
	"sim-blackscholes": {"blackscholes", 20_000},
	// Write-heavy, cache-resident partitions: the event heap and cache
	// arrays dominate, the probe filter never evicts under allarm.
	"sim-ocean": {"ocean-cont", 20_000},
}

var pairPolicies = [2]allarm.Policy{allarm.Baseline, allarm.ALLARM}

const (
	// setupReps is how many extra times each run builds both machines
	// before the timed region, so setup_s is a median of several.
	setupReps = 25
	// seekWindow is the Step window while seeking the snapshot point.
	seekWindow = 1 << 16
)

func (w simWorkload) job(pol allarm.Policy, seed uint64) allarm.Job {
	cfg := allarm.ExperimentConfig()
	cfg.Policy = pol
	cfg.AccessesPerThread = w.accesses
	cfg.Seed = seed
	return allarm.Job{Benchmark: w.bench, Config: cfg}
}

// pairSample is one measured pair. setup, sim and latency are CPU
// times of the simulating thread; wall is the pair's wall time.
type pairSample struct {
	setup, sim, latency, wall time.Duration
	use                       usage
	events                    uint64
}

// simRun is the state of one sim-* invocation.
type simRun struct {
	w      simWorkload
	seed   uint64
	rep    *report
	ref    [2]*allarm.Result // first results, the determinism reference
	loop   closedLoop
	setups []float64
	op     uint64 // last operation id
}

func runSim(cfg runConfig, w simWorkload) *report {
	// Every simulation runs on this goroutine, which StartJob, Step and
	// Result never leave, so the thread's CPU clock times them.
	runtime.LockOSThread()
	r := &simRun{w: w, seed: cfg.seed, rep: newReport()}
	for i := 0; i < setupReps; i++ {
		var total time.Duration
		for _, pol := range pairPolicies {
			c0 := threadCPU()
			if _, err := allarm.StartJob(w.job(pol, r.seed)); err != nil {
				r.rep.problem("setup %s: %v", pol, err)
			}
			total += threadCPU() - c0
		}
		r.setups = append(r.setups, total.Seconds())
	}

	if !cfg.traced {
		r.endToEnd(r.phase(cfg.budget, nil, false))
	} else {
		untraced := r.phase(cfg.budget/2, nil, false)
		var traced []pairSample
		tr, shares, cpu := tracedPhase(cfg, r.rep, func(tr *tracer) {
			traced = r.phase(cfg.budget/2, tr, true)
		})
		r.perLayer(untraced, traced, tr, shares, cpu)
	}
	r.rep.attempted, r.rep.failed = r.loop.attempted(), r.loop.failed
	return r.rep
}

// phase runs pairs until the budget would be exceeded by one more pair
// of the last pair's length (at least one pair). With a tracer and
// snapshot set, the first pair is a snapshot/resume pair checked against
// the uninterrupted reference; it is not returned as a sample.
func (r *simRun) phase(budget time.Duration, tr *tracer, snapshot bool) []pairSample {
	var out []pairSample
	start := time.Now()
	var last time.Duration
	if snapshot && r.ref[0] != nil {
		r.op++
		t0, c0 := time.Now(), threadCPU()
		if err := r.snapshotPair(tr, r.op); err != nil {
			r.loop.fail()
			r.rep.problem("snapshot/resume: %v", err)
		} else {
			r.loop.ok(threadCPU() - c0)
		}
		last = time.Since(t0)
	}
	for n := 0; n == 0 || time.Since(start)+last <= budget; n++ {
		r.op++
		ps, err := r.pair(tr, r.op)
		if err != nil {
			r.loop.fail()
			r.rep.problem("pair %d: %v", r.op, err)
			break
		}
		r.loop.ok(ps.latency)
		fmt.Fprintf(os.Stderr, "pair %d: sim %.4fs latency %.4fs wall %.4fs process cpu %.4fs\n",
			r.op, ps.sim.Seconds(), ps.latency.Seconds(), ps.wall.Seconds(), ps.use.cpu.Seconds())
		last = ps.wall
		out = append(out, ps)
	}
	return out
}

// pair simulates baseline then allarm and checks both results.
func (r *simRun) pair(tr *tracer, op uint64) (pairSample, error) {
	var ps pairSample
	root := tr.start("pair", 0, op)
	defer tr.end(root)
	use := usageNow()
	t0, c0 := time.Now(), threadCPU()
	var res [2]*allarm.Result
	for i, pol := range pairPolicies {
		job := r.w.job(pol, r.seed)
		out, setup, sim, err := simulate(job, tr, root, op)
		if err != nil {
			return ps, err
		}
		if err := r.check(i, job, out); err != nil {
			return ps, err
		}
		res[i] = out
		ps.setup += setup
		ps.sim += sim
		ps.events += out.Events
	}
	ps.latency = threadCPU() - c0
	ps.wall = time.Since(t0)
	ps.use = use.since()
	r.setups = append(r.setups, ps.setup.Seconds())
	if r.ref[0] == nil {
		r.ref = res
		r.rep.digest = digest(r.w, r.seed, res)
	}
	return ps, nil
}

// check applies the output checks to policy i's result: no error, not
// partial, every access simulated, and bit-identical to the first run
// of the same job.
func (r *simRun) check(i int, job allarm.Job, res *allarm.Result) error {
	if res.Partial {
		return fmt.Errorf("%s: partial result", job.Config.Policy)
	}
	if want := uint64(job.Config.Threads * job.Config.AccessesPerThread); res.Accesses != want {
		return fmt.Errorf("%s: %d accesses, want %d", job.Config.Policy, res.Accesses, want)
	}
	if ref := r.ref[i]; ref != nil {
		if f := diffResult(ref, res); f != "" {
			return fmt.Errorf("%s: field %s differs from the first run of the same job", job.Config.Policy, f)
		}
	}
	return nil
}

// simulate runs one job through StartJob, Step and Result, returning
// the thread CPU time of StartJob (setup) and from the first Step to
// Result (sim).
func simulate(job allarm.Job, tr *tracer, parent, op uint64) (*allarm.Result, time.Duration, time.Duration, error) {
	sp := tr.start("system.build", parent, op)
	c0 := threadCPU()
	h, err := allarm.StartJob(job)
	c1 := threadCPU()
	tr.end(sp)
	if err != nil {
		return nil, 0, 0, err
	}
	res, err := finish(h, tr, parent, op)
	return res, c1 - c0, threadCPU() - c1, err
}

// finish steps h to completion and returns its Result.
func finish(h *allarm.RunHandle, tr *tracer, parent, op uint64) (*allarm.Result, error) {
	sp := tr.start("sim.step", parent, op)
	for done := false; !done; {
		var err error
		if done, err = h.Step(context.Background(), 0); err != nil {
			tr.end(sp)
			return nil, err
		}
	}
	tr.end(sp)
	sp = tr.start("system.finish", parent, op)
	defer tr.end(sp)
	return h.Result()
}

// snapshotPair runs each policy to about half its events, snapshots it
// to memory, resumes a new handle from the snapshot and finishes that;
// the result must equal the uninterrupted run's field by field.
func (r *simRun) snapshotPair(tr *tracer, op uint64) error {
	root := tr.start("pair", 0, op)
	defer tr.end(root)
	for i, pol := range pairPolicies {
		if err := r.snapshotResume(i, r.w.job(pol, r.seed), tr, root, op); err != nil {
			return fmt.Errorf("%s: %w", pol, err)
		}
	}
	return nil
}

func (r *simRun) snapshotResume(i int, job allarm.Job, tr *tracer, parent, op uint64) error {
	sp := tr.start("system.build", parent, op)
	h, err := allarm.StartJob(job)
	tr.end(sp)
	if err != nil {
		return err
	}
	sp = tr.start("sim.step", parent, op)
	for h.Events() < r.ref[i].Events/2 || !h.CanSnapshot() {
		done, err := h.Step(context.Background(), seekWindow)
		if err != nil || done {
			tr.end(sp)
			return fmt.Errorf("no snapshot point before the end of the run (err %v)", err)
		}
	}
	tr.end(sp)
	var buf bytes.Buffer
	sp = tr.start("checkpoint.snapshot", parent, op)
	err = h.Snapshot(&buf)
	tr.end(sp)
	if err != nil {
		return err
	}
	r.rep.metrics["checkpoint.bytes"] = float64(buf.Len())
	sp = tr.start("checkpoint.restore", parent, op)
	resumed, err := allarm.ResumeJob(job, bytes.NewReader(buf.Bytes()))
	tr.end(sp)
	if err != nil {
		return err
	}
	res, err := finish(resumed, tr, parent, op)
	if err != nil {
		return err
	}
	return r.check(i, job, res)
}

// endToEnd derives the untraced run's metrics from its pairs. Its
// times are the simulating thread's CPU times, so ops_per_s counts
// pairs per second of that thread's CPU.
func (r *simRun) endToEnd(pairs []pairSample) {
	m := r.rep.metrics
	if len(pairs) == 0 {
		return
	}
	var sim, rate, cpu, alloc, lat []float64
	var busy time.Duration
	for _, p := range pairs {
		busy += p.latency
		sim = append(sim, p.sim.Seconds())
		rate = append(rate, float64(p.events)/p.sim.Seconds())
		cpu = append(cpu, p.use.cpu.Seconds())
		alloc = append(alloc, float64(p.use.alloc)/mib)
		lat = append(lat, p.latency.Seconds())
	}
	m["setup_s"] = median(r.setups)
	m["sim_s"] = median(sim)
	m["events_per_s"] = median(rate)
	m["cpu_s"] = median(cpu)
	m["alloc_mb"] = median(alloc)
	m["max_rss_mb"] = maxRSSMiB()
	m["sim_speedup"] = r.ref[0].RuntimeNs / r.ref[1].RuntimeNs
	m["cold_s"] = median(lat)
	m["op_p50_ms"] = r.loop.percentile(50)
	m["op_p95_ms"] = r.loop.percentile(95)
	m["ops_per_s"] = r.loop.rate(busy)
	fmt.Printf("pairs %d (op_p95_ms over %d samples)\n", len(pairs), r.loop.attempted())
}

// perLayer derives the traced run's metrics.
func (r *simRun) perLayer(untraced, traced []pairSample, tr *tracer, shares map[string]float64, cpu time.Duration) {
	rep := r.rep
	if r.ref[0] == nil {
		return
	}
	var work counts
	byPolicy := map[string]counts{}
	for i, res := range r.ref {
		c := countsOf(res)
		byPolicy[pairPolicyNames[i]] = c
		work.add(c)
	}
	policyCounts(rep, byPolicy)
	// Every traced pair, and the snapshot pair, simulated the reference
	// work once.
	layerMetrics(rep, shares, cpu, work, uint64(len(traced)+1), tr.closed())
	rep.metrics["bench.trace_overhead"] = medianSim(traced)/medianSim(untraced) - 1
	fillZero(rep, perLayer())
}

func medianSim(pairs []pairSample) float64 {
	var xs []float64
	for _, p := range pairs {
		xs = append(xs, p.sim.Seconds())
	}
	return medianOr(xs)
}

// diffResult names the first exported Result field on which a and b
// differ ("" when they are equal).
func diffResult(a, b *allarm.Result) string {
	va, vb := reflect.ValueOf(*a), reflect.ValueOf(*b)
	for i := 0; i < va.NumField(); i++ {
		f := va.Type().Field(i)
		if f.IsExported() && !reflect.DeepEqual(va.Field(i).Interface(), vb.Field(i).Interface()) {
			return f.Name
		}
	}
	return ""
}

// digest is a SHA-256 over the pair's CSV records, so bit-identity
// across two commits can be checked by eye.
func digest(w simWorkload, seed uint64, res [2]*allarm.Result) string {
	var buf bytes.Buffer
	var srs []allarm.SweepResult
	for i, pol := range pairPolicies {
		srs = append(srs, allarm.SweepResult{Job: w.job(pol, seed), Result: res[i]})
	}
	if err := (allarm.CSVEmitter{}).Emit(&buf, srs); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: digest:", err)
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:])
}
