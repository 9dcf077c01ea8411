// Command perfbench is the repository benchmark: it drives the allarm
// simulator and its serving stack in-process through their public
// entry points, checks every output, and prints end-to-end metrics
// (untraced run) or per-layer metrics (traced run) as one JSON line.
//
//	perfbench --workload sim-ocean --seed 1 --seconds 10 --trace 0
//
// See README.md for the workloads and metric definitions.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"syscall"
	"time"
	"unsafe"
)

const mib = 1 << 20

// metricDef names a metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run, reported by every
// workload (README.md gives each workload's definition).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"sim_s", "s"},
	{"events_per_s", "1/s"},
	{"cpu_s", "s"},
	{"alloc_mb", "MiB"},
	{"max_rss_mb", "MiB"},
	{"sim_speedup", "ratio"},
	{"cold_s", "s"},
	{"op_p50_ms", "ms"},
	{"op_p95_ms", "ms"},
	{"ops_per_s", "1/s"},
}

// pairPolicyNames suffix the per-policy exact counts.
var pairPolicyNames = []string{"baseline", "allarm"}

// perLayer are the metrics of a traced run. A metric of a layer the
// workload never crosses reads 0.
func perLayer() []metricDef {
	var defs []metricDef
	for _, l := range layers {
		defs = append(defs, metricDef{l + ".cpu_share", "share"})
	}
	defs = append(defs,
		metricDef{"sim.ns_per_event", "ns"},
		metricDef{"cache.ns_per_access", "ns"},
		metricDef{"noc.ns_per_msg", "ns"},
		metricDef{"core.ns_per_dir_request", "ns"},
	)
	for _, pol := range pairPolicyNames {
		for _, c := range countDefs {
			defs = append(defs, metricDef{c.name + "." + pol, c.unit})
		}
	}
	defs = append(defs,
		metricDef{"system.build_ms", "ms"},
		metricDef{"system.finish_ms", "ms"},
		metricDef{"checkpoint.snapshot_ms", "ms"},
		metricDef{"checkpoint.restore_ms", "ms"},
		metricDef{"checkpoint.bytes", "bytes"},
		metricDef{"fleet.submit_ms", "ms"},
		metricDef{"fleet.submit_self_ms", "ms"},
		metricDef{"fleet.events_ms", "ms"},
		metricDef{"fleet.events_self_ms", "ms"},
		metricDef{"fleet.results_ms", "ms"},
		metricDef{"fleet.results_self_ms", "ms"},
		metricDef{"fleet.shard_calls_per_sweep", "count"},
		metricDef{"fleet.shard_call_ms", "ms"},
		metricDef{"fleet.shard_call_self_ms", "ms"},
		metricDef{"server.submit_ms", "ms"},
		metricDef{"server.status_ms", "ms"},
		metricDef{"server.results_ms", "ms"},
		metricDef{"server.job_ms", "ms"},
		metricDef{"trace.upload_ms", "ms"},
		metricDef{"server.queue_wait_ms", "ms"},
		metricDef{"server.cache_hit_share", "share"},
		metricDef{"server.coalesced", "count"},
		metricDef{"fleet.retries", "count"},
		metricDef{"bench.trace_overhead", "share"},
	)
	return defs
}

// report is what one run measured and checked.
type report struct {
	attempted, failed int
	problems          []string
	metrics           map[string]float64
	digest            string
}

func newReport() *report { return &report{metrics: map[string]float64{}} }

// problem records a failed output check.
func (r *report) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(cfg runConfig) *report{
	"sim-blackscholes": func(c runConfig) *report { return runSim(c, simWorkloads["sim-blackscholes"]) },
	"sim-ocean":        func(c runConfig) *report { return runSim(c, simWorkloads["sim-ocean"]) },
	"sweep-fleet":      runFleet,
}

// runConfig is one invocation's settings.
type runConfig struct {
	seed    uint64
	budget  time.Duration
	traced  bool
	outDir  string
	name    string
	profile *cpuProfile
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: sim-blackscholes, sim-ocean or sweep-fleet")
		seed    = flag.Uint64("seed", 1, "workload seed, passed to Config.Seed and the trace capture")
		seconds = flag.Int("seconds", 10, "seconds to measure")
		trace   = flag.Int("trace", 0, "1 for the traced run (per-layer metrics), 0 for end-to-end metrics")
		outDir  = flag.String("outdir", ".bench_build", "directory for the traced run's spans and CPU profile")
	)
	flag.Parse()
	run, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (sim-blackscholes, sim-ocean, sweep-fleet), --seconds >= 1 and --trace 0|1\n")
		os.Exit(2)
	}
	cfg := runConfig{seed: *seed, budget: time.Duration(*seconds) * time.Second, traced: *trace == 1, outDir: *outDir, name: *name}
	if cfg.traced {
		if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		cfg.profile = &cpuProfile{path: filepath.Join(cfg.outDir, fmt.Sprintf("cpu-%s-%d.pprof", *name, *seed))}
	}
	rep := run(cfg)
	if err := emit(cfg, rep); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// emit prints every metric by name with its unit, the checks and the
// digest, then the result JSON as the last line.
func emit(cfg runConfig, rep *report) error {
	defs := endToEnd
	if cfg.traced {
		defs = perLayer()
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Attempted: rep.attempted, Failed: rep.failed, Metrics: map[string]value{}}
	for _, p := range rep.problems {
		fmt.Printf("check failed: %s\n", p)
	}
	out.Correct = len(rep.problems) == 0 && rep.failed == 0 && rep.attempted > 0
	for _, d := range defs {
		v, ok := rep.metrics[d.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsInf(v, 1) {
			v = math.MaxFloat64 // failures pushed the percentile past every sample
		}
		if math.IsNaN(v) || math.IsInf(v, -1) {
			return fmt.Errorf("metric %s is %v", d.name, v)
		}
		out.Metrics[d.name] = value{v, d.unit}
		fmt.Printf("%-36s %16.6g %s\n", d.name, v, d.unit)
	}
	fmt.Printf("error_rate %.6g (%d failed of %d attempted)\n", float64(rep.failed)/float64(max(rep.attempted, 1)), rep.failed, rep.attempted)
	fmt.Printf("result_digest %s %s\n", cfg.name, rep.digest)
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// threadCPU is the calling OS thread's CPU time so far. On a shared
// host it leaves out the time the host ran other work on this core,
// which wall time counts. The caller must be locked to its thread
// (runtime.LockOSThread).
func threadCPU() time.Duration {
	const clockThreadCPUTimeID = 3
	var ts syscall.Timespec
	if _, _, e := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); e != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}

// maxRSSMiB is the process's peak resident set size.
func maxRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// totalAlloc is the cumulative heap bytes allocated.
func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// usage measures CPU and heap allocation over an interval.
type usage struct {
	cpu   time.Duration
	alloc uint64
}

func usageNow() usage { return usage{cpuTime(), totalAlloc()} }

func (u usage) since() usage {
	n := usageNow()
	return usage{n.cpu - u.cpu, n.alloc - u.alloc}
}

// cpuProfile is the traced run's CPU profile, written to path.
type cpuProfile struct {
	path string
	f    *os.File
}

func (p *cpuProfile) start() error {
	f, err := os.Create(p.path)
	if err != nil {
		return err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return err
	}
	p.f = f
	return nil
}

// stop ends the profile and returns each layer's CPU share.
func (p *cpuProfile) stop() (map[string]float64, error) {
	if p.f == nil {
		return nil, fmt.Errorf("the profile never started")
	}
	pprof.StopCPUProfile()
	if err := p.f.Close(); err != nil {
		return nil, err
	}
	data, err := os.ReadFile(p.path)
	if err != nil {
		return nil, err
	}
	samples, err := parseProfile(data)
	if err != nil {
		return nil, err
	}
	return cpuShares(samples), nil
}

// layerMetrics fills the per-layer metrics common to every workload:
// CPU shares, host ns per unit of each layer's work, and the span
// medians, from the traced phase. cpu is the traced phase's process CPU,
// during which the work was simulated reps times.
func layerMetrics(rep *report, shares map[string]float64, cpu time.Duration, work counts, reps uint64, spans []span) {
	for _, l := range layers {
		rep.metrics[l+".cpu_share"] = shares[l]
	}
	per := func(layer string, n uint64) float64 {
		if n*reps == 0 {
			return 0
		}
		return shares[layer] * float64(cpu.Nanoseconds()) / float64(n*reps)
	}
	rep.metrics["sim.ns_per_event"] = per("sim", work.events)
	rep.metrics["cache.ns_per_access"] = per("cache", work.accesses)
	rep.metrics["noc.ns_per_msg"] = per("noc", work.nocMsgs)
	rep.metrics["core.ns_per_dir_request"] = per("core", work.localReqs+work.remoteReqs)

	st := summarise(spans)
	for _, n := range []string{"system.build", "system.finish", "checkpoint.snapshot", "checkpoint.restore",
		"fleet.submit", "fleet.events", "fleet.results", "fleet.shard_call", "server.submit", "server.status",
		"server.results", "server.job", "trace.upload"} {
		rep.metrics[n+"_ms"] = medianOr(st.durMs[n])
	}
	for _, n := range []string{"fleet.submit", "fleet.events", "fleet.results", "fleet.shard_call"} {
		rep.metrics[n+"_self_ms"] = medianOr(st.selfMs[n])
	}
}

// tracedPhase runs phase with spans and the CPU profile on, writes the
// spans next to the profile, and returns the tracer, each layer's CPU
// share and the process CPU the phase used. Failures to profile or
// write are reported as problems.
func tracedPhase(cfg runConfig, rep *report, phase func(tr *tracer)) (*tracer, map[string]float64, time.Duration) {
	tr := newTracer()
	if err := cfg.profile.start(); err != nil {
		rep.problem("cpu profile: %v", err)
	}
	use := usageNow()
	phase(tr)
	cpu := use.since().cpu
	shares, err := cfg.profile.stop()
	if err != nil {
		rep.problem("cpu profile: %v", err)
	}
	if err := writeSpans(cfg, tr); err != nil {
		rep.problem("spans: %v", err)
	}
	return tr, shares, cpu
}

// writeSpans writes the traced phase's spans next to its CPU profile.
func writeSpans(cfg runConfig, tr *tracer) error {
	f, err := os.Create(filepath.Join(cfg.outDir, fmt.Sprintf("spans-%s-%d.ndjson", cfg.name, cfg.seed)))
	if err != nil {
		return err
	}
	if err := tr.write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// fillZero sets every listed metric the workload did not measure to 0:
// a layer it never crosses.
func fillZero(rep *report, defs []metricDef) {
	for _, d := range defs {
		if _, ok := rep.metrics[d.name]; !ok {
			rep.metrics[d.name] = 0
		}
	}
}
