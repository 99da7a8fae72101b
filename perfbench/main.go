// Command perfbench is the repository benchmark: five workloads that
// take a solve from the dense datapath up to the sophied service, each
// reporting end-to-end metrics from an untraced run and per-layer metrics
// from a separate traced run. BENCHMARK.json at the repository root
// declares the workloads, the metrics and the regression bound of every
// end-to-end metric.
//
// # Workloads
//
//   - dense-g1: the G1 stand-in (800 nodes, 6% dense, unit weights)
//     through the full PRIS transform at tile 64 (13 tiles, 91 pairs) on
//     the dense ideal engine and the flip-aware delta datapath; each call
//     is a RunBatch of 4 replicas over 2 workers, 50 global iterations.
//     Chosen because the dense kernels, the PE local pass and the PRIS
//     eigendecomposition (its set-up) do most of the work here.
//   - sparse-g22-temper: the G22 stand-in (2000 nodes, 1% dense) with
//     SkipTransform, which picks the CSR engine, at tile 64 (32 tiles,
//     528 pairs); each call is one 4-rung tempering ladder (TMin 0.05,
//     TMax 0.5, exchanges every 5) of 10 global iterations, cycling
//     through 16 seed sets. Chosen because it has six times the pairs of
//     dense-g1, so controller sync and reconcile weigh far more, and it
//     runs the CSR kernels and the lockstep tempering driver instead of
//     the batch driver.
//   - sparse-rr100k-colored: a 100k-node random 3-regular graph (drawn
//     from the seed) built CSR-only, one tile, ColoredUpdate; each call
//     is a RunBatch of 2 replicas, 5 global × 10 local iterations. Chosen
//     because its working set dwarfs the dense tiles, there is almost no
//     controller sync, and threshold+noise plus AccumulateFlipRange
//     dominate; it is where peak memory bites.
//   - service-mixed: an in-process sophied (write-ahead log on, 2
//     workers, default queue and solver cache, tenant share 0.5) fed 70
//     jobs/s of Poisson arrivals from tenants alice/bob/carol (50/30/20):
//     45% max-cut jobs over four fixed 100-node graphs (2 replicas, 20
//     global iterations; cache hits), 25% problem-spec jobs rotating over
//     all eight types (fresh instances: lower, compile and build on every
//     job), 15% 4-rung tempering jobs, 10% device-model jobs on K100 and
//     5% early-stop portfolio jobs. Chosen because solve time dominates
//     its latency while queueing, the solver cache and lowering all show.
//   - service-tiny: the same service fed 300 jobs/s of an inline 32-node
//     graph, 1 replica, 5 global iterations. The solve is negligible, so
//     HTTP decode, admission, the WAL group commit, the event hub and
//     result encoding dominate: a service-layer change shows here, and
//     should not move service-mixed.
//
// Solver calls are fixed work: the same seeds to the full iteration
// budget, so every call of a seed set must return bit-identical results.
// Service jobs are due on a schedule and handed to a client with at most
// two keep-alive connections; completion is detected through
// Manager.Subscribe and the result fetched with GET /v1/jobs/{id};
// latency runs from the time a job was due. Every result is checked: the
// reported energy against the energy of the reported spins, the cut, the
// decoded solution of problem jobs, and the first ten jobs of every
// deterministic class against a direct re-run through core.
//
// # Metrics
//
// End to end (untraced run): setup_s (median of three set-ups: model and
// solver build, or service start plus cache warm-up; input generation
// excluded), latency_p50_ms (one solver call, or one job from due time
// to result), throughput_per_s (replicas, or jobs, per second),
// cut_ratio (mean best cut over the greedy cut of the same graph; it
// repeats exactly for a seed) and peak_rss_mb (VmHWM). The latency tail
// is reported per layer instead: on a shared 2-core host its run-to-run
// spread exceeds any bound that would still catch a regression.
//
// Per layer (traced run; a layer a workload does not exercise reads 0):
// core.* from a trace recorder with phase timing and an event counter;
// pris.transform_s and tiling.* from an engine wrapper that counts every
// call and times one in sixteen (dense-g1); bench.hit_frac,
// bench.time_per_hit_s and arch.sim_tts_us (the paper's modelled
// hardware time per hit; the model is unvalidated against hardware, so
// no error figure is given); problem.compile_ms.<type>; service.* from
// client and job timestamps and Stats sampled every 50 ms (the five
// means bench.gen_lag_ms, service.admit_ms, service.queue_ms,
// service.exec_ms and service.deliver_ms add up to the mean latency);
// wal.* from a Journal decorator; bench.latency_p95_ms and _p99_ms (of
// the untraced half), bench.gen_lag_ms_p99/_max and
// bench.trace_overhead_frac. A traced run
// measures half its window untraced and half traced over the same inputs,
// so it reports its own tracing overhead and checks that tracing changed
// no result.
//
// A service run whose load generator handed jobs to the client more than
// 5 ms late at the 99th percentile is invalid: it exits non-zero without
// a result, so an overloaded host yields no sample instead of a wrong one.
//
// Not measured: CSR engine calls (a custom engine disables the sparse
// path), per-call time in the opcm device model, and parallel scaling
// beyond two cores. Spans inside the program are a later change.
//
// # Running
//
// One workload, printing its result as the last line of standard output:
//
//	bash perfbench/run.sh --workload dense-g1 --seed 1 --seconds 15 --trace 0
//
// Every workload, each in its own process, into a report (add -traced for
// the per-layer runs, -runs N for N seeds):
//
//	bash perfbench/run.sh -benchmark BENCHMARK.json -seed 1 -runs 3 -o base.json
//
// Two reports of the same host, judged by the bounds in BENCHMARK.json
// (exit status 1 when any metric got worse):
//
//	bash perfbench/run.sh -compare base.json head.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// system is a workload with its inputs generated; setup builds the system
// under test and is what setup_s times.
type system interface {
	setup(traced bool) (instance, error)
}

// instance is a built system under test.
type instance interface {
	// window runs the workload for about d and reports what it measured.
	window(d time.Duration, traced bool) (*sample, error)
	close() error
}

// sample is what one window measured.
type sample struct {
	latMS  []float64 // per-operation latency
	ops    int       // operations attempted: replicas, or jobs
	failed int       // operations that failed, were refused or were wrong
	busyS  float64   // seconds throughput_per_s divides by
	// det holds values that must repeat exactly for a seed, traced or not,
	// cut_ratio among them.
	det    map[string]float64
	layers map[string]float64 // per-layer metrics (traced windows)
	notes  []string           // why operations failed
}

// runEnv is what a workload's inputs and instances depend on.
type runEnv struct {
	seed    int64
	window  time.Duration // length of the window each instance measures
	small   bool          // reduced sizes, for the package tests only
	workDir string        // scratch space for write-ahead logs
	spans   *spanLog      // nil when untraced
}

type workloadDef struct {
	name    string
	prepare func(env runEnv) (system, error)
}

var workloads = []workloadDef{
	{wDense, prepareSolver(denseG1)},
	{wTemper, prepareSolver(sparseG22Temper)},
	{wColored, prepareSolver(sparseRR100kColored)},
	{wMixed, prepareMixed},
	{wTiny, prepareTiny},
}

func lookupWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// setupRepeats is how many times an untraced run builds its system; it
// reports the median and measures with the last one.
const setupRepeats = 3

// derive mixes the run seed with a stream number (splitmix64), so every
// generated input draws from its own stream.
func derive(seed int64, stream uint64) int64 {
	z := uint64(seed) + stream*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z>>2) + 1 // positive, and never the service's "unset" seed 0
}

// result is the last line a single-workload run prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// errInvalid marks a run whose load generator could not keep its
// schedule: it yields no sample rather than a wrong one.
var errInvalid = errors.New("invalid run")

// runOptions selects one run of one workload.
type runOptions struct {
	workload  string
	seed      int64
	seconds   float64
	traced    bool
	small     bool   // reduced sizes, for the package tests only
	workDir   string // scratch space, removed by the caller
	spansPath string // where a traced run writes its spans; empty for none
}

// outcome is a finished run: the result line, why any operation failed,
// and the values that must repeat exactly for the seed.
type outcome struct {
	result
	notes []string
	det   map[string]float64
}

// runWorkload runs one workload for about o.seconds and reports the
// end-to-end metrics (untraced) or the per-layer metrics (traced).
func runWorkload(o runOptions) (*outcome, error) {
	def, ok := lookupWorkload(o.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	if !(o.seconds > 0) {
		return nil, fmt.Errorf("seconds must be positive, got %v", o.seconds)
	}
	window := time.Duration(o.seconds * float64(time.Second))
	if o.traced {
		window /= 2
	}
	env := runEnv{seed: o.seed, window: window, small: o.small, workDir: o.workDir}
	if o.traced {
		env.spans = newSpanLog()
	}
	sys, err := def.prepare(env)
	if err != nil {
		return nil, fmt.Errorf("generating inputs: %w", err)
	}
	out := &outcome{}
	var values map[string]float64
	if o.traced {
		values, err = measureTraced(sys, window, out)
		if err == nil && o.spansPath != "" {
			err = env.spans.write(o.spansPath)
		}
	} else {
		values, err = measureUntraced(sys, window, out)
	}
	if err != nil {
		return nil, err
	}
	out.Correct = out.Failed == 0 && len(out.notes) == 0
	out.Metrics = map[string]metricValue{}
	defs := endToEnd
	if o.traced {
		defs = nil
		for _, d := range perLayer {
			defs = append(defs, d.metricDef)
		}
	}
	for _, d := range defs {
		v := values[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.name, v)
		}
		out.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return out, nil
}

// measureUntraced builds the system setupRepeats times, measures one
// window with the last build and returns the end-to-end metrics.
func measureUntraced(sys system, window time.Duration, out *outcome) (map[string]float64, error) {
	var setups []float64
	var inst instance
	for i := 0; i < setupRepeats; i++ {
		if inst != nil {
			if err := inst.close(); err != nil {
				return nil, err
			}
			runtime.GC()
		}
		t0 := time.Now()
		var err error
		if inst, err = sys.setup(false); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	runtime.GC() // every window starts from the same heap
	s, err := inst.window(window, false)
	if cerr := inst.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	out.Attempted, out.Failed, out.notes, out.det = s.ops, s.failed, s.notes, s.det
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	values := map[string]float64{
		"setup_s":        median(setups),
		"latency_p50_ms": median(s.latMS),
		"cut_ratio":      s.det["cut_ratio"],
		"peak_rss_mb":    rss,
	}
	if s.busyS > 0 {
		values["throughput_per_s"] = float64(s.ops-s.failed) / s.busyS
	}
	return values, nil
}

// measureTraced measures half the window untraced and half traced over the
// same inputs and returns the per-layer metrics: the difference between
// the halves is the tracing overhead, and the values that repeat for a
// seed must not differ at all.
func measureTraced(sys system, window time.Duration, out *outcome) (map[string]float64, error) {
	var halves [2]*sample
	for i, traced := range []bool{false, true} {
		inst, err := sys.setup(traced)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		runtime.GC()
		s, err := inst.window(window, traced)
		if cerr := inst.close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, err
		}
		halves[i] = s
		out.Attempted += s.ops
		out.Failed += s.failed
		out.notes = append(out.notes, s.notes...)
	}
	u, t := halves[0], halves[1]
	out.det = t.det
	for k, v := range u.det {
		if tv, ok := t.det[k]; ok && math.Float64bits(tv) != math.Float64bits(v) {
			out.Failed++
			out.notes = append(out.notes, fmt.Sprintf("%s is %v untraced but %v traced", k, v, tv))
		}
	}
	values := map[string]float64{}
	for _, d := range perLayer {
		values[d.name] = t.layers[d.name]
	}
	values["bench.latency_p95_ms"] = percentile(u.latMS, 95)
	values["bench.latency_p99_ms"] = percentile(u.latMS, 99)
	if um := median(u.latMS); um > 0 {
		values["bench.trace_overhead_frac"] = median(t.latMS)/um - 1
	}
	return values, nil
}

// peakRSSMB reads the process's peak resident set size (VmHWM).
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("reading peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}

// buildDir holds everything a run leaves behind: the binary, the Go
// caches, write-ahead logs and spans.
const buildDir = ".bench_build"

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "run one workload; its result is the last line of standard output")
	seed := fs.Int64("seed", 1, "seed the workload inputs are generated from")
	seconds := fs.Float64("seconds", 15, "length of the measured window")
	traceFlag := fs.Int("trace", 0, "1 runs the traced variant and reports the per-layer metrics")
	spans := fs.String("spans", "", "where a traced run writes its spans (default "+buildDir+"/spans/<workload>-<seed>.json)")
	bench := fs.String("benchmark", "", "run every workload of this BENCHMARK.json, each in its own process, into a report")
	out := fs.String("o", "perfbench-report.json", "report path (with -benchmark)")
	runs := fs.Int("runs", 1, "runs per workload, seeds seed, seed+1, ... (with -benchmark)")
	traced := fs.Bool("traced", false, "add a traced run of every workload (with -benchmark)")
	compare := fs.Bool("compare", false, "compare two reports: -compare base.json head.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch {
	case *compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "perfbench: -compare needs two reports: base.json head.json")
			return 2
		}
		return compareMain(fs.Arg(0), fs.Arg(1), "BENCHMARK.json", stdout, stderr)
	case *bench != "":
		return suiteMain(*bench, *seed, *runs, *traced, *out, stdout, stderr)
	case *workload != "":
		if *traceFlag != 0 && *traceFlag != 1 {
			fmt.Fprintf(stderr, "perfbench: -trace must be 0 or 1, got %d\n", *traceFlag)
			return 2
		}
		spansPath := *spans
		if *traceFlag == 1 && spansPath == "" {
			spansPath = filepath.Join(buildDir, "spans", fmt.Sprintf("%s-%d.json", *workload, *seed))
		}
		workDir := filepath.Join(buildDir, "work", fmt.Sprintf("%s-%d-%d", *workload, *seed, os.Getpid()))
		out, err := runWorkload(runOptions{workload: *workload, seed: *seed, seconds: *seconds,
			traced: *traceFlag == 1, workDir: workDir, spansPath: spansPath})
		if rerr := os.RemoveAll(workDir); err == nil && rerr != nil {
			err = rerr
		}
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", *workload, err)
			return 1
		}
		for _, n := range out.notes {
			fmt.Fprintf(stderr, "perfbench: %s: %s\n", *workload, n)
		}
		printMetrics(stderr, *workload, &out.result)
		line, err := json.Marshal(out.result)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		fmt.Fprintln(stdout, string(line))
		return 0
	default:
		fmt.Fprintln(stderr, "perfbench: need -workload, -benchmark or -compare")
		fs.Usage()
		return 2
	}
}

// printMetrics writes one line per metric: name, value and unit.
func printMetrics(w io.Writer, workload string, res *result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%s: correct=%v attempted=%d failed=%d\n", workload, res.Correct, res.Attempted, res.Failed)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(w, "  %-32s %14.6g %s\n", n, m.Value, m.Unit)
	}
}
