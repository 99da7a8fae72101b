package main

import (
	"fmt"
	"math"
	"time"

	"sophie/internal/arch"
	"sophie/internal/core"
	"sophie/internal/graph"
	"sophie/internal/ising"
	"sophie/internal/pris"
	"sophie/internal/trace"
)

// batchWorkers is the replica (and PE) concurrency of every solver
// workload: one per core of the 2-core reference host.
const batchWorkers = 2

// minCalls is the fewest timed calls a solver window makes, however long
// they take, so every window has a median.
const minCalls = 3

// solverSpec is one solver-direct workload. Every timed call runs the same
// fixed work — the same seeds over the same solver, to the full iteration
// budget — so calls differ only by host noise and every call must return
// bit-identical results.
type solverSpec struct {
	graph  func(env runEnv) (*graph.Graph, error)
	csr    bool // build the Ising model CSR-only (never densified)
	config func(n int, small bool) core.Config
	// replicas per call; for tempering, the rungs of the one ladder.
	replicas int
	// seedSets is how many distinct seed sets the calls cycle through.
	seedSets  int
	tempering *core.TemperingOptions
	// targetFrac is the hit threshold: a replica (a whole ladder, for
	// tempering) hits when its best cut reaches targetFrac × the greedy
	// cut of the same graph. Replicas run their full budget either way,
	// so the hit set is the one a TargetEnergy stop would produce.
	targetFrac float64
	// dense marks the workload whose traced runs wrap the tile engine and
	// time the PRIS transform.
	dense bool
	// simTime reports the paper's modelled hardware time per hit.
	simTime bool
}

var denseG1 = solverSpec{
	graph: func(env runEnv) (*graph.Graph, error) {
		if env.small {
			return graph.Random(128, 1000, graph.WeightUnit, 53100)
		}
		return graph.G1Standin(), nil
	},
	config: func(_ int, small bool) core.Config {
		cfg := core.DefaultConfig()
		cfg.GlobalIters = pick(small, 10, 50)
		return cfg
	},
	replicas:   4,
	targetFrac: 1.02,
	dense:      true,
	simTime:    true,
}

var sparseG22Temper = solverSpec{
	graph: func(env runEnv) (*graph.Graph, error) {
		if env.small {
			return graph.Random(256, 640, graph.WeightUnit, 53122)
		}
		return graph.G22Standin(), nil
	},
	config: func(_ int, small bool) core.Config {
		cfg := core.DefaultConfig()
		cfg.SkipTransform = true // auto-picks the CSR engine at ~1% density
		cfg.GlobalIters = pick(small, 5, 10)
		cfg.Workers = batchWorkers
		return cfg
	},
	replicas:   4,
	seedSets:   16,
	tempering:  &core.TemperingOptions{TMin: 0.05, TMax: 0.5, ExchangeEvery: 5},
	targetFrac: 0.95,
	simTime:    true,
}

var sparseRR100kColored = solverSpec{
	graph: func(env runEnv) (*graph.Graph, error) {
		return graph.RandomRegular(pick(env.small, 2000, 100_000), 3, graph.WeightUnit, derive(env.seed, 1))
	},
	csr: true,
	config: func(n int, small bool) core.Config {
		cfg := core.DefaultConfig()
		cfg.SkipTransform = true
		cfg.TileSize = n
		cfg.ColoredUpdate = true
		cfg.GlobalIters = pick(small, 2, 5)
		return cfg
	},
	replicas:   2,
	targetFrac: 1.05,
}

// pick returns the reduced value for the package tests' small runs and
// the full value otherwise.
func pick[T any](small bool, reduced, full T) T {
	if small {
		return reduced
	}
	return full
}

// solverSystem holds a solver workload's generated inputs.
type solverSystem struct {
	spec solverSpec
	env  runEnv
	g    *graph.Graph
	cfg  core.Config
	// seedSets are the replica seeds of successive calls, which cycle
	// through them; averaging over several sets keeps the per-seed spread
	// of the work and of the solution quality small.
	seedSets [][]int64
	greedy   float64
}

func prepareSolver(spec solverSpec) func(env runEnv) (system, error) {
	return func(env runEnv) (system, error) {
		g, err := spec.graph(env)
		if err != nil {
			return nil, err
		}
		sets := make([][]int64, max(1, spec.seedSets))
		for k := range sets {
			if sets[k], err = core.SeedRange(derive(env.seed, 2+uint64(k)), spec.replicas); err != nil {
				return nil, err
			}
		}
		_, greedy := g.GreedyCut()
		return &solverSystem{
			spec: spec, env: env, g: g,
			cfg:      spec.config(g.N(), env.small),
			seedSets: sets,
			greedy:   greedy,
		}, nil
	}
}

type solverInst struct {
	sys    *solverSystem
	model  *ising.Model
	solver *core.Solver
	eng    *countingEngine // traced dense runs only
	// transformS is the out-of-band pris.NewTransform time (traced dense runs).
	transformS float64
}

// setup builds the Ising model from the graph and the solver from the
// model.
func (s *solverSystem) setup(traced bool) (instance, error) {
	cfg := s.cfg
	in := &solverInst{sys: s}
	if s.spec.csr {
		in.model = ising.FromMaxCutCSR(s.g)
	} else {
		in.model = ising.FromMaxCut(s.g)
	}
	if traced && s.spec.dense {
		in.eng = &countingEngine{}
		cfg.Engine = in.eng.build
	}
	t0 := time.Now()
	solver, err := core.NewSolver(in.model, cfg)
	s.env.spans.add("setup", 0, "core.NewSolver", t0, time.Now())
	if err != nil {
		return nil, err
	}
	in.solver = solver
	if traced && s.spec.dense {
		t0 := time.Now()
		if _, err := pris.NewTransform(in.model, cfg.Alpha, false); err != nil {
			return nil, err
		}
		t1 := time.Now()
		s.env.spans.add("setup", 0, "pris.NewTransform", t0, t1)
		in.transformS = t1.Sub(t0).Seconds()
	}
	return in, nil
}

func (in *solverInst) close() error { return nil }

// call runs the workload's unit of work once: one batch, or one ladder.
func (in *solverInst) call(seeds []int64, rec *trace.Recorder) (*core.BatchResult, error) {
	s := in.solver
	if rec != nil {
		var err error
		if s, err = s.WithRuntime(func(c *core.Config) { c.Tracer = rec }); err != nil {
			return nil, err
		}
	}
	if t := in.sys.spec.tempering; t != nil {
		return s.RunTempering(seeds, *t)
	}
	return s.RunBatch(seeds, core.BatchOptions{Workers: batchWorkers})
}

// replicaKey is what must repeat exactly between calls of one replica.
type replicaKey struct {
	energyBits             uint64
	bestIter, itersRun     int
	spinsHash              uint64
	reachedTarget, stopped bool
}

func keyOf(r *core.Result) replicaKey {
	h := uint64(14695981039346656037)
	for _, s := range r.BestSpins {
		h = (h ^ uint64(uint8(s))) * 1099511628211
	}
	return replicaKey{math.Float64bits(r.BestEnergy), r.BestGlobalIter, r.GlobalItersRun, h, r.ReachedTarget, r.Stopped}
}

// callLayers is what one traced call measured.
type callLayers struct {
	counter coreCounter
	phases  trace.Phases
	engine  engineTotals
	wallS   float64
}

func (in *solverInst) window(d time.Duration, traced bool) (*sample, error) {
	sys := in.sys
	sets := sys.seedSets
	s := &sample{det: map[string]float64{}}
	// The first call of each seed set is its reference, which every later
	// call of the set must reproduce bit for bit; an untimed warm-up call
	// of the first set fills the caches first. Only a summary of each
	// reference is kept: a result pins its whole run state in memory.
	type setSummary struct {
		keys     []replicaKey
		cuts     []float64 // per replica; for tempering, the ladder's best
		maxIters int
	}
	refs := make([]*setSummary, len(sets))
	var calls []callLayers
	firstTraced := make([]int, len(sets)) // index into calls, -1 until traced
	for k := range firstTraced {
		firstTraced[k] = -1
	}
	check := func(k int, res *core.BatchResult) {
		if refs[k] == nil {
			sum := &setSummary{}
			for i, r := range res.Results {
				sum.keys = append(sum.keys, keyOf(r))
				sum.maxIters = max(sum.maxIters, r.GlobalItersRun)
				if sys.spec.tempering == nil {
					sum.cuts = append(sum.cuts, sys.g.CutValue(r.BestSpins))
				}
				if e := in.model.Energy(r.BestSpins); e != r.BestEnergy { //sophielint:ignore floateq a solver result must report the exact energy of its spins
					s.failed++
					s.notes = append(s.notes, fmt.Sprintf("seed set %d replica %d: BestEnergy %v, Energy(BestSpins) %v", k, i, r.BestEnergy, e))
				}
			}
			if sys.spec.tempering != nil {
				sum.cuts = []float64{sys.g.CutValue(res.Best().BestSpins)} // the ladder's answer
			}
			refs[k] = sum
			return
		}
		for i, r := range res.Results {
			if keyOf(r) != refs[k].keys[i] {
				s.failed++
				s.notes = append(s.notes, fmt.Sprintf("seed set %d replica %d differs from its first call", k, i))
			}
		}
	}
	warm, err := in.call(sets[0], nil)
	if err != nil {
		return nil, err
	}
	check(0, warm)

	deadline := time.Now().Add(d)
	for n := 0; n < max(minCalls, len(sets)) || time.Now().Before(deadline); n++ {
		k := n % len(sets)
		var cl callLayers
		var rec *trace.Recorder
		if traced {
			rec = newCoreRecorder(&cl.counter)
			if in.eng != nil {
				cl.engine = in.eng.totals()
			}
		}
		t0 := time.Now()
		res, err := in.call(sets[k], rec)
		t1 := time.Now()
		if err != nil {
			return nil, err
		}
		sys.env.spans.add(fmt.Sprintf("call-%d", n), 0, callName(sys.spec), t0, t1)
		s.latMS = append(s.latMS, ms(t1.Sub(t0)))
		s.busyS += t1.Sub(t0).Seconds()
		s.ops += len(res.Results)
		check(k, res)
		if traced {
			cl.phases = rec.PhaseTimes()
			cl.wallS = t1.Sub(t0).Seconds()
			if in.eng != nil {
				cl.engine = in.eng.totals().minus(cl.engine)
			}
			if f := firstTraced[k]; f < 0 {
				firstTraced[k] = len(calls)
			} else if cl.counter != calls[f].counter || cl.engine.calls != calls[f].engine.calls {
				s.failed++
				s.notes = append(s.notes, fmt.Sprintf("traced call %d: event or engine counts differ from the first call of seed set %d", n, k))
			}
			calls = append(calls, cl)
		}
	}

	// Quality over the seed sets' reference calls.
	var cuts []float64
	hits, units := 0, 0
	simS := 0.0
	target := sys.spec.targetFrac * sys.greedy
	for _, ref := range refs {
		for _, c := range ref.cuts {
			units++
			if c >= target {
				hits++
			}
		}
		cuts = append(cuts, ref.cuts...)
		if sys.spec.simTime {
			rep, err := arch.Evaluate(arch.DefaultDesign(), arch.Workload{
				Name: "perfbench", Nodes: in.model.N(), Batch: len(ref.keys),
				LocalIters: sys.cfg.LocalIters, GlobalIters: ref.maxIters, TileFraction: sys.cfg.TileFraction,
			})
			if err != nil {
				return nil, err
			}
			simS += rep.TimeTotalS
		}
	}
	s.det["cut_ratio"] = mean(cuts) / sys.greedy
	s.det["bench.hit_frac"] = float64(hits) / float64(units)
	s.det["arch.sim_tts_us"] = 0
	if hits > 0 {
		s.det["arch.sim_tts_us"] = simS * 1e6 / float64(hits)
	}
	if traced {
		in.layerMetrics(s, calls, firstTraced, hits)
	}
	return s, nil
}

func callName(spec solverSpec) string {
	if spec.tempering != nil {
		return "core.RunTempering"
	}
	return "core.RunBatch"
}

// layerMetrics fills the per-layer metrics of a traced window. Times are
// means over the timed calls; counts are means over one call of each seed
// set, which repeat exactly for the seed.
func (in *solverInst) layerMetrics(s *sample, calls []callLayers, cycle []int, hits int) {
	var initS, localS, globalS, busy []float64
	var eng [numEngineOps][]float64
	for _, c := range calls {
		initS = append(initS, float64(c.phases.InitNS)/1e9)
		localS = append(localS, float64(c.phases.LocalNS)/1e9)
		globalS = append(globalS, float64(c.phases.GlobalNS)/1e9)
		busy = append(busy, float64(c.phases.TotalNS()-c.phases.ReprogramNS)/1e9/(c.wallS*batchWorkers))
		for op := range eng {
			eng[op] = append(eng[op], c.engine.seconds[op])
		}
	}
	var c coreCounter
	var engCalls [numEngineOps]int64
	for _, i := range cycle {
		cl := calls[i]
		k := cl.counter
		c.globalIters += k.globalIters
		c.localBatches += k.localBatches
		c.syncPairs += k.syncPairs
		c.energyEvals += k.energyEvals
		c.flips += k.flips
		c.exchanges += k.exchanges
		c.accepted += k.accepted
		for op := range engCalls {
			engCalls[op] += cl.engine.calls[op]
		}
	}
	perCall := func(v int64) float64 { return float64(v) / float64(len(cycle)) }
	l := map[string]float64{}
	total := mean(initS) + mean(localS) + mean(globalS)
	l["core.init_s"] = mean(initS)
	l["core.local_s"] = mean(localS)
	l["core.global_s"] = mean(globalS)
	if total > 0 {
		l["core.local_frac"] = mean(localS) / total
		l["core.global_frac"] = mean(globalS) / total
	}
	l["core.busy_frac"] = mean(busy)
	l["core.global_iters"] = perCall(c.globalIters)
	l["core.local_batches"] = perCall(c.localBatches)
	l["core.sync_pairs"] = perCall(c.syncPairs)
	l["core.energy_evals"] = perCall(c.energyEvals)
	l["core.flips"] = perCall(c.flips)
	if mean(localS) > 0 {
		l["core.flips_per_local_s"] = perCall(c.flips) / mean(localS)
	}
	if c.exchanges > 0 {
		l["core.exchange_accept_frac"] = float64(c.accepted) / float64(c.exchanges)
	}
	if in.eng != nil {
		engS := 0.0
		l["pris.transform_s"] = in.transformS
		l["tiling.mul_calls"] = perCall(engCalls[opMul])
		l["tiling.mulbinary_calls"] = perCall(engCalls[opMulBinary])
		l["tiling.muldelta_calls"] = perCall(engCalls[opMulDelta])
		l["tiling.mul_s"] = mean(eng[opMul])
		l["tiling.mulbinary_s"] = mean(eng[opMulBinary])
		l["tiling.muldelta_s"] = mean(eng[opMulDelta])
		if all := engCalls[opMul] + engCalls[opMulBinary] + engCalls[opMulDelta]; all > 0 {
			l["tiling.delta_frac"] = float64(engCalls[opMulDelta]) / float64(all)
		}
		for op := range eng {
			engS += mean(eng[op])
		}
		if mean(localS) > 0 {
			l["tiling.engine_frac_of_local"] = engS / mean(localS)
		}
	}
	for k, v := range s.det {
		if k != "cut_ratio" {
			l[k] = v
		}
	}
	if hits > 0 {
		// Median call time over the hits one call yields on average.
		l["bench.time_per_hit_s"] = median(s.latMS) / 1e3 * float64(len(cycle)) / float64(hits)
	}
	for _, k := range []string{"core.global_iters", "core.local_batches", "core.sync_pairs", "core.energy_evals", "core.flips", "tiling.mul_calls", "tiling.mulbinary_calls", "tiling.muldelta_calls"} {
		s.det[k] = l[k]
	}
	s.layers = l
}
