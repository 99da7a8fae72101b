package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"sophie/internal/core"
	"sophie/internal/graph"
	"sophie/internal/ising"
	"sophie/internal/linalg"
	"sophie/internal/opcm"
	"sophie/internal/problem"
	"sophie/internal/service"
	"sophie/internal/tiling"
	"sophie/internal/wal"
)

// Open-loop service workloads: an in-process sophied (manager, HTTP
// server on a loopback listener, write-ahead log) and a load generator
// that sends every job at its due time.

const (
	// mixedRate is service-mixed's arrival rate: about 30% of the CPU of
	// the 2-core reference host, and over a thousand jobs in a 15 s window,
	// so its p99 has ten samples beyond it.
	mixedRate = 70.0
	// tinyRate is service-tiny's arrival rate.
	tinyRate = 300.0
	// maxConns bounds the client's keep-alive connections.
	maxConns = 2
	// serviceWorkers is the manager's job executor count.
	serviceWorkers = 2
	// maxGenLagP99MS: a run whose generator handed jobs to the client
	// later than this at the 99th percentile is invalid.
	maxGenLagP99MS = 5.0
	// rerunPerClass is how many jobs of each deterministic class are
	// re-run through the solver directly and must match bit for bit.
	rerunPerClass = 10
	// drainTimeout bounds the wait for the last jobs after the window.
	drainTimeout = 60 * time.Second
	// statsEvery is the Stats sampling period of traced runs.
	statsEvery = 50 * time.Millisecond
)

// Job classes.
const (
	classGraph   = "graph"
	classProblem = "problem"
	classTemper  = "tempering"
	classDevice  = "device"
	classEarly   = "early-stop"
)

// mixedCycle is one cycle of service-mixed's job classes (45/25/15/10/5
// percent); each cycle is shuffled, so every window holds the exact mix.
var mixedCycle = []string{
	classGraph, classGraph, classGraph, classGraph, classGraph, classGraph, classGraph, classGraph, classGraph,
	classProblem, classProblem, classProblem, classProblem, classProblem,
	classTemper, classTemper, classTemper,
	classDevice, classDevice,
	classEarly,
}

// tenantCycle weights tenants alice/bob/carol 50/30/20.
var tenantCycle = []string{"alice", "alice", "alice", "alice", "alice", "bob", "bob", "bob", "carol", "carol"}

// jobInput is one generated job.
type jobInput struct {
	due    time.Duration // offset from the start of the window
	tenant string
	class  string
	body   []byte // the exact POST /v1/jobs body
	graph  int    // index into serviceSystem.graphs; -1 when not a graph job
	ptype  string // problem type of problem jobs
}

type serviceSystem struct {
	env    runEnv
	graphs []*graph.Graph // index len-1 is K100 for service-mixed
	models []*ising.Model
	greedy []float64
	warm   []jobInput
	jobs   []jobInput
	setups int // names write-ahead log directories
}

func (s *serviceSystem) addGraph(g *graph.Graph) int {
	s.graphs = append(s.graphs, g)
	s.models = append(s.models, ising.FromMaxCut(g))
	_, cut := g.GreedyCut()
	s.greedy = append(s.greedy, cut)
	return len(s.graphs) - 1
}

func graphText(g *graph.Graph) string {
	var b strings.Builder
	_ = graph.Write(&b, g) // writes to a strings.Builder do not fail
	return b.String()
}

func intp(v int) *int           { return &v }
func boolp(v bool) *bool        { return &v }
func floatp(v float64) *float64 { return &v }

// schedule draws n arrival offsets of a Poisson process over [0, d)
// conditioned on its count: sorted uniform offsets. Fixing the count keeps
// the offered load identical across seeds.
func schedule(rng *rand.Rand, n int, d time.Duration) []time.Duration {
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Duration(rng.Int63n(int64(d)))
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func jobCount(rate float64, d time.Duration) int {
	return max(1, int(math.Round(rate*d.Seconds())))
}

func prepareMixed(env runEnv) (system, error) {
	s := &serviceSystem{env: env}
	nodes, edges := pick(env.small, 48, 100), pick(env.small, 150, 500)
	var texts []string
	for i := 0; i < 4; i++ {
		g, err := graph.Random(nodes, edges, graph.WeightUnit, 7000+int64(i))
		if err != nil {
			return nil, err
		}
		s.addGraph(g)
		texts = append(texts, graphText(g))
	}
	k100 := s.addGraph(graph.KGraph(100))
	iters := pick(env.small, 8, 20)
	rng := rand.New(rand.NewSource(derive(env.seed, 3)))

	graphJob := func(class string, gi int, seed int64) (jobInput, error) {
		spec := service.JobSpec{Graph: texts[gi], Replicas: 2, Seed: seed, Config: service.ConfigOverrides{GlobalIters: intp(iters)}}
		switch class {
		case classTemper:
			spec.Replicas = 4
			spec.Config.GlobalIters = intp(iters / 2)
			spec.Tempering = &service.TemperingSpec{TMin: 0.05, TMax: 0.5, ExchangeEvery: 5}
		case classEarly:
			spins, _ := s.graphs[gi].GreedyCut()
			spec.EarlyStop = true
			spec.Config.TargetEnergy = floatp(s.models[gi].Energy(spins))
		}
		body, err := json.Marshal(spec)
		return jobInput{class: class, body: body, graph: gi}, err
	}
	deviceJob := func(seed int64) (jobInput, error) {
		body, err := json.Marshal(service.JobSpec{Preset: "K100", Replicas: 2, Seed: seed,
			Config: service.ConfigOverrides{Device: boolp(true), GlobalIters: intp(iters / 2)}})
		return jobInput{class: classDevice, body: body, graph: k100}, err
	}
	problemJob := func(ptype string, seed int64) (jobInput, error) {
		doc, err := problemSpec(ptype, rng, env.small)
		if err != nil {
			return jobInput{}, err
		}
		body, err := json.Marshal(service.JobSpec{Problem: doc, Replicas: 2, Seed: seed,
			Config: service.ConfigOverrides{SkipTransform: boolp(true), GlobalIters: intp(iters)}})
		return jobInput{class: classProblem, body: body, graph: -1, ptype: ptype}, err
	}
	seed := func() int64 { return rng.Int63n(1<<40) + 1 }

	// Warm-up: one job per cached solver, so window jobs find them built.
	for gi := 0; gi < 4; gi++ {
		j, err := graphJob(classGraph, gi, seed())
		if err != nil {
			return nil, err
		}
		s.warm = append(s.warm, j)
	}
	j, err := deviceJob(seed())
	if err != nil {
		return nil, err
	}
	s.warm = append(s.warm, j)

	var classes []string
	next := map[string]int{} // round-robin graph per graph class, problem type
	s.jobs, err = openLoop(rng, pick(env.small, 14, mixedRate), env.window, func(i int) (jobInput, error) {
		if i%len(mixedCycle) == 0 {
			classes = shuffled(rng, mixedCycle)
		}
		class := classes[i%len(mixedCycle)]
		k := next[class]
		next[class]++
		switch class {
		case classProblem:
			return problemJob(problemTypes[k%len(problemTypes)], seed())
		case classDevice:
			return deviceJob(seed())
		default:
			return graphJob(class, k%4, seed())
		}
	})
	if err != nil {
		return nil, err
	}
	return s, nil
}

func prepareTiny(env runEnv) (system, error) {
	s := &serviceSystem{env: env}
	g, err := graph.Random(32, 100, graph.WeightUnit, 7100)
	if err != nil {
		return nil, err
	}
	gi := s.addGraph(g)
	text := graphText(g)
	rng := rand.New(rand.NewSource(derive(env.seed, 4)))
	tinyJob := func() (jobInput, error) {
		body, err := json.Marshal(service.JobSpec{Graph: text, Replicas: 1, Seed: rng.Int63n(1<<40) + 1,
			Config: service.ConfigOverrides{GlobalIters: intp(5)}})
		return jobInput{class: classGraph, body: body, graph: gi}, err
	}
	for i := 0; i < 20; i++ {
		j, err := tinyJob()
		if err != nil {
			return nil, err
		}
		s.warm = append(s.warm, j)
	}
	if s.jobs, err = openLoop(rng, pick(env.small, 30, tinyRate), env.window, func(int) (jobInput, error) { return tinyJob() }); err != nil {
		return nil, err
	}
	return s, nil
}

// openLoop draws the arrival schedule of a window and builds one job per
// arrival with job, spreading the jobs over the tenants by weight.
func openLoop(rng *rand.Rand, rate float64, d time.Duration, job func(i int) (jobInput, error)) ([]jobInput, error) {
	var jobs []jobInput
	var tenants []string
	for i, due := range schedule(rng, jobCount(rate, d), d) {
		if i%len(tenantCycle) == 0 {
			tenants = shuffled(rng, tenantCycle)
		}
		j, err := job(i)
		if err != nil {
			return nil, err
		}
		j.due, j.tenant = due, tenants[i%len(tenantCycle)]
		jobs = append(jobs, j)
	}
	return jobs, nil
}

func shuffled(rng *rand.Rand, xs []string) []string {
	out := append([]string(nil), xs...)
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// problemSpec generates a fresh instance of one problem type as its JSON
// spec document.
func problemSpec(ptype string, rng *rand.Rand, small bool) (json.RawMessage, error) {
	randGraph := func(n, m int) map[string]any {
		g, err := graph.Random(n, m, graph.WeightUnit, rng.Int63())
		if err != nil {
			panic(err) // sizes below are statically valid
		}
		edges := make([][3]float64, 0, g.M())
		for _, e := range g.SortedEdges() {
			edges = append(edges, [3]float64{float64(e.U), float64(e.V), e.Weight})
		}
		return map[string]any{"n": n, "edges": edges}
	}
	doc := map[string]any{"type": ptype}
	switch ptype {
	case "qubo":
		n := pick(small, 12, 60)
		var entries [][3]float64
		for k := 0; k < 4*n; k++ {
			w := float64(rng.Intn(8) - 4)
			if w == 0 {
				w = 5
			}
			entries = append(entries, [3]float64{float64(rng.Intn(n)), float64(rng.Intn(n)), w})
		}
		doc["n"], doc["entries"] = n, entries
	case "maxcut":
		doc["graph"] = randGraph(pick(small, 16, 80), pick(small, 40, 240))
	case "maxsat":
		vars := pick(small, 10, 40)
		p, _, err := problem.RandomKSAT(vars, 4*vars, 3, rng.Int63())
		if err != nil {
			return nil, err
		}
		var clauses []map[string]any
		for _, c := range p.Clauses {
			clauses = append(clauses, map[string]any{"lits": c.Lits})
		}
		doc["vars"], doc["clauses"] = vars, clauses
	case "partition":
		doc["graph"] = randGraph(pick(small, 12, 40), pick(small, 30, 100))
	case "coloring":
		doc["graph"], doc["colors"] = randGraph(pick(small, 8, 20), pick(small, 12, 35)), 3
	case "numberpartition":
		nums := make([]float64, pick(small, 10, 40))
		for i := range nums {
			nums[i] = float64(1 + rng.Intn(100))
		}
		doc["numbers"] = nums
	case "tsp":
		n := pick(small, 4, 6)
		xs, ys := make([]float64, n), make([]float64, n)
		for i := range xs {
			xs[i], ys[i] = float64(rng.Intn(20)), float64(rng.Intn(20))
		}
		dist := make([][]float64, n)
		for i := range dist {
			dist[i] = make([]float64, n)
			for j := range dist[i] {
				dist[i][j] = math.Round(math.Hypot(xs[i]-xs[j], ys[i]-ys[j]))
			}
		}
		doc["dist"] = dist
	case "hopfield":
		pats, err := problem.RandomPatterns(pick(small, 16, 64), 3, rng.Int63())
		if err != nil {
			return nil, err
		}
		doc["patterns"], doc["probe"] = pats, problem.CorruptPattern(pats[0], 0.1, rng.Int63())
	default:
		return nil, fmt.Errorf("unknown problem type %q", ptype)
	}
	return json.Marshal(doc)
}

// serviceInst is one running service plus its client.
type serviceInst struct {
	sys     *serviceSystem
	dir     string
	log     *wal.Log
	journal *timedJournal // traced runs only
	m       *service.Manager
	srv     *http.Server
	serving sync.WaitGroup
	served  error // what Serve returned, once serving is done
	base    string
	hc      *http.Client
}

func (s *serviceSystem) setup(traced bool) (instance, error) {
	s.setups++
	dir := filepath.Join(s.env.workDir, fmt.Sprintf("wal-%d", s.setups))
	log, _, err := wal.Open(dir, wal.Options{})
	if err != nil {
		return nil, err
	}
	in := &serviceInst{sys: s, dir: dir, log: log}
	var journal service.Journal = log
	if traced {
		in.journal = &timedJournal{log: log, spans: s.env.spans}
		journal = in.journal
	}
	in.m = service.NewManager(service.Config{
		Workers: serviceWorkers,
		Journal: journal,
		Tenant:  service.TenantConfig{MaxQueueShare: 0.5},
	})
	in.m.Start()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = in.close()
		return nil, err
	}
	in.srv = &http.Server{Handler: service.NewServer(in.m), ReadHeaderTimeout: 10 * time.Second}
	in.serving.Add(1)
	go func() {
		defer in.serving.Done()
		in.served = in.srv.Serve(ln)
	}()
	in.base = "http://" + ln.Addr().String()
	in.hc = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     maxConns,
		MaxIdleConnsPerHost: maxConns,
		DisableCompression:  true,
	}}
	for i := range s.warm {
		var r jobRun
		r.input = &s.warm[i]
		if in.post(&r); r.err == nil {
			in.await(&r)
			in.get(&r)
		}
		if r.err == nil && r.view.State != service.StateDone {
			r.err = fmt.Errorf("state %s: %s", r.view.State, r.view.Error)
		}
		if r.err != nil {
			_ = in.close()
			return nil, fmt.Errorf("warm-up job %d: %w", i, r.err)
		}
	}
	return in, nil
}

func (in *serviceInst) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var errs []error
	if in.srv != nil {
		errs = append(errs, in.srv.Shutdown(ctx))
		in.serving.Wait()
		if !errors.Is(in.served, http.ErrServerClosed) {
			errs = append(errs, in.served)
		}
		in.hc.CloseIdleConnections()
	}
	if in.m != nil {
		_, err := in.m.Shutdown(ctx)
		errs = append(errs, err)
	}
	errs = append(errs, in.log.Close())
	return errors.Join(errs...)
}

// jobRun is one job's trip through the service.
type jobRun struct {
	input    *jobInput
	due      time.Time
	handed   time.Time // the generator handed the job to the client
	sent     time.Time // the client started the POST (a connection was free)
	posted   time.Time // 202 read
	received time.Time // result body read
	id       string
	view     service.JobView
	bytes    int
	err      error
}

// now returns the wall-clock time without its monotonic reading, so
// differences with the service's own (JSON-decoded) timestamps all use
// the same clock and telescope exactly.
func now() time.Time { return time.Now().Round(0) }

func (in *serviceInst) post(r *jobRun) {
	req, err := http.NewRequest(http.MethodPost, in.base+"/v1/jobs", bytes.NewReader(r.input.body))
	if err != nil {
		r.err = err
		return
	}
	req.Header.Set("Content-Type", "application/json")
	if r.input.tenant != "" {
		req.Header.Set("X-Tenant", r.input.tenant)
	}
	r.sent = now()
	resp, err := in.hc.Do(req)
	if err != nil {
		r.err = err
		return
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	r.posted = now()
	if err != nil {
		r.err = err
		return
	}
	if resp.StatusCode != http.StatusAccepted {
		r.err = fmt.Errorf("POST /v1/jobs: %s: %s", resp.Status, bytes.TrimSpace(data))
		return
	}
	var v service.JobView
	if err := json.Unmarshal(data, &v); err != nil {
		r.err = fmt.Errorf("decoding POST response: %w", err)
		return
	}
	r.id = v.ID
}

// await blocks until the job is terminal, through an in-process
// subscription (one per job, as an SSE client would hold).
func (in *serviceInst) await(r *jobRun) {
	sub, _, err := in.m.Subscribe(r.id)
	if err != nil {
		r.err = err
		return
	}
	for range sub.C {
	}
	sub.Close()
}

func (in *serviceInst) get(r *jobRun) {
	resp, err := in.hc.Get(in.base + "/v1/jobs/" + r.id)
	if err != nil {
		r.err = err
		return
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	r.received = now()
	if err != nil {
		r.err = err
		return
	}
	if resp.StatusCode != http.StatusOK {
		r.err = fmt.Errorf("GET /v1/jobs/%s: %s", r.id, resp.Status)
		return
	}
	r.bytes = len(data)
	if err := json.Unmarshal(data, &r.view); err != nil {
		r.err = fmt.Errorf("decoding job view: %w", err)
	}
}

// statsSampler polls Manager.Stats during a traced window.
type statsSampler struct {
	first, last service.Stats
	maxDepth    int
	stop        chan struct{}
	done        chan struct{}
}

func startSampler(m *service.Manager) *statsSampler {
	s := &statsSampler{first: m.Stats(), stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(statsEvery)
		defer t.Stop()
		for {
			st := m.Stats()
			s.last = st
			s.maxDepth = max(s.maxDepth, st.QueueDepth)
			select {
			case <-s.stop:
				return
			case <-t.C:
			}
		}
	}()
	return s
}

func (s *statsSampler) finish() {
	close(s.stop)
	<-s.done
}

func (in *serviceInst) window(d time.Duration, traced bool) (*sample, error) {
	jobs := in.sys.jobs
	runs := make([]jobRun, len(jobs))
	for i := range runs {
		runs[i].input = &jobs[i]
	}
	var journalMark [2]int
	var sampler *statsSampler
	if traced {
		in.journal.mu.Lock()
		journalMark = [2]int{len(in.journal.submittedMS), len(in.journal.bufferedMS)}
		in.journal.mu.Unlock()
		sampler = startSampler(in.m)
	}

	// Two connection workers serve POSTs first and result GETs otherwise;
	// a waiter per accepted job queues its GET once the job is terminal.
	postQ := make(chan int, len(jobs))
	getQ := make(chan int, len(jobs))
	stop := make(chan struct{})
	var pending, waiters, conns sync.WaitGroup
	pending.Add(len(jobs))
	handlePost := func(i int) {
		r := &runs[i]
		if in.post(r); r.err != nil {
			pending.Done()
			return
		}
		waiters.Add(1)
		go func() {
			defer waiters.Done()
			if in.await(r); r.err != nil {
				pending.Done()
				return
			}
			getQ <- i
		}()
	}
	for w := 0; w < maxConns; w++ {
		conns.Add(1)
		go func() {
			defer conns.Done()
			for {
				select {
				case i := <-postQ:
					handlePost(i)
					continue
				default:
				}
				select {
				case i := <-postQ:
					handlePost(i)
				case i := <-getQ:
					in.get(&runs[i])
					pending.Done()
				case <-stop:
					return
				}
			}
		}()
	}

	start := now().Add(2 * time.Millisecond)
	for i := range jobs {
		runs[i].due = start.Add(jobs[i].due)
		if w := time.Until(runs[i].due); w > 0 {
			time.Sleep(w)
		}
		runs[i].handed = now()
		postQ <- i
	}
	finished := make(chan struct{})
	go func() {
		pending.Wait()
		close(finished)
	}()
	select {
	case <-finished:
	case <-time.After(drainTimeout):
		close(stop)
		return nil, fmt.Errorf("jobs still unfinished %v after the window", drainTimeout)
	}
	close(stop)
	conns.Wait()
	waiters.Wait()
	if sampler != nil {
		sampler.finish()
	}
	return in.evaluate(runs, traced, journalMark, sampler)
}

// evaluate checks every job's result and turns the window into a sample.
func (in *serviceInst) evaluate(runs []jobRun, traced bool, journalMark [2]int, sampler *statsSampler) (*sample, error) {
	sys := in.sys
	s := &sample{ops: len(runs), det: map[string]float64{}}
	fail := func(r *jobRun, format string, args ...any) {
		s.failed++
		s.notes = append(s.notes, fmt.Sprintf("job %s (%s): ", r.id, r.input.class)+fmt.Sprintf(format, args...))
	}
	var genLag, admit, queue, exec, deliver, submit, sizes, cutRatios []float64
	compileMS := map[string][]float64{}
	var firstDue, lastDone time.Time
	rerun := map[string]int{}
	direct := map[int]*core.Solver{}
	for i := range runs {
		r := &runs[i]
		if r.err != nil {
			fail(r, "%v", r.err)
			continue
		}
		v := r.view
		if v.State != service.StateDone || v.Result == nil || v.TimedOut || v.StartedAt == nil || v.FinishedAt == nil {
			fail(r, "state %s, error %q", v.State, v.Error)
			continue
		}
		var spec service.JobSpec
		if err := json.Unmarshal(r.input.body, &spec); err != nil {
			return nil, err
		}
		model, init, err := in.modelFor(r.input, spec, compileMS)
		if err != nil {
			fail(r, "%v", err)
			continue
		}
		res := v.Result
		if len(res.Replicas) != spec.Replicas {
			fail(r, "%d replicas, want %d", len(res.Replicas), spec.Replicas)
			continue
		}
		if e := model.Energy(res.BestSpins); e != res.BestEnergy { //sophielint:ignore floateq a result must report the exact energy of its spins
			fail(r, "best_energy %v, Energy(best_spins) %v", res.BestEnergy, e)
			continue
		}
		if r.input.graph >= 0 {
			cut := sys.graphs[r.input.graph].CutValue(res.BestSpins)
			if cut != res.BestCut { //sophielint:ignore floateq the service and the benchmark compute the same cut sum
				fail(r, "best_cut %v, CutValue(best_spins) %v", res.BestCut, cut)
				continue
			}
			if r.input.class != classEarly {
				cutRatios = append(cutRatios, cut/sys.greedy[r.input.graph])
			}
		} else if res.Solution == nil {
			fail(r, "problem job has no decoded solution")
			continue
		}
		if r.input.class != classEarly && rerun[r.input.class] < rerunPerClass {
			rerun[r.input.class]++
			if err := in.rerun(r, spec, model, init, direct); err != nil {
				fail(r, "direct re-run: %v", err)
				continue
			}
		}
		if firstDue.IsZero() || r.due.Before(firstDue) {
			firstDue = r.due
		}
		if r.received.After(lastDone) {
			lastDone = r.received
		}
		s.latMS = append(s.latMS, ms(r.received.Sub(r.due)))
		genLag = append(genLag, ms(r.handed.Sub(r.due)))
		admit = append(admit, ms(v.SubmittedAt.Sub(r.handed)))
		queue = append(queue, ms(v.StartedAt.Sub(v.SubmittedAt)))
		exec = append(exec, ms(v.FinishedAt.Sub(*v.StartedAt)))
		deliver = append(deliver, ms(r.received.Sub(*v.FinishedAt)))
		submit = append(submit, ms(r.posted.Sub(r.sent)))
		sizes = append(sizes, float64(r.bytes))
		if traced {
			in.jobSpans(r)
		}
	}
	if !lastDone.IsZero() {
		s.busyS = lastDone.Sub(firstDue).Seconds()
	}
	s.det["cut_ratio"] = mean(cutRatios)
	if p := percentile(genLag, 99); p > maxGenLagP99MS {
		return nil, fmt.Errorf("%w: load generator ran %.2f ms late at p99 (limit %v ms)", errInvalid, p, maxGenLagP99MS)
	}
	if !traced {
		return s, nil
	}

	l := map[string]float64{}
	l["bench.gen_lag_ms"] = mean(genLag)
	l["service.admit_ms"] = mean(admit)
	l["service.queue_ms"] = mean(queue)
	l["service.exec_ms"] = mean(exec)
	l["service.deliver_ms"] = mean(deliver)
	if lat := mean(s.latMS); lat > 0 {
		sum := mean(genLag) + mean(admit) + mean(queue) + mean(exec) + mean(deliver)
		l["bench.attribution_gap_frac"] = math.Abs(sum-lat) / lat
	}
	l["service.queue_ms_p99"] = percentile(queue, 99)
	l["service.exec_ms_p99"] = percentile(exec, 99)
	l["service.submit_ms_p50"] = percentile(submit, 50)
	l["service.submit_ms_p99"] = percentile(submit, 99)
	l["service.result_bytes_mean"] = mean(sizes)
	l["bench.gen_lag_ms_p99"] = percentile(genLag, 99)
	l["bench.gen_lag_ms_max"] = percentile(genLag, 100)
	for t, xs := range compileMS {
		l["problem.compile_ms."+t] = mean(xs)
	}
	hits := sampler.last.SolverCache.Hits - sampler.first.SolverCache.Hits
	misses := sampler.last.SolverCache.Misses - sampler.first.SolverCache.Misses
	if hits+misses > 0 {
		l["service.cache_hit_frac"] = float64(hits) / float64(hits+misses)
	}
	l["service.cache_builds"] = float64(misses)
	l["service.queue_depth_max"] = float64(sampler.maxDepth)
	l["service.rejected"] = float64(sampler.last.Rejected - sampler.first.Rejected)
	in.journal.mu.Lock()
	submitted := in.journal.submittedMS[journalMark[0]:]
	buffered := in.journal.bufferedMS[journalMark[1]:]
	l["wal.submitted_ms_p50"] = percentile(submitted, 50)
	l["wal.submitted_ms_p99"] = percentile(submitted, 99)
	l["wal.buffered_ms_mean"] = mean(buffered)
	l["wal.appends"] = float64(len(submitted) + len(buffered))
	in.journal.mu.Unlock()
	s.layers = l
	return s, nil
}

// jobSpans records a finished job's path through the layers.
func (in *serviceInst) jobSpans(r *jobRun) {
	sp, v := in.sys.env.spans, r.view
	root := sp.add(r.id, 0, "job", r.due, r.received)
	sp.add(r.id, root, "bench.gen_lag", r.due, r.handed)
	sp.add(r.id, root, "service.admit", r.handed, v.SubmittedAt)
	sp.add(r.id, root, "http.POST", r.sent, r.posted)
	sp.add(r.id, root, "service.queue", v.SubmittedAt, *v.StartedAt)
	sp.add(r.id, root, "service.exec", *v.StartedAt, *v.FinishedAt)
	sp.add(r.id, root, "service.deliver", *v.FinishedAt, r.received)
}

// modelFor rebuilds the Ising model a job ran on, plus the initial spins a
// problem front end installs. Problem specs are parsed and compiled from
// the exact submitted bytes, timed per type.
func (in *serviceInst) modelFor(j *jobInput, spec service.JobSpec, compileMS map[string][]float64) (*ising.Model, []int8, error) {
	if j.graph >= 0 {
		return in.sys.models[j.graph], nil, nil
	}
	t0 := time.Now()
	p, err := problem.ParseSpec(spec.Problem)
	if err != nil {
		return nil, nil, err
	}
	c, err := problem.Compile(p)
	if err != nil {
		return nil, nil, err
	}
	t1 := time.Now()
	compileMS[j.ptype] = append(compileMS[j.ptype], ms(t1.Sub(t0)))
	in.sys.env.spans.add("compile-"+j.ptype, 0, "problem.Compile", t0, t1)
	var init []int8
	if pi, ok := p.(problem.Initializer); ok {
		init = pi.InitialSpins()
	}
	return c.Model, init, nil
}

// rerun runs a job again straight through core, the way the service
// builds it, and requires a bit-identical result. Solvers of graph jobs
// are shared per graph, as the service's cache shares them.
func (in *serviceInst) rerun(r *jobRun, spec service.JobSpec, model *ising.Model, init []int8, direct map[int]*core.Solver) error {
	cfg := core.DefaultConfig()
	cfg.Seed = spec.Seed
	o := spec.Config
	if o.GlobalIters != nil {
		cfg.GlobalIters = *o.GlobalIters
	}
	if o.SkipTransform != nil {
		cfg.SkipTransform = *o.SkipTransform
	}
	if o.Device != nil && *o.Device {
		cfg.Engine = func(tiles []*linalg.Matrix) (tiling.Engine, error) {
			return opcm.NewEngine(tiles, 0, opcm.DefaultParams())
		}
	}
	solver, ok := direct[r.input.graph]
	if !ok {
		var err error
		if solver, err = core.NewSolver(model, cfg); err != nil {
			return err
		}
		if r.input.graph >= 0 {
			direct[r.input.graph] = solver
		}
	}
	solver, err := solver.WithRuntime(func(c *core.Config) {
		c.GlobalIters, c.Seed, c.InitialSpins = cfg.GlobalIters, cfg.Seed, init
	})
	if err != nil {
		return err
	}
	seeds, err := core.SeedRange(spec.Seed, spec.Replicas)
	if err != nil {
		return err
	}
	var res *core.BatchResult
	if t := spec.Tempering; t != nil {
		res, err = solver.RunTempering(seeds, core.TemperingOptions{TMin: t.TMin, TMax: t.TMax, ExchangeEvery: t.ExchangeEvery})
	} else {
		res, err = solver.RunBatch(seeds, core.BatchOptions{})
	}
	if err != nil {
		return err
	}
	got := r.view.Result
	if math.Float64bits(got.BestEnergy) != math.Float64bits(res.BestEnergy) || got.BestIndex != res.BestIndex ||
		!equalSpins(got.BestSpins, res.Best().BestSpins) {
		return fmt.Errorf("best %v at %d, direct %v at %d", got.BestEnergy, got.BestIndex, res.BestEnergy, res.BestIndex)
	}
	for k, rep := range got.Replicas {
		d := res.Results[k]
		if math.Float64bits(rep.BestEnergy) != math.Float64bits(d.BestEnergy) || rep.BestGlobalIter != d.BestGlobalIter || rep.GlobalItersRun != d.GlobalItersRun {
			return fmt.Errorf("replica %d differs from the direct run", k)
		}
	}
	return nil
}

func equalSpins(a, b []int8) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
