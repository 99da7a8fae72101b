package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"sophie/internal/linalg"
	"sophie/internal/service"
	"sophie/internal/tiling"
	"sophie/internal/trace"
	"sophie/internal/wal"
)

// Layer instrumentation for traced runs. Every layer is timed from the
// outside, around calls into its public functions; nothing here changes
// what a layer computes.

// span is one timed call into a layer. Spans of one operation (a solver
// call, a service job) share Trace.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Trace  string `json:"trace"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the run started
	End    int64  `json:"end_ns"`
}

// maxSpans bounds the in-memory span buffer; a run that outgrows it
// counts the spans it dropped instead of growing without limit.
const maxSpans = 1 << 18

// spanLog is the in-memory span buffer of a traced run, written out when
// the run ends. A nil *spanLog records nothing.
type spanLog struct {
	t0      time.Time
	mu      sync.Mutex
	spans   []span
	dropped int
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

// add records a span and returns its id (0 when the log is nil or full).
func (l *spanLog) add(traceID string, parent int64, name string, start, end time.Time) int64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.spans) >= maxSpans {
		l.dropped++
		return 0
	}
	id := int64(len(l.spans)) + 1
	l.spans = append(l.spans, span{
		ID: id, Parent: parent, Trace: traceID, Name: name,
		Start: start.Sub(l.t0).Nanoseconds(), End: end.Sub(l.t0).Nanoseconds(),
	})
	return id
}

// write stores the spans as JSON at path.
func (l *spanLog) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	data, err := json.Marshal(struct {
		Dropped int    `json:"dropped"`
		Spans   []span `json:"spans"`
	}{l.dropped, l.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// coreCounter folds the solver's execution events into the per-call
// counts of the core layer. It is the OnEvent hook of a trace.Recorder,
// which serializes calls; the fields are read after the solver call
// returns.
type coreCounter struct {
	globalIters, localBatches, syncPairs, energyEvals, flips int64
	exchanges, accepted                                      int64
}

func (c *coreCounter) observe(ev trace.Event) {
	switch ev.Kind {
	case trace.KindGlobalStart:
		c.globalIters++
	case trace.KindLocalBatch:
		c.localBatches++
	case trace.KindSyncPair:
		c.syncPairs++
	case trace.KindEnergy:
		c.energyEvals++
		c.flips += ev.N
	case trace.KindExchange:
		c.exchanges++
		if ev.Flag {
			c.accepted++
		}
	}
}

// newCoreRecorder returns a recorder with phase timing whose events feed c.
func newCoreRecorder(c *coreCounter) *trace.Recorder {
	return trace.NewRecorder(trace.Options{Capacity: 1024, Timing: true, OnEvent: c.observe})
}

// Engine operations the counting engine tells apart.
const (
	opMul = iota
	opMulBinary
	opMulDelta
	numEngineOps
)

// engineSampleEvery: one call in this many is timed; every call is counted.
const engineSampleEvery = 16

// engineShard holds one tile pair's counters, padded to its own cache
// lines so concurrent replicas working on different pairs do not contend.
type engineShard struct {
	calls   [numEngineOps]atomic.Int64
	timed   [numEngineOps]atomic.Int64
	timedNS [numEngineOps]atomic.Int64
	_       [56]byte
}

// countingEngine wraps the ideal tile engine for traced dense-g1 runs. It
// implements exactly what tiling.IdealEngine implements — Engine,
// DeltaEngine and BinaryEngine — so the solver keeps the same datapath
// and computes bit-identical results.
type countingEngine struct {
	inner  *tiling.IdealEngine
	shards []engineShard
}

// build is the core.EngineFactory that installs the wrapper.
func (e *countingEngine) build(tiles []*linalg.Matrix) (tiling.Engine, error) {
	inner, err := tiling.NewIdealEngine(tiles)
	if err != nil {
		return nil, err
	}
	e.inner = inner
	e.shards = make([]engineShard, len(tiles))
	return e, nil
}

func (e *countingEngine) start(p, op int) (time.Time, bool) {
	if e.shards[p].calls[op].Add(1)%engineSampleEvery != 0 {
		return time.Time{}, false
	}
	return time.Now(), true
}

func (e *countingEngine) stop(p, op int, t0 time.Time, timed bool) {
	if timed {
		sh := &e.shards[p]
		sh.timedNS[op].Add(time.Since(t0).Nanoseconds())
		sh.timed[op].Add(1)
	}
}

func (e *countingEngine) Mul(p int, transposed bool, x, y []float64) {
	t0, timed := e.start(p, opMul)
	e.inner.Mul(p, transposed, x, y)
	e.stop(p, opMul, t0, timed)
}

func (e *countingEngine) MulBinary(p int, transposed bool, x, y []float64) {
	t0, timed := e.start(p, opMulBinary)
	e.inner.MulBinary(p, transposed, x, y)
	e.stop(p, opMulBinary, t0, timed)
}

func (e *countingEngine) MulDelta(p int, transposed bool, flips []int, signs []float64, y []float64) {
	t0, timed := e.start(p, opMulDelta)
	e.inner.MulDelta(p, transposed, flips, signs, y)
	e.stop(p, opMulDelta, t0, timed)
}

func (e *countingEngine) TileSize() int { return e.inner.TileSize() }
func (e *countingEngine) Pairs() int    { return e.inner.Pairs() }

// engineTotals is a snapshot of the engine counters.
type engineTotals struct {
	calls [numEngineOps]int64
	// seconds estimates each operation's total time from the sampled calls.
	seconds [numEngineOps]float64
}

func (e *countingEngine) totals() engineTotals {
	var t engineTotals
	var timed, ns [numEngineOps]int64
	for i := range e.shards {
		for op := 0; op < numEngineOps; op++ {
			t.calls[op] += e.shards[i].calls[op].Load()
			timed[op] += e.shards[i].timed[op].Load()
			ns[op] += e.shards[i].timedNS[op].Load()
		}
	}
	for op := range t.seconds {
		if timed[op] > 0 {
			t.seconds[op] = float64(ns[op]) / float64(timed[op]) * float64(t.calls[op]) / 1e9
		}
	}
	return t
}

func (t engineTotals) minus(o engineTotals) engineTotals {
	for op := range t.calls {
		t.calls[op] -= o.calls[op]
		t.seconds[op] -= o.seconds[op]
	}
	return t
}

// timedJournal is the service.Journal decorator of traced service runs:
// it times every append on its way to the write-ahead log.
type timedJournal struct {
	log   *wal.Log
	spans *spanLog

	mu          sync.Mutex
	submittedMS []float64 // fsync group-commit waits
	bufferedMS  []float64 // buffered started/terminal appends
}

func (j *timedJournal) JobSubmitted(sj service.SnapshotJob) error {
	t0 := time.Now()
	err := j.log.JobSubmitted(sj)
	t1 := time.Now()
	j.spans.add(sj.ID, 0, "wal.JobSubmitted", t0, t1)
	j.mu.Lock()
	j.submittedMS = append(j.submittedMS, ms(t1.Sub(t0)))
	j.mu.Unlock()
	return err
}

func (j *timedJournal) JobStarted(id string) error {
	return j.buffered(id, "wal.JobStarted", func() error { return j.log.JobStarted(id) })
}

func (j *timedJournal) JobTerminal(id string, state service.State) error {
	return j.buffered(id, "wal.JobTerminal", func() error { return j.log.JobTerminal(id, state) })
}

func (j *timedJournal) buffered(id, name string, appendFn func() error) error {
	t0 := time.Now()
	err := appendFn()
	t1 := time.Now()
	j.spans.add(id, 0, name, t0, t1)
	j.mu.Lock()
	j.bufferedMS = append(j.bufferedMS, ms(t1.Sub(t0)))
	j.mu.Unlock()
	return err
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
