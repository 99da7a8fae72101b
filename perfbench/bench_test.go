package main

import (
	"bytes"
	"errors"
	"math"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

const benchJSON = "../BENCHMARK.json"

// TestBenchmarkJSONMatchesDeclarations checks BENCHMARK.json against its
// limits and against the metrics and workloads this program declares.
func TestBenchmarkJSONMatchesDeclarations(t *testing.T) {
	b, err := readBenchFile(benchJSON)
	if err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	checkName := func(n string) {
		t.Helper()
		if !nameRE.MatchString(n) {
			t.Errorf("name %q is not [A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	if len(b.Workloads) < 2 || len(b.Workloads) > 8 {
		t.Errorf("%d workloads, want 2..8", len(b.Workloads))
	}
	if len(b.EndToEnd) < 1 || len(b.EndToEnd) > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", len(b.EndToEnd))
	}
	if len(b.PerLayer) < 1 || len(b.PerLayer) > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", len(b.PerLayer))
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", b.RunSeconds)
	}

	declared := map[string]bool{}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the program %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		checkName(w.Name)
		declared[w.Name] = true
		if strings.TrimSpace(w.Why) == "" || strings.Contains(w.Why, "\n") || len(w.Why) > 200 {
			t.Errorf("workload %s: why must be one non-empty line of at most 200 characters", w.Name)
		}
		if i < len(workloads) && workloads[i].name != w.Name {
			t.Errorf("workload %d is %s in BENCHMARK.json, %s in the program", i, w.Name, workloads[i].name)
		}
	}

	e2e := map[string]bool{}
	largest := 0.0
	if len(b.EndToEnd) != len(endToEnd) {
		t.Errorf("BENCHMARK.json has %d end-to-end metrics, the program %d", len(b.EndToEnd), len(endToEnd))
	}
	for i, m := range b.EndToEnd {
		checkName(m.Name)
		e2e[m.Name] = true
		if i < len(endToEnd) && (metricDef{m.Name, m.Unit, m.Better}) != endToEnd[i] {
			t.Errorf("end-to-end metric %d is %+v in BENCHMARK.json, %+v in the program", i, m, endToEnd[i])
		}
		if !(m.Bound > 0 && m.Bound <= 0.25) {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		largest = math.Max(largest, m.Bound)
	}
	for _, m := range b.EndToEnd {
		if m.Name == "setup_s" && (m.Unit != "s" || m.Better != "lower" || m.Bound < largest) {
			t.Errorf("setup_s must be in s, lower is better, with the largest bound: %+v", m)
		}
	}
	if !e2e["setup_s"] {
		t.Error("no setup_s metric")
	}

	if len(b.PerLayer) != len(perLayer) {
		t.Errorf("BENCHMARK.json has %d per-layer metrics, the program %d", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		checkName(m.Name)
		if i < len(perLayer) && (metricDef{m.Name, m.Unit, m.Better}) != perLayer[i].metricDef {
			t.Errorf("per-layer metric %d is %+v in BENCHMARK.json, %+v in the program", i, m, perLayer[i].metricDef)
		}
	}
	for _, d := range perLayer {
		if !e2e[d.moves] {
			t.Errorf("%s moves %q, which is no end-to-end metric", d.name, d.moves)
		}
		if len(d.workloads) == 0 {
			t.Errorf("%s names no workload it moves", d.name)
		}
		for _, w := range d.workloads {
			if !declared[w] {
				t.Errorf("%s moves %s on %q, which is no workload", d.name, d.moves, w)
			}
		}
	}
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	for _, d := range append(append([]metricDef(nil), endToEnd...), layerMetricDefs()...) {
		if !unitRE.MatchString(d.unit) {
			t.Errorf("%s: unit %q", d.name, d.unit)
		}
		if d.better != "higher" && d.better != "lower" {
			t.Errorf("%s: better %q", d.name, d.better)
		}
	}
}

func layerMetricDefs() []metricDef {
	var out []metricDef
	for _, d := range perLayer {
		out = append(out, d.metricDef)
	}
	return out
}

// TestSmallWorkloads runs every workload at reduced size through the
// command's own code path: untraced, again with the same seed, and traced
// over a window of the same length. Every operation must succeed, every
// declared metric must be emitted, the service attribution must add up to
// the latency, and every deterministic value must repeat exactly — which
// for the traced run also proves the engine wrapper and the recorders left
// the datapath alone.
func TestSmallWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all five workloads")
	}
	const seconds = 1.5
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			run := func(traced bool, seconds float64) *outcome {
				t.Helper()
				out, err := runWorkload(runOptions{workload: w.name, seed: 7, seconds: seconds, traced: traced,
					small: true, workDir: t.TempDir(), spansPath: filepath.Join(t.TempDir(), "spans.json")})
				if raceDetectorOn && errors.Is(err, errInvalid) {
					t.Skip(err)
				}
				if err != nil {
					t.Fatal(err)
				}
				if !out.Correct || out.Failed != 0 || out.Attempted < 1 {
					t.Fatalf("traced=%v: correct=%v failed=%d of %d: %v", traced, out.Correct, out.Failed, out.Attempted, out.notes)
				}
				want := endToEnd
				if traced {
					want = layerMetricDefs()
				}
				if len(out.Metrics) != len(want) {
					t.Errorf("traced=%v: %d metrics, want %d", traced, len(out.Metrics), len(want))
				}
				for _, d := range want {
					m, ok := out.Metrics[d.name]
					if !ok || m.Unit != d.unit {
						t.Errorf("traced=%v: metric %s missing or not in %s: %+v", traced, d.name, d.unit, m)
					}
				}
				return out
			}
			first := run(false, seconds)
			for _, d := range endToEnd {
				if v := first.Metrics[d.name].Value; !(v > 0) {
					t.Errorf("end-to-end metric %s = %v, want > 0", d.name, v)
				}
			}
			repeat := run(false, seconds)
			// A traced run measures half its window untraced and half traced,
			// so twice the seconds gives each half the same inputs.
			traced := run(true, 2*seconds)
			for k, v := range first.det {
				for name, other := range map[string]*outcome{"repeat": repeat, "traced": traced} {
					if ov, ok := other.det[k]; !ok || math.Float64bits(ov) != math.Float64bits(v) {
						t.Errorf("%s: %s is %v, first run %v", name, k, ov, v)
					}
				}
			}
			if w.name == wMixed || w.name == wTiny {
				if gap := traced.Metrics["bench.attribution_gap_frac"].Value; gap > 0.05 {
					t.Errorf("service attribution misses the mean latency by %.1f%%", 100*gap)
				}
			}
		})
	}
}

// TestCompareFailsOnInjectedSlowdown builds synthetic reports and checks
// that -compare passes identical runs and a slowdown within the bound,
// fails a slowdown 20% past the bound of latency_p50_ms on one workload,
// and refuses reports of different hosts.
func TestCompareFailsOnInjectedSlowdown(t *testing.T) {
	b, err := readBenchFile(benchJSON)
	if err != nil {
		t.Fatal(err)
	}
	bound := -1.0
	for _, m := range b.EndToEnd {
		if m.Name == "latency_p50_ms" {
			bound = m.Bound
		}
	}
	if bound < 0 {
		t.Fatal("BENCHMARK.json declares no latency_p50_ms")
	}
	fp := hostFingerprint()
	synthetic := func(slowdown float64) *report {
		rep := &report{Schema: reportSchema, Fingerprint: fp}
		for _, w := range b.Workloads {
			for seed := int64(1); seed <= 5; seed++ {
				r := reportRun{Workload: w.Name, Seed: seed}
				r.Correct, r.Attempted = true, 10
				r.Metrics = map[string]metricValue{}
				for _, m := range b.EndToEnd {
					v := 100 * (1 + 0.001*float64(seed))
					if w.Name == wTiny && m.Name == "latency_p50_ms" {
						v *= 1 + slowdown
					}
					r.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
				}
				rep.Runs = append(rep.Runs, r)
			}
		}
		return rep
	}
	dir := t.TempDir()
	write := func(name string, rep *report) string {
		p := filepath.Join(dir, name)
		if err := writeJSON(p, rep); err != nil {
			t.Fatal(err)
		}
		return p
	}
	base := write("base.json", synthetic(0))
	var out, errOut bytes.Buffer
	for name, slowdown := range map[string]float64{"same.json": 0, "within.json": bound / 2} {
		out.Reset()
		if code := compareMain(base, write(name, synthetic(slowdown)), benchJSON, &out, &errOut); code != 0 {
			t.Fatalf("%.0f%% slower: exit %d\n%s%s", 100*slowdown, code, out.String(), errOut.String())
		}
	}
	out.Reset()
	if code := compareMain(base, write("slow.json", synthetic(bound+0.2)), benchJSON, &out, &errOut); code != 1 {
		t.Fatalf("latency_p50_ms 20%% past its bound: exit %d, want 1\n%s", code, out.String())
	}
	if !regexp.MustCompile(`service-tiny\s+latency_p50_ms.*worse`).MatchString(out.String()) {
		t.Errorf("the slowdown is not reported as worse:\n%s", out.String())
	}
	other := synthetic(0)
	other.Fingerprint.NProc++
	if code := compareMain(base, write("other.json", other), benchJSON, &out, &errOut); code != 2 {
		t.Errorf("reports of different hosts: exit %d, want 2", code)
	}
}

// TestVerdict pins the compare rules on hand-made samples.
func TestVerdict(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102}
	for _, c := range []struct {
		name   string
		base   []float64
		head   []float64
		higher bool
		want   string
	}{
		{"unchanged", base, []float64{100, 101, 100}, false, verdictSame},
		{"slower past the bound", base, []float64{115, 116, 114}, false, verdictWorse},
		{"faster past the bound", base, []float64{85, 86, 84}, false, verdictBetter},
		{"higher is better", base, []float64{85, 86, 84}, true, verdictWorse},
		{"noisy base", []float64{50, 100, 150, 100, 60}, []float64{100}, false, verdictUnresolved},
		{"noisy base, every head run better", []float64{50, 100, 150, 100, 60}, []float64{40}, false, verdictBetter},
	} {
		if got := verdict(c.base, c.head, 0.1, c.higher); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

// TestQuartilesMatchPython pins quartiles to the values Python's
// statistics.quantiles(xs, n=4) returns for the same data.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4}, 1.25, 3.75},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{5, 1, 3}, 1, 5},
		{[]float64{2, 4}, 1.5, 4.5},
	} {
		q1, q3 := quartiles(c.xs)
		if q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}
