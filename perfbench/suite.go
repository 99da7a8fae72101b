package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"text/tabwriter"
)

// benchFile is BENCHMARK.json.
type benchFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchFile(path string) (*benchFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b benchFile
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &b, nil
}

// fingerprint identifies the host a report was measured on; reports of
// different hosts are not compared.
type fingerprint struct {
	CPUModel   string `json:"cpu_model"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
}

func hostFingerprint() fingerprint {
	fp := fingerprint{CPUModel: "unknown", NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version()}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				fp.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return fp
}

// report is what -benchmark writes and -compare reads.
type report struct {
	Schema      string      `json:"schema"`
	Fingerprint fingerprint `json:"fingerprint"`
	Runs        []reportRun `json:"runs"`
}

const reportSchema = "perfbench/v1"

type reportRun struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Traced   bool   `json:"traced"`
	result
}

// suiteMain runs every declared workload in a fresh child process of this
// binary, so heap, caches and peak RSS never carry over between
// workloads, and writes the runs to a report.
func suiteMain(benchPath string, seed int64, runs int, traced bool, out string, stdout, stderr io.Writer) int {
	b, err := readBenchFile(benchPath)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if runs < 1 {
		fmt.Fprintln(stderr, "perfbench: -runs must be at least 1")
		return 2
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	spanDir := filepath.Join(buildDir, "spans", fmt.Sprintf("suite-%d", os.Getpid()))
	rep := report{Schema: reportSchema, Fingerprint: hostFingerprint()}
	spans := map[string]json.RawMessage{}
	status := 0
	modes := []bool{false}
	if traced {
		modes = append(modes, true)
	}
	for r := 0; r < runs; r++ {
		s := seed + int64(r)
		for _, w := range b.Workloads {
			for _, tr := range modes {
				args := []string{"-workload", w.Name, "-seed", strconv.FormatInt(s, 10),
					"-seconds", strconv.Itoa(b.RunSeconds), "-trace", "0"}
				spanPath := filepath.Join(spanDir, fmt.Sprintf("%s-%d.json", w.Name, s))
				if tr {
					args[len(args)-1] = "1"
					args = append(args, "-spans", spanPath)
				}
				res, err := runChild(self, args, stderr)
				if err != nil {
					fmt.Fprintf(stderr, "perfbench: %s seed %d traced=%v: %v\n", w.Name, s, tr, err)
					status = 1
					continue
				}
				if !res.Correct || res.Failed > 0 {
					status = 1
				}
				rep.Runs = append(rep.Runs, reportRun{Workload: w.Name, Seed: s, Traced: tr, result: *res})
				if tr {
					if data, err := os.ReadFile(spanPath); err == nil {
						spans[fmt.Sprintf("%s-%d", w.Name, s)] = data
					}
				}
			}
		}
	}
	if err := writeJSON(out, rep); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if traced {
		if err := writeJSON(strings.TrimSuffix(out, ".json")+".spans.json", spans); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		if err := os.RemoveAll(spanDir); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
	}
	printReport(stdout, &rep)
	return status
}

// runChild runs one workload in a child process and parses the result
// from the last line of its standard output.
func runChild(self string, args []string, stderr io.Writer) (*result, error) {
	cmd := exec.Command(self, args...)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = stderr
	if err := cmd.Run(); err != nil {
		return nil, err
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, fmt.Errorf("parsing result line: %w", err)
	}
	return &res, nil
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readReport(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if r.Schema != reportSchema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, r.Schema, reportSchema)
	}
	return &r, nil
}

// printReport writes every metric of every run by name, value and unit.
func printReport(w io.Writer, rep *report) {
	fmt.Fprintf(w, "host: %s, nproc %d, GOMAXPROCS %d, %s\n", rep.Fingerprint.CPUModel,
		rep.Fingerprint.NProc, rep.Fingerprint.GOMAXPROCS, rep.Fingerprint.GoVersion)
	for i := range rep.Runs {
		r := &rep.Runs[i]
		printMetrics(w, fmt.Sprintf("%s seed %d traced=%v", r.Workload, r.Seed, r.Traced), &r.result)
	}
}

// Verdicts of -compare.
const (
	verdictBetter     = "better"
	verdictSame       = "same"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// verdict judges head against base for one metric. A metric whose base
// runs spread wider than its bound is unresolved unless every head run
// beats every base run; otherwise it is worse (or better) when the head
// median moved past the bound in that direction.
func verdict(base, head []float64, bound float64, higherBetter bool) string {
	dir := -1.0
	if higherBetter {
		dir = 1
	}
	bm := median(base)
	change := 0.0
	if bm != 0 {
		change = dir * (median(head) - bm) / math.Abs(bm)
	}
	allBetter := true
	for _, h := range head {
		for _, b := range base {
			if dir*(h-b) <= 0 {
				allBetter = false
			}
		}
	}
	switch {
	case spread(base) > bound && allBetter:
		return verdictBetter
	case spread(base) > bound:
		return verdictUnresolved
	case change < -bound:
		return verdictWorse
	case change > bound:
		return verdictBetter
	default:
		return verdictSame
	}
}

// compareMain compares the untraced runs of two reports metric by metric
// and workload by workload. It exits 1 when any metric got worse or any
// head run was incorrect, and 2 when the reports cannot be compared.
func compareMain(basePath, headPath, benchPath string, stdout, stderr io.Writer) int {
	b, err := readBenchFile(benchPath)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	base, err := readReport(basePath)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	head, err := readReport(headPath)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	if base.Fingerprint != head.Fingerprint {
		fmt.Fprintf(stderr, "perfbench: refusing to compare reports of different hosts:\n  base %+v\n  head %+v\n", base.Fingerprint, head.Fingerprint)
		return 2
	}
	values := func(rep *report, workload, metric string) []float64 {
		var xs []float64
		for _, r := range rep.Runs {
			if m, ok := r.Metrics[metric]; ok && r.Workload == workload && !r.Traced {
				xs = append(xs, m.Value)
			}
		}
		return xs
	}
	status := 0
	for _, r := range head.Runs {
		if !r.Correct || r.Failed > 0 {
			fmt.Fprintf(stdout, "%s seed %d: head run incorrect (%d of %d operations failed)\n", r.Workload, r.Seed, r.Failed, r.Attempted)
			status = 1
		}
	}
	tw := tabwriter.NewWriter(stdout, 0, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tbase median\thead median\tchange\tbase spread\tbound\tverdict")
	for _, w := range b.Workloads {
		for _, m := range b.EndToEnd {
			bv, hv := values(base, w.Name, m.Name), values(head, w.Name, m.Name)
			if len(bv) == 0 || len(hv) == 0 {
				fmt.Fprintf(tw, "%s\t%s\t-\t-\t-\t-\t%.3g\t%s\n", w.Name, m.Name, m.Bound, verdictUnresolved)
				continue
			}
			v := verdict(bv, hv, m.Bound, m.Better == "higher")
			if v == verdictWorse {
				status = 1
			}
			change := 0.0
			if bm := median(bv); bm != 0 {
				change = (median(hv) - bm) / math.Abs(bm)
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g %s\t%.6g %s\t%+.1f%%\t%.1f%%\t%.3g\t%s\n", w.Name, m.Name,
				median(bv), m.Unit, median(hv), m.Unit, 100*change, 100*spread(bv), m.Bound, v)
		}
	}
	if err := tw.Flush(); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return status
}
