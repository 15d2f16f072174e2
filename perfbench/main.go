// Command perfbench is the repository's benchmark: one command that runs
// a named workload against the simulator, the decision server or the
// sweep fabric, checks the outputs for correctness, and prints the
// workload's metrics. See README.md for the workloads and metrics.
//
//	bash perfbench/run.sh --workload sim_ppf --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {...}}
//
// With --trace 0 the metrics are the end_to_end list of BENCHMARK.json,
// measured with no tracing; with --trace 1 they are its per_layer list,
// measured with timing wrappers around each layer's public calls. The
// metric names and units come from BENCHMARK.json, read from the
// working directory, so that file is the single definition of both.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"
)

// spec is the part of BENCHMARK.json the program reads.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// options are the command-line inputs every workload receives.
type options struct {
	seed     uint64
	duration time.Duration
	trace    bool
}

// outcome is what a workload run reports: its operation counts, the
// values of the metrics it measured, the problems its correctness
// oracles found, and human-readable report lines.
type outcome struct {
	attempted, failed int
	metrics           map[string]float64
	problems          []string
	report            []string
}

func newOutcome() *outcome { return &outcome{metrics: map[string]float64{}} }

// set records a metric value.
func (o *outcome) set(name string, v float64) { o.metrics[name] = v }

// problem records a failed correctness check.
func (o *outcome) problem(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// line adds a human-readable report line.
func (o *outcome) line(format string, args ...any) {
	o.report = append(o.report, fmt.Sprintf(format, args...))
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(options) (*outcome, error){
	"sim_ppf":     func(o options) (*outcome, error) { return runSim(o, "ppf") },
	"sim_base":    func(o options) (*outcome, error) { return runSim(o, "none") },
	"serve_loop":  runServe,
	"sweep_fleet": runFleet,
}

func main() {
	name := flag.String("workload", "", "workload to run (see BENCHMARK.json)")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "measurement window in seconds")
	traceFlag := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	writeGolden := flag.String("write-golden", "", "regenerate the sim_* result digests for the default seed into this file and exit")
	flag.Parse()

	if *writeGolden != "" {
		if err := regenerateGolden(*writeGolden); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	sp, err := readSpec("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	run, ok := workloads[*name]
	if !ok || !sp.declares(*name) {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (have %s)\n", *name, strings.Join(sp.workloadNames(), ", "))
		os.Exit(2)
	}
	if *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	opt := options{seed: *seed, duration: time.Duration(*seconds * float64(time.Second)), trace: *traceFlag == 1}
	cpuBefore, cpuErr := readCPUTicks()
	out, err := run(opt)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	if cpuAfter, err := readCPUTicks(); err == nil && cpuErr == nil {
		out.line("host_steal         %.2f%% of all CPUs' time during the run", 100*cpuAfter.stealShareSince(cpuBefore))
	}
	want := sp.EndToEnd
	if opt.trace {
		want = sp.PerLayer
	}
	result, err := finish(out, want, opt.trace)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	fmt.Printf("== %s seed=%d seconds=%g trace=%d\n", *name, *seed, *seconds, *traceFlag)
	for _, l := range out.report {
		fmt.Println(l)
	}
	for _, p := range out.problems {
		fmt.Println("INCORRECT:", p)
	}
	blob, err := json.Marshal(result)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(blob))
}

func readSpec(path string) (spec, error) {
	var sp spec
	data, err := os.ReadFile(path)
	if err != nil {
		return sp, fmt.Errorf("reading benchmark definition: %w", err)
	}
	if err := json.Unmarshal(data, &sp); err != nil {
		return sp, fmt.Errorf("parsing %s: %w", path, err)
	}
	return sp, nil
}

func (sp spec) workloadNames() []string {
	var names []string
	for _, w := range sp.Workloads {
		names = append(names, w.Name)
	}
	return names
}

func (sp spec) declares(name string) bool {
	for _, w := range sp.Workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// finish renders the declared metrics from a workload's outcome. An
// end-to-end metric applies to every workload, so a missing one is a
// bug in the benchmark. A per-layer metric of a layer the workload does
// not exercise reads 0. A measured metric that is not declared is a bug
// too: BENCHMARK.json must list everything the benchmark reports.
func finish(out *outcome, want []metricSpec, traced bool) (result, error) {
	res := result{
		Correct:   len(out.problems) == 0 && out.failed == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   map[string]metricValue{},
	}
	if res.Attempted < 1 {
		return res, fmt.Errorf("no operation attempted")
	}
	declared := map[string]bool{}
	for _, m := range want {
		declared[m.Name] = true
		v, ok := out.metrics[m.Name]
		if !ok && !traced {
			return res, fmt.Errorf("end-to-end metric %s not measured", m.Name)
		}
		res.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	var extra []string
	for name := range out.metrics {
		if !declared[name] {
			extra = append(extra, name)
		}
	}
	if len(extra) > 0 {
		sort.Strings(extra)
		return res, fmt.Errorf("metrics not declared in BENCHMARK.json: %s", strings.Join(extra, ", "))
	}
	return res, nil
}
