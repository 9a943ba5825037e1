// Command perfbench is the repository's end-to-end benchmark: three
// workloads against the AMR engine and the job service, each printing
// its end-to-end metrics (or, with --trace 1, its per-layer metrics) as
// one JSON line. Build and run it from the repository root with
//
//	bash perfbench/run.sh --workload sedov-amr --seed 1 --seconds 20 --trace 0
//
// See README.md in this directory for the workloads and metrics.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
)

// benchSpec is the part of BENCHMARK.json the program reads: the metric
// names and units it must print.
type benchSpec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// tally counts operations attempted and failed; a failed correctness
// check is a failed operation. Safe for concurrent use.
type tally struct {
	mu                sync.Mutex
	attempted, failed int
}

// op counts one operation and reports whether it succeeded.
func (t *tally) op(err error) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	if err != nil {
		t.failed++
		fmt.Fprintln(os.Stderr, "perfbench: failed:", err)
	}
	return err == nil
}

// check counts one correctness check.
func (t *tally) check(ok bool, format string, args ...any) bool {
	if ok {
		return t.op(nil)
	}
	return t.op(fmt.Errorf(format, args...))
}

// pct names the samples and quantile of one percentile metric.
type pct struct {
	samples []float64
	p       float64
}

// putPercentiles stores each percentile metric, failing when one lacks
// minBeyond samples beyond it: the workload is then too small for the
// metric it claims to report.
func putPercentiles(m map[string]float64, ps map[string]pct) error {
	for name, q := range ps {
		v, ok := percentile(q.samples, q.p)
		if !ok {
			return fmt.Errorf("%s: %d samples leave fewer than %d beyond p%g", name, len(q.samples), minBeyond, 100*q.p)
		}
		m[name] = v
	}
	return nil
}

type workload func(seed int64, seconds float64, tr *tracer, tl *tally) (map[string]float64, error)

func workloadFor(name string) (workload, bool) {
	if name == "service-sweep" {
		return runService, true
	}
	spec, ok := amrSpecs[name]
	if !ok {
		return nil, false
	}
	return func(seed int64, seconds float64, tr *tracer, tl *tally) (map[string]float64, error) {
		return runAMR(spec, seed, seconds, tr, tl)
	}, true
}

// headlineSeconds is the time the tracing overhead is measured on: the
// evolve time of an engine run, the time per submission of the service.
func headlineSeconds(workload string, m map[string]float64) float64 {
	if workload == "service-sweep" {
		return 1 / m["jobs_per_s"]
	}
	return m["evolve_s"]
}

// buildDir holds everything a run leaves behind: build outputs, the
// service's store and the traces.
const buildDir = ".bench_build"

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run() error {
	name := flag.String("workload", "", "workload: sedov-amr, collapse-paper or service-sweep")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 20, "nominal measured seconds; sizes the work")
	trace := flag.Int("trace", 0, "1 = traced run printing per-layer metrics")
	flag.Parse()
	w, ok := workloadFor(*name)
	if !ok {
		return fmt.Errorf("unknown workload %q", *name)
	}
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return err
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	fmt.Printf("# host cpu=%q nproc=%d gomaxprocs=%d go=%s\n", cpuModel(), runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())

	var tl tally
	m, err := w(*seed, *seconds, nil, &tl)
	if err != nil {
		return err
	}
	want := spec.EndToEnd
	if *trace == 1 {
		untraced := headlineSeconds(*name, m)
		tr := newTracer()
		if m, err = w(*seed, *seconds, tr, &tl); err != nil {
			return err
		}
		if err := os.MkdirAll(buildDir, 0o755); err != nil {
			return err
		}
		path := filepath.Join(buildDir, fmt.Sprintf("trace-%s-%d.jsonl", *name, *seed))
		spans, err := tr.finish(path)
		if err != nil {
			return fmt.Errorf("write trace: %w", err)
		}
		fmt.Printf("# %d spans written to %s\n", len(spans), path)
		putHTTPMetrics(m, spans)
		for layer, s := range layerSelfSeconds(spans) {
			m["trace.self_"+layer+"_s"] = s
		}
		m["trace.overhead_pct"] = 100 * (headlineSeconds(*name, m)/untraced - 1)
		want = spec.PerLayer
	}
	res, err := collect(want, spec, m)
	if err != nil {
		return err
	}
	res.Attempted, res.Failed = tl.attempted, tl.failed
	res.Correct = tl.failed == 0
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
	return nil
}

// collect picks the metrics of want out of m. An end-to-end metric the
// workload did not produce is an error; a per-layer metric of a layer
// that did no work reads 0. A produced name BENCHMARK.json does not
// declare is an error, so a misspelt name cannot pass as an idle layer.
func collect(want []metricSpec, spec benchSpec, m map[string]float64) (result, error) {
	declared := map[string]bool{}
	for _, s := range append(spec.EndToEnd, spec.PerLayer...) {
		declared[s.Name] = true
	}
	for name := range m {
		if !declared[name] {
			return result{}, fmt.Errorf("metric %q is not declared in BENCHMARK.json", name)
		}
	}
	isE2E := map[string]bool{}
	for _, s := range spec.EndToEnd {
		isE2E[s.Name] = true
	}
	res := result{Metrics: map[string]metric{}}
	for _, s := range want {
		v, ok := m[s.Name]
		if !ok && isE2E[s.Name] {
			return result{}, fmt.Errorf("workload produced no %s", s.Name)
		}
		res.Metrics[s.Name] = metric{Value: v, Unit: s.Unit}
	}
	return res, nil
}

// putHTTPMetrics records the server-side median of each HTTP route from
// its http.<route> spans.
func putHTTPMetrics(m map[string]float64, spans []span) {
	byName := map[string][]float64{}
	for _, s := range spans {
		byName[s.Name] = append(byName[s.Name], float64(s.End-s.Start)/1e6)
	}
	for _, r := range httpRoutes {
		if xs := byName["http."+r]; len(xs) > 0 {
			m["http."+r+".server_p50_ms"] = median(xs)
		}
	}
}

// cpuModel reads the CPU model name from /proc/cpuinfo ("" elsewhere).
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return ""
}
