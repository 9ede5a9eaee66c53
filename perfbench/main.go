// Command perfbench is the repository benchmark. It runs one workload
// against the system built from this checkout and prints a human
// report followed, as its last line, by one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end metrics of
// BENCHMARK.json, measured untraced; with -trace 1 they are the
// per-layer metrics, from a traced run on the same seed and inputs.
// The exit status is non-zero when any correctness check fails.
//
// Usage (from the repository root, via perfbench/run.sh, which builds
// this program first):
//
//	perfbench -workload buy-serial|batch-ingest -seed N -seconds S
//	          -trace 0|1 -workdir scratch/dir
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"time"
)

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	workdir  string
}

// window is the measured run length.
func (c config) window() time.Duration { return time.Duration(c.seconds) * time.Second }

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// check is one correctness verdict.
type check struct {
	name   string
	ok     bool
	detail string
}

// report collects one run's figures and verdicts.
type report struct {
	endToEnd map[string]metric
	layers   map[string]metric
	counts   map[string]int // sample counts behind named metrics
	notes    []string       // human report lines
	checks   []check
	ops      tally
}

func newReport() *report {
	return &report{endToEnd: map[string]metric{}, layers: map[string]metric{}, counts: map[string]int{}}
}

func (r *report) e2e(name string, v float64, unit string, n int) {
	r.endToEnd[name] = metric{Value: v, Unit: unit}
	if n > 0 {
		r.counts[name] = n
	}
}

func (r *report) layer(name string, v float64, unit string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	r.layers[name] = metric{Value: v, Unit: unit}
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func (r *report) verify(name string, ok bool, format string, args ...any) {
	r.checks = append(r.checks, check{name: name, ok: ok, detail: fmt.Sprintf(format, args...)})
}

func (r *report) correct() bool {
	for _, c := range r.checks {
		if !c.ok {
			return false
		}
	}
	return len(r.checks) > 0
}

// result is the final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

var workloads = map[string]func(config, *report) error{
	"buy-serial":   runBuy,
	"batch-ingest": runBatchIngest,
}

func main() {
	var cfg config
	flag.StringVar(&cfg.workload, "workload", "", "buy-serial or batch-ingest")
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed")
	flag.IntVar(&cfg.seconds, "seconds", 20, "measured run length in seconds")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	flag.StringVar(&cfg.workdir, "workdir", "", "scratch directory for WAL and data files")
	flag.Parse()
	cfg.trace = *trace == 1
	run, ok := workloads[cfg.workload]
	if !ok || cfg.seconds < 1 || (*trace != 0 && *trace != 1) || cfg.workdir == "" {
		fmt.Fprintln(os.Stderr, "perfbench: need -workload (buy-serial|batch-ingest), -seconds >= 1, -trace 0|1 and -workdir")
		os.Exit(2)
	}
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		fatal(err)
	}
	dir, err := os.MkdirTemp(cfg.workdir, cfg.workload+"-")
	if err != nil {
		fatal(err)
	}
	cfg.workdir = dir
	rep := newReport()
	runErr := run(cfg, rep)
	if err := os.RemoveAll(dir); err != nil && runErr == nil {
		runErr = err
	}
	if runErr != nil {
		for _, line := range rep.notes {
			fmt.Fprintln(os.Stderr, "  "+line)
		}
		fatal(runErr)
	}
	printReport(cfg, rep)
	if !rep.correct() {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	os.Exit(1)
}

// printReport writes the human report, then the JSON result line.
func printReport(cfg config, rep *report) {
	mode := "untraced, end-to-end metrics"
	metrics := rep.endToEnd
	if cfg.trace {
		mode = "traced, per-layer metrics"
		metrics = rep.layers
	}
	fmt.Printf("perfbench %s seed=%d seconds=%d (%s)\n", cfg.workload, cfg.seed, cfg.seconds, mode)
	for _, line := range rep.notes {
		fmt.Println("  " + line)
	}
	for _, name := range sortedKeys(metrics) {
		m := metrics[name]
		n := ""
		if c, ok := rep.counts[name]; ok {
			n = " (n=" + strconv.Itoa(c) + ")"
		}
		fmt.Printf("  %-44s %14.6g %s%s\n", name, m.Value, m.Unit, n)
	}
	for _, c := range rep.checks {
		verdict := "ok  "
		if !c.ok {
			verdict = "FAIL"
		}
		fmt.Printf("  check %s %s: %s\n", verdict, c.name, c.detail)
	}
	fmt.Printf("  attempted %d, failed %d\n", rep.ops.attempted, rep.ops.failed)
	line, err := json.Marshal(result{
		Correct: rep.correct(), Attempted: rep.ops.attempted, Failed: rep.ops.failed, Metrics: metrics,
	})
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// setUpMany runs setup setups times, each from a collected heap, and
// returns the last result with the median set-up time in seconds.
// Earlier results are released with drop.
func setUpMany[T any](setups int, setup func() (T, error), drop func(T) error) (T, float64, error) {
	var zero T
	var times []float64
	for n := 0; ; n++ {
		runtime.GC()
		debug.FreeOSMemory()
		t0 := time.Now()
		r, err := setup()
		if err != nil {
			return zero, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
		if n == setups-1 {
			return r, median(times), nil
		}
		if err := drop(r); err != nil {
			return zero, 0, err
		}
	}
}

// traceSegments is how many traced segments a traced run alternates
// with as many untraced ones.
const traceSegments = 10

// alternate splits d into 2·traceSegments equal segments, untraced and
// traced in turn, and calls run on each. State that drifts over a run
// (a growing dataset or ledger) then weighs on both halves alike.
func alternate(d time.Duration, run func(seg time.Duration, traced bool) error) error {
	n := 2 * traceSegments
	for i := 0; i < n; i++ {
		if err := run(d/time.Duration(n), i%2 == 1); err != nil {
			return err
		}
	}
	return nil
}

// spanFile is where a traced run writes its spans when it ends.
func spanFile(cfg config) string {
	return filepath.Join(filepath.Dir(cfg.workdir), fmt.Sprintf("spans-%s-seed%d.json", cfg.workload, cfg.seed))
}
