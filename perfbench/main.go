// Command perfbench is rulefit's benchmark. It drives the program from
// outside, through the public functions of spec, core, deps,
// dataplane, verify, state and daemon, on one of three workloads:
//
//	fig7-tight   in process: the paper's Fig. 7 capacity-25 series (search-bound)
//	slack-scale  in process: Fig. 7's slack regime at 100 rules per ingress (root-LP-bound)
//	daemon-mix   HTTP: session deltas beside one-shot places (wire, admission, session ladder)
//
// Usage (from the repository root; perfbench/run.sh builds and runs it):
//
//	perfbench --workload fig7-tight --seed 1 --seconds 30 --trace 0
//
// With --trace 0 the last line of standard output is one JSON object
// holding the end-to-end metrics; with --trace 1 it holds the
// per-layer metrics of a separate traced run, and the aggregated span
// tree is written under --out. README.md explains the workloads and
// what each metric should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// setupReps is how many times a run sets its workload up; setup_s is
// the median, so one slow set-up does not move it.
const setupReps = 3

// halfDriftLimit fails a run whose second-half lat_p50_ms differs from
// its first half by more than this share: latency must not depend on
// how long the benchmark runs. Host noise alone moves the halves of a
// daemon-mix run apart by up to ~20% on a shared 2-CPU host.
const halfDriftLimit = 0.5

// runConfig is one invocation's settings.
type runConfig struct {
	seed    int64
	seconds time.Duration
	traced  bool
}

// timed is what one timed phase measured: per-op latencies in
// completion order, the instance each op ran (empty for daemon-mix,
// whose ops are all distinct), and process-wide runtime counters.
type timed struct {
	lat      []float64
	keys     []string
	wall     time.Duration
	failed   int
	split    int // index of the first op of the second half
	alloc    uint64
	gcCycles uint32
	gcPause  time.Duration
}

// memSnap brackets a phase with runtime counters. ReadMemStats stops
// the world, so it is only called outside timed ops.
type memSnap struct{ ms runtime.MemStats }

func snapMem() memSnap {
	var s memSnap
	runtime.ReadMemStats(&s.ms)
	return s
}

func (t *timed) finish(start time.Time, m0 memSnap) {
	t.wall = time.Since(start)
	m1 := snapMem()
	t.alloc = m1.ms.TotalAlloc - m0.ms.TotalAlloc
	t.gcCycles = m1.ms.NumGC - m0.ms.NumGC
	t.gcPause = time.Duration(m1.ms.PauseTotalNs - m0.ms.PauseTotalNs)
}

func (t *timed) add(key string, ms float64, ok bool) {
	t.lat = append(t.lat, ms)
	t.keys = append(t.keys, key)
	if !ok {
		t.failed++
	}
}

// geomeanMS is the geometric mean over instances of each instance's
// median latency (ops without a key count individually): on a set of
// different instances this is the Fig. 7 "compile time" figure.
func (t *timed) geomeanMS() float64 {
	byKey := map[string][]float64{}
	var xs []float64
	for i, ms := range t.lat {
		if t.keys[i] == "" {
			xs = append(xs, ms)
			continue
		}
		byKey[t.keys[i]] = append(byKey[t.keys[i]], ms)
	}
	for _, v := range byKey {
		xs = append(xs, median(v))
	}
	return geomean(xs)
}

// halfDrift is second-half lat_p50 over first-half lat_p50, minus 1.
func (t *timed) halfDrift() float64 {
	if t.split <= 0 || t.split >= len(t.lat) {
		return 0
	}
	return quantile(t.lat[t.split:], 0.5)/quantile(t.lat[:t.split], 0.5) - 1
}

// report is one workload run's outcome.
type report struct {
	setup  []float64 // seconds per set-up
	timed  timed     // the untraced timed phase
	traced timed     // the traced phase (--trace 1 only)
	layers map[string]metric
	tree   *aggSpan
	// failures names every failed check, for standard error.
	failures []string
}

func (r *report) fail(format string, args ...any) {
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
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

var workloads = map[string]func(runConfig) (*report, error){
	"fig7-tight":  func(c runConfig) (*report, error) { return runInproc(c, fig7Tight) },
	"slack-scale": func(c runConfig) (*report, error) { return runInproc(c, slackScale) },
	"daemon-mix":  runDaemonMix,
}

func main() {
	var (
		workload = flag.String("workload", "", "fig7-tight, slack-scale or daemon-mix")
		seed     = flag.Int64("seed", 1, "workload seed")
		seconds  = flag.Float64("seconds", 30, "timed run length in seconds")
		trace    = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		outDir   = flag.String("out", ".bench_build/traces", "directory for traced span trees")
		record   = flag.String("record", "", "re-solve the in-process instances and write their answers to this file")
	)
	flag.Parse()
	if *record != "" {
		if err := recordExpected(*record); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	run, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload fig7-tight|slack-scale|daemon-mix, --seconds > 0, --trace 0|1\n")
		os.Exit(2)
	}
	cfg := runConfig{seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)), traced: *trace == 1}
	rep, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	res := rep.result(cfg)
	if cfg.traced {
		if err := writeTree(*outDir, *workload, cfg.seed, rep); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		fmt.Print(rep.tree.render())
	}
	for _, f := range rep.failures {
		fmt.Fprintln(os.Stderr, "perfbench: FAILED:", f)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// result assembles the printed object: the end-to-end metrics of the
// timed phase, or the per-layer metrics of a traced run.
func (r *report) result(cfg runConfig) result {
	t := &r.timed
	if d := t.halfDrift(); math.Abs(d) > halfDriftLimit {
		r.fail("lat_p50_ms drifted %+.1f%% between the run's halves", 100*d)
	}
	attempted, failed := len(t.lat)+len(r.traced.lat), t.failed+r.traced.failed
	if n := len(t.lat); !cfg.traced && n-int(math.Ceil(tailQuantile*float64(n))) < 10 {
		r.fail("%d ops leave fewer than 10 samples beyond p%.0f", n, 100*tailQuantile)
	}
	res := result{
		Correct:   failed == 0 && len(r.failures) == 0,
		Attempted: attempted,
		Failed:    failed,
	}
	if cfg.traced {
		res.Metrics = r.layers
		return res
	}
	n := float64(len(t.lat))
	res.Metrics = map[string]metric{
		"setup_s":         {median(r.setup), "s"},
		"lat_p50_ms":      {quantile(t.lat, 0.5), "ms"},
		"lat_tail_ms":     {quantile(t.lat, tailQuantile), tailUnit},
		"lat_geomean_ms":  {t.geomeanMS(), "ms"},
		"ops_per_s":       {n / t.wall.Seconds(), "1/s"},
		"alloc_mb_per_op": {float64(t.alloc) / n / 1e6, "MB"},
		"ok_share":        {(n - float64(t.failed)) / n, "share"},
	}
	fmt.Fprintf(os.Stderr, "perfbench: %d ops in %.1fs, setup %.3fs, p50 %.2fms, p75 %.2fms, geomean %.2fms, half drift %+.1f%%\n",
		len(t.lat), t.wall.Seconds(), median(r.setup), quantile(t.lat, 0.5), quantile(t.lat, tailQuantile),
		t.geomeanMS(), 100*t.halfDrift())
	return res
}

// writeTree persists the traced run's per-layer metrics beside its
// aggregated span tree.
func writeTree(dir, workload string, seed int64, r *report) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(struct {
		Workload string            `json:"workload"`
		Seed     int64             `json:"seed"`
		Layers   map[string]metric `json:"per_layer"`
		Spans    *aggSpan          `json:"spans"`
	}{workload, seed, r.layers, r.tree}, "", "  ")
	if err != nil {
		return err
	}
	name := filepath.Join(dir, fmt.Sprintf("%s-seed%d.trace.json", strings.ReplaceAll(workload, "/", "_"), seed))
	return os.WriteFile(name, append(data, '\n'), 0o644)
}
