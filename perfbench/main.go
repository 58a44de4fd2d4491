// Command perfbench is sigstream's end-to-end benchmark. One invocation
// runs one workload for a fixed time, checks every output against an
// exact oracle, and prints its metrics as the last line of standard
// output:
//
//	go build -o perfbench . && ./perfbench --workload core-replay --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the metrics are the end-to-end set (latency, throughput,
// accuracy, set-up time, retained memory); with --trace 1 the run also
// repeats the workload with a span around every call into a layer and
// reports the per-layer ledger. --smoke runs every workload on a tiny
// trace. See README.md for the workloads and the metric → layer map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"time"
)

// metric is one reported figure with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// figures maps a metric name to its figure.
type figures map[string]metric

func (m figures) set(name, unit string, v float64) { m[name] = metric{Value: v, Unit: unit} }

// runConfig is what every workload receives: the seed, the timed-phase
// budget, whether to trace, whether to use the tiny smoke trace, and a
// private scratch directory inside the checkout.
type runConfig struct {
	seed    int64
	seconds float64
	trace   bool
	smoke   bool
	dir     string
}

// outcome is one workload run: its end-to-end metrics, its per-layer
// metrics (traced runs only), its operation tally, and the spans written
// out at the end of a traced run.
type outcome struct {
	e2e   figures
	layer figures
	ops   tally
	spans []span
}

type workload struct {
	name string
	run  func(runConfig) (outcome, error)
}

var workloads = []workload{
	{"core-replay", runCore},
	{"ingest-binary", runIngest},
	{"cluster-gather", runCluster},
}

// result is the last line of standard output.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   figures `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: core-replay, ingest-binary or cluster-gather")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 10, "timed-phase budget in seconds")
	traceFlag := fs.Int("trace", 0, "1 = traced run reporting the per-layer ledger")
	smoke := fs.Bool("smoke", false, "run every workload on a tiny trace and report pass/fail")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	// One process generates the load and serves it on one processor:
	// with two, how the producer, the server and the reader were spread
	// over the host's two vCPUs moved ingest-binary's figures by up to
	// half between identical runs (README.md, "Host speed").
	runtime.GOMAXPROCS(1)
	// The servers under test log through slog.Default; keep their
	// lifecycle chatter out of the benchmark's output.
	slog.SetDefault(slog.New(slog.NewTextHandler(io.Discard, nil)))

	if *smoke {
		return runSmoke(stdout)
	}
	var wl *workload
	for i := range workloads {
		if workloads[i].name == *name {
			wl = &workloads[i]
		}
	}
	if wl == nil {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive")
		return 2
	}
	cfg := runConfig{seed: *seed, seconds: *seconds, trace: *traceFlag == 1}
	spans := filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-%d.jsonl", wl.name, *seed))
	h := probeHost()
	fmt.Fprintf(stdout, "# host nproc=%d gomaxprocs=%d go=%s cpu=%q\n",
		h.nproc, runtime.GOMAXPROCS(0), runtime.Version(), h.cpu)
	out, err := execute(*wl, cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", wl.name, err)
		printResult(stdout, result{Correct: false, Attempted: max(out.ops.attempted, 1), Failed: out.ops.failed, Metrics: figures{}})
		return 1
	}
	res := result{Correct: true, Attempted: out.ops.attempted, Failed: out.ops.failed, Metrics: out.e2e}
	if cfg.trace {
		res.Metrics = out.layer
		res.Metrics.set("host.nproc", "count", float64(h.nproc))
		res.Metrics.set("host.gomaxprocs", "count", float64(runtime.GOMAXPROCS(0)))
		if err := writeSpans(spans, out.spans); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "# spans %d written to %s\n", len(out.spans), spans)
	}
	summarize(stdout, wl.name, res.Metrics)
	printResult(stdout, res)
	return 0
}

// execute runs one workload in a fresh scratch directory inside the
// working directory and removes the directory afterwards.
func execute(wl workload, cfg runConfig) (outcome, error) {
	base := filepath.Join(".bench_build", "run")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return outcome{}, err
	}
	dir, err := os.MkdirTemp(base, wl.name+"-")
	if err != nil {
		return outcome{}, err
	}
	defer os.RemoveAll(dir)
	cfg.dir = dir
	return wl.run(cfg)
}

func printResult(w io.Writer, res result) {
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(w, "{\"correct\": false, \"attempted\": 1, \"failed\": 1, \"metrics\": {}}\n")
		return
	}
	fmt.Fprintln(w, string(b))
}

// summarize prints the metrics one per line, sorted, as comment lines
// before the result.
func summarize(w io.Writer, name string, m figures) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "# %s %-34s %14s %s\n", name, k, strconv.FormatFloat(m[k].Value, 'g', 6, 64), m[k].Unit)
	}
}

// runSmoke runs every workload, traced and untraced, on a tiny trace
// and reports which passed.
func runSmoke(stdout io.Writer) int {
	code := 0
	for _, wl := range workloads {
		for _, traced := range []bool{false, true} {
			start := time.Now()
			cfg := runConfig{seed: 1, seconds: 0.2, trace: traced, smoke: true}
			_, err := execute(wl, cfg)
			status := "ok"
			if err != nil {
				status = "FAIL: " + err.Error()
				code = 1
			}
			fmt.Fprintf(stdout, "smoke %-15s trace=%-5v %6.2fs %s\n", wl.name, traced, time.Since(start).Seconds(), status)
		}
	}
	return code
}
