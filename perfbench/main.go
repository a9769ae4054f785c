// Command perfbench is the repository's benchmark. One run measures one
// workload for a fixed time and prints, as its last line, one JSON object
// with the correctness verdict, the operations attempted and failed, and
// every end-to-end metric (-trace 0) or every per-layer metric from a
// separate traced replay (-trace 1).
//
//	perfbench -workload curves -seed 1 -seconds 15 -trace 0
//
// run.sh builds it from the checkout and runs it; see README.md.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"

	_ "faultexp/internal/experiments" // registers the measures
)

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// outcome accumulates one run's operation counts, failures and metric
// values.
type outcome struct {
	attempted int
	failed    int
	incorrect bool
	problems  []string
	values    map[string]float64
}

func newOutcome() *outcome { return &outcome{values: map[string]float64{}} }

// fail counts n failed operations and records why.
func (o *outcome) fail(n int, format string, args ...any) {
	o.failed += n
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// wrong counts n failed operations whose output broke the correctness
// gate; the run is then not correct.
func (o *outcome) wrong(n int, format string, args ...any) {
	o.incorrect = true
	o.fail(n, format, args...)
}

// config is one run's command line.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	workdir  string
	workers  int
	// floorKB is the process's resident set before any workload work —
	// the runtime floor a workload's peak must rise above.
	floorKB int64
}

func main() {
	var cfg config
	var trace int
	var describe bool
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: curves, kernels, wide or fleet")
	flag.Uint64Var(&cfg.seed, "seed", 1, "seed every input is generated from")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "how long the timed phase measures")
	flag.IntVar(&trace, "trace", 0, "0: timed run, end-to-end metrics; 1: traced replay, per-layer metrics")
	flag.StringVar(&cfg.workdir, "workdir", ".bench_build/work", "scratch directory for caches, stores and span files")
	flag.BoolVar(&describe, "describe", false, "print the catalog with targets and the held-out seed, then exit")
	flag.Parse()

	if describe {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		enc.Encode(map[string]any{
			"held_out_seed": heldOutSeed,
			"workloads":     workloads,
			"end_to_end":    endToEnd,
			"per_layer":     perLayerMetrics(),
		})
		return
	}
	known := false
	for _, w := range workloads {
		known = known || w.Name == cfg.workload
	}
	if !known || (trace != 0 && trace != 1) || cfg.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: need -workload curves|kernels|wide|fleet, -trace 0|1 and -seconds > 0")
		os.Exit(2)
	}
	cfg.workers = runtime.GOMAXPROCS(0)
	cfg.floorKB = statusKB("VmRSS")
	// Flush what earlier runs left for the filesystem (their stores and
	// caches were just deleted), so this run's set-up does not pay for it.
	syscall.Sync()
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}

	o := newOutcome()
	var err error
	defs := endToEnd
	switch {
	case trace == 1:
		defs = perLayerMetrics()
		err = traced(cfg, o)
	case cfg.workload == "fleet":
		err = timedFleet(cfg, o)
	default:
		err = timedInproc(cfg, o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for _, p := range o.problems {
		fmt.Println("# FAILED:", p)
	}
	rep := report{Correct: !o.incorrect, Attempted: o.attempted, Failed: o.failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v, ok := o.values[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Fprintf(os.Stderr, "perfbench: metric %s was not measured\n", d.Name)
			os.Exit(1)
		}
		rep.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	if rep.Attempted < 1 {
		fmt.Fprintln(os.Stderr, "perfbench: no operation was attempted")
		os.Exit(1)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// statusKB reads one kB-valued field (VmRSS, VmHWM) of /proc/self/status;
// 0 when the field is unavailable.
func statusKB(field string) int64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		name, rest, ok := strings.Cut(sc.Text(), ":")
		if !ok || name != field {
			continue
		}
		kb, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
		if err != nil {
			return 0
		}
		return kb
	}
	return 0
}

// checkPeakRSS records peak_rss_mb and fails the run when the peak does
// not rise above the runtime floor by at least the CSR bytes of the
// largest graph the workload holds — a reading of the runtime, not of
// the workload.
func checkPeakRSS(cfg config, o *outcome, peakKB, largestCSR int64) {
	o.values["peak_rss_mb"] = float64(peakKB) / 1024
	if peakKB == 0 {
		o.wrong(1, "peak RSS is unavailable")
		return
	}
	if rise := (peakKB - cfg.floorKB) * 1024; rise < largestCSR || rise <= 0 {
		o.wrong(1, "peak RSS %d kB rises %d bytes above the %d kB runtime floor, below the largest graph's %d CSR bytes",
			peakKB, rise, cfg.floorKB, largestCSR)
	}
	fmt.Printf("# peak_rss_kb=%d floor_kb=%d largest_csr_bytes=%d\n", peakKB, cfg.floorKB, largestCSR)
}
