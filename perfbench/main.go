// Command perfbench is the repository's benchmark for Algorithm CC. It runs
// one named workload in this process, checks every decision it produced with
// geometry of its own (validity, ε-agreement, the eq. (19) round bound), and
// prints an environment header, optional per-layer lines, and as its last
// line one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the run
// is repeated with each layer wrapped and timed from outside, and the
// metrics are the per-layer ones. Usage:
//
//	perfbench -workload cc-sim-n16-d2 -seed 1 -seconds 20 -trace 0
//
// The operation count is fixed by -seconds and a per-workload reference
// rate, never by the clock, so every run of a workload does the same work.
// The exit status is 1 when any check failed, 2 on a usage or setup error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
	"syscall"
	"time"
)

// metric is one named measurement in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// outcome is what one workload run hands back to main: the operation
// accounting plus the metrics of the requested mode.
type outcome struct {
	attempted, failed int
	metrics           map[string]metric
	// checks holds consistency lines printed above the result (trace mode).
	checks []string
}

// workload describes one named benchmark workload.
type workload struct {
	name string
	// rate is the reference throughput (operations per second on the
	// reference host) that turns -seconds into a fixed operation count.
	rate float64
	// unit is how many operations make one whole round; counts are rounded
	// up to a multiple of it.
	unit int
	run  func(cfg runConfig) (outcome, error)
}

// runConfig carries the command-line settings into a workload.
type runConfig struct {
	seed  int64
	ops   int
	trace bool
}

var workloads = []workload{
	{name: "cc-sim-n16-d2", rate: 1.0, unit: 1, run: runSimN16},
	{name: "cc-sim-n11-d3", rate: 0.3, unit: 1, run: runSimN11},
	{name: "svc-tcp-wal", rate: 60, unit: 2, run: runService},
	{name: "batch-tcp-n7", rate: 80, unit: batchSize, run: runBatch},
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		name    = flag.String("workload", "", "workload to run: "+workloadNames())
		seed    = flag.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
		seconds = flag.Int("seconds", 20, "run length in reference seconds (sets the operation count)")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	)
	flag.Parse()
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %s)\n", *name, workloadNames())
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be >= 1 and -trace 0 or 1")
		return 2
	}
	ops := int(math.Ceil(float64(*seconds)*w.rate/float64(w.unit))) * w.unit
	if ops < 3*w.unit {
		ops = 3 * w.unit
	}
	printEnv(w.name, *seed, ops, *trace == 1)
	out, err := w.run(runConfig{seed: *seed, ops: ops, trace: *trace == 1})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	if *trace == 1 {
		for _, line := range layerTable(out.metrics) {
			fmt.Println(line)
		}
	}
	for _, line := range out.checks {
		fmt.Println(line)
	}
	res := result{
		Correct:   out.failed == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   out.metrics,
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	fmt.Println(string(line))
	if out.failed > 0 {
		return 1
	}
	return 0
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, "|")
}

// setups is how many times each workload sets up; setup_s is their median.
const setups = 3

// measureSetup runs setup count times and returns the median duration.
// Every setup but the last is torn down by its own cleanup; the last one's
// state is returned for the measured section.
func measureSetup[S any](setup func() (S, func(), error), count int) (S, float64, error) {
	var (
		state S
		times []float64
	)
	for i := 0; i < count; i++ {
		start := time.Now()
		s, cleanup, err := setup()
		if err != nil {
			return state, 0, err
		}
		times = append(times, time.Since(start).Seconds())
		if i < count-1 {
			cleanup()
			continue
		}
		state = s
	}
	return state, median(times), nil
}

// cpuTime returns the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB returns the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (xs need not be sorted; it is not modified).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// endToEnd assembles the end-to-end metric set shared by every workload.
// latencies are in milliseconds, one per caller-visible result.
func endToEnd(setup float64, instances int, wall, cpu time.Duration, latencies []float64) map[string]metric {
	return map[string]metric{
		"setup_s":             {setup, "s"},
		"instances_per_s":     {float64(instances) / wall.Seconds(), "1/s"},
		"latency_ms_p50":      {quantile(latencies, 0.50), "ms"},
		"latency_ms_p90":      {quantile(latencies, 0.90), "ms"},
		"latency_ms_p99":      {quantile(latencies, 0.99), "ms"},
		"cpu_ms_per_instance": {float64(cpu) / 1e6 / float64(instances), "ms"},
		"rss_peak_mb":         {peakRSSMB(), "MB"},
	}
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
