// Command bench is the repository's standing benchmark: five named
// workloads, each checked against an oracle the engine did not compute, the
// end-to-end metrics an operator sees, and a per-layer budget traced from
// outside the program under test. See README.md in this directory and
// BENCHMARK.json at the repository root.
//
//	go run ./bench                          every workload, end-to-end metrics
//	go run ./bench -workload query-poly     one workload
//	go run ./bench -trace 1                 the traced pass: per-layer metrics
//	go run ./bench -aa 10                   ten seeds per workload, spreads against the bounds
//
// The last line of standard output is one JSON object per workload run:
// {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
)

// hostShape is recorded with every run: timings mean nothing without it.
type hostShape struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go"`
	Commit     string `json:"commit"`
}

func host() hostShape {
	h := hostShape{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), Commit: "unknown"}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				h.Commit = s.Value
			}
		}
	}
	return h
}

// resultLine is the contract's last line of output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	workloadFlag := flag.String("workload", "", "run one workload (default: all five)")
	seed := flag.Int64("seed", 1, "seeds every topology and choice RNG; the program under test sees only the generated inputs")
	seconds := flag.Float64("seconds", 10, "time budget of the measured passes, per workload")
	trace := flag.Int("trace", 0, "0: untraced pass, end-to-end metrics; 1: add the traced pass, per-layer metrics")
	traceOut := flag.String("trace-out", "", "with -trace 1: write the recorded spans to this file as JSON")
	aa := flag.Int("aa", 0, "run N seeds per workload in fresh processes and print each end-to-end metric's spread against its bound")
	flag.Parse()
	if flag.NArg() > 0 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}

	names := []string{*workloadFlag}
	if *workloadFlag == "" {
		names = names[:0]
		for _, w := range workloadInfo {
			names = append(names, w.name)
		}
	}
	if *aa > 0 {
		os.Exit(runAA(names, *aa, *seed, *seconds))
	}

	h := host()
	fmt.Printf("# host nproc=%d gomaxprocs=%d go=%s commit=%s\n", h.NProc, h.GOMAXPROCS, h.GoVersion, h.Commit)
	exit := 0
	for _, name := range names {
		out := *traceOut
		if out != "" && len(names) > 1 {
			out = strings.TrimSuffix(out, ".json") + "." + name + ".json"
		}
		res, err := runWorkload(name, *seed, *seconds, *trace == 1, out, false)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		if !report(os.Stdout, res, *trace == 1) {
			exit = 1
		}
	}
	os.Exit(exit)
}

// report prints one run: a header, every metric by name with its unit, and
// the result line. It reports whether the run was correct.
func report(w *os.File, r *result, trace bool) bool {
	out := bufio.NewWriter(w)
	defer out.Flush()
	fmt.Fprintf(out, "# workload %s seed=%d shards=%d ops=%d failed=%d failed_ops_share=%g timing-tail=p%g setup_first_s=%.3f\n",
		r.workload, r.seed, r.shards, r.attempted, r.failed,
		float64(r.failed)/float64(r.attempted), r.tail, r.values["setup_first_s"])
	for _, err := range r.errs {
		fmt.Fprintf(out, "# FAILED %v\n", err)
	}
	line := resultLine{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricValue{}}
	table := endToEnd
	if trace {
		table = perLayer
		// The traced run still shows the end-to-end figures, for reading
		// the budget against; only the result line is per-layer only.
		for _, d := range endToEnd {
			fmt.Fprintf(out, "%-32s %16.6g %s\n", d.name, r.values[d.name], d.unit)
		}
	}
	for _, d := range table {
		v := finite(r.values[d.name])
		fmt.Fprintf(out, "%-32s %16.6g %s\n", d.name, v, d.unit)
		line.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	enc, _ := json.Marshal(line) // plain numbers and strings: cannot fail
	fmt.Fprintf(out, "%s\n", enc)
	return line.Correct
}

// deterministic names the workloads whose byte counts are exact for a seed:
// everything but real sockets.
func deterministic(workload string) bool { return workload != "pathvector-udp" }

// runAA is the A/A check the acceptance rule describes: n runs per workload,
// each with another seed and in a fresh process, then per end-to-end metric
// the interquartile spread as a share of the median against the metric's
// bound. One more run repeats the first seed: on deterministic workloads its
// wire bytes must be bit-identical.
func runAA(names []string, n int, seed int64, seconds float64) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	h := host()
	fmt.Printf("# A/A: %d seeds per workload from %d, %gs each; host nproc=%d gomaxprocs=%d go=%s\n",
		n, seed, seconds, h.NProc, h.GOMAXPROCS, h.GoVersion)
	fmt.Printf("%-18s %-20s %12s %12s %12s %8s %6s  %s\n", "workload", "metric", "min", "median", "max", "spread", "bound", "verdict")
	exit := 0
	for _, name := range names {
		runs := make([]resultLine, 0, n+1)
		for i := 0; i <= n; i++ {
			s := seed + int64(i%n) // the extra run repeats the first seed
			cmd := exec.Command(self, "-workload", name, "-seed", strconv.FormatInt(s, 10),
				"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", "0")
			cmd.Stderr = os.Stderr
			stdout, err := cmd.Output()
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s seed %d: %v\n", name, s, err)
				return 1
			}
			lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
			var line resultLine
			if err := json.Unmarshal(lines[len(lines)-1], &line); err != nil || !line.Correct {
				fmt.Fprintf(os.Stderr, "bench: %s seed %d: bad or incorrect result %q\n", name, s, lines[len(lines)-1])
				return 1
			}
			runs = append(runs, line)
		}
		for _, d := range endToEnd {
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = runs[i].Metrics[d.name].Value
			}
			sorted := sortedCopy(xs)
			_, mid, _ := quartiles(xs)
			sp := spread(xs)
			verdict := "ok"
			switch {
			case d.name == "setup_s":
				verdict = "not gated"
			case sp > d.bound:
				verdict, exit = "FAIL: over the bound", 1
			case sp > d.bound/3:
				verdict = "wide: over a third of the bound"
			}
			fmt.Printf("%-18s %-20s %12.6g %12.6g %12.6g %7.2f%% %5.0f%%  %s\n",
				name, d.name, sorted[0], mid, sorted[n-1], 100*sp, 100*d.bound, verdict)
		}
		if deterministic(name) {
			a, b := runs[0].Metrics["wire_bytes_per_op"].Value, runs[n].Metrics["wire_bytes_per_op"].Value
			if a != b {
				fmt.Printf("%-18s determinism FAIL: seed %d gave wire_bytes_per_op %v then %v\n", name, seed, a, b)
				exit = 1
			} else {
				fmt.Printf("%-18s determinism ok: seed %d repeats wire_bytes_per_op %v exactly\n", name, seed, a)
			}
		}
	}
	return exit
}
