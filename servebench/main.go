// Command servebench is the repository's benchmark: it drives an
// in-process redist-serve server over loopback TCP with one closed-loop
// client session, verifies every response against a cold local solve
// after the timed window, and prints the end-to-end metrics (or, with
// --trace 1, the per-layer metrics) as one JSON object on the last line
// of standard output.
//
//	bash servebench/run.sh --workload cold-solve --seed 1 --seconds 10 --trace 0
//	bash servebench/run.sh --workload all --seed 1 --seconds 10
//	bash servebench/run.sh --workload hot-repeat --seed 1 --seconds 10 --steady 10
//
// See servebench/NOTES.md for the workloads, metrics and layer map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
)

// metrics is an ordered set of named measurements.
type metrics []metric

type metric struct {
	name  string
	value float64
	unit  string
}

func (m *metrics) add(name string, value float64, unit string) {
	*m = append(*m, metric{name: name, value: value, unit: unit})
}

// result is the last line of standard output.
type result struct {
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
	os.Exit(mainErr(os.Args[1:], os.Stdout, os.Stderr))
}

func mainErr(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("servebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload to run: cold-solve, hot-repeat, delta-chain, or all")
	seed := fs.Int64("seed", 1, "seed every input is generated from")
	seconds := fs.Int("seconds", 10, "run length; fixes the timed request count of each workload")
	trace := fs.Int("trace", 0, "1 runs the traced per-layer replay instead of the end-to-end run")
	steady := fs.Int("steady", 0, "run the workload this many times on consecutive seeds and report each metric's spread against its bound")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "servebench: --seconds must be ≥ 1 and --trace 0 or 1")
		return 2
	}
	if *steady > 0 {
		if *name == "all" {
			fmt.Fprintln(stderr, "servebench: --steady needs one workload")
			return 2
		}
		if err := steadiness(*name, *seed, *seconds, *trace == 1, *steady, stdout); err != nil {
			fmt.Fprintln(stderr, "servebench:", err)
			return 1
		}
		return 0
	}
	var ws []workload
	if *name == "all" {
		ws = workloads
	} else {
		w, err := findWorkload(*name)
		if err != nil {
			fmt.Fprintln(stderr, "servebench:", err)
			return 2
		}
		ws = []workload{w}
	}
	code := 0
	for _, w := range ws {
		res, err := runWorkload(w, *seed, *seconds, *trace == 1, stdout)
		if err != nil {
			fmt.Fprintf(stderr, "servebench: %s: %v\n", w.name, err)
			return 1
		}
		line, err := json.Marshal(res)
		if err != nil {
			fmt.Fprintln(stderr, "servebench:", err)
			return 1
		}
		fmt.Fprintln(stdout, string(line))
		if !res.Correct {
			code = 1
		}
	}
	return code
}

// runWorkload runs one workload and prints its human-readable report;
// the caller prints the JSON result line.
func runWorkload(w workload, seed int64, seconds int, traced bool, out io.Writer) (result, error) {
	var m metrics
	var st *runStats
	var err error
	if traced {
		m, st, err = perLayer(w, seed, seconds)
	} else {
		st, err = run(w, seed, seconds, false)
		if err == nil {
			m = endToEnd(st)
		}
	}
	if err != nil {
		return result{}, err
	}
	fmt.Fprintf(out, "workload %s: seed %d, %d requests attempted (every timed request is a latency sample), %d failed\n",
		w.name, seed, st.attempted, st.failed)
	classes := make([]string, 0, len(st.classRTT))
	for c := range st.classRTT {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	timed := 0
	for _, c := range classes {
		timed += len(st.classRTT[c])
	}
	for _, c := range classes {
		lat := sortedMs(st.classRTT[c])
		fmt.Fprintf(out, "  class %-10s share %.3f  p50 %.3f ms  p90 %.3f ms  p99 %.3f ms  max %.3f ms\n", c,
			float64(len(lat))/float64(timed), quantile(lat, 0.5), quantile(lat, 0.9), quantile(lat, 0.99), lat[len(lat)-1])
	}
	if rps, p50, p99 := windows(st); len(rps) > 0 {
		fmt.Fprintf(out, "  windows of %d: rps %.4g  p50 %.4g  p99 %.4g\n", window, rps, p50, p99)
		fmt.Fprintf(out, "  whole run: rps %.4g  p50 %.4g  p99 %.4g\n", float64(len(st.rtts))/st.elapsed.Seconds(), quantile(sortedMs(st.rtts), 0.5), quantile(sortedMs(st.rtts), 0.99))
	}
	for _, f := range st.failures {
		fmt.Fprintf(out, "  failure: %s\n", f)
	}
	for _, x := range m {
		fmt.Fprintf(out, "  %-28s %14.6g %s\n", x.name, x.value, x.unit)
	}
	if !traced {
		// Not in the JSON result: the benchmark contract wants metrics
		// that are never 0. The result line carries attempted and failed.
		fmt.Fprintf(out, "  %-28s %14.6g %s\n", "failed_share", float64(st.failed)/float64(st.attempted), "ratio")
	}
	res := result{Correct: st.failed == 0, Attempted: st.attempted, Failed: st.failed, Metrics: map[string]metricValue{}}
	for _, x := range m {
		res.Metrics[x.name] = metricValue{Value: x.value, Unit: x.unit}
	}
	return res, nil
}
