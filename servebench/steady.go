package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// benchSpec is the part of BENCHMARK.json the steadiness mode reads.
type benchSpec struct {
	EndToEnd []struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readSpec(path string) (*benchSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// quartiles returns Python's statistics.quantiles(xs, n=4) (the default
// exclusive method): the first quartile, the median and the third.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return s[0], s[0], s[0]
	}
	at := func(j int) float64 {
		m := n + 1
		pos := j * m
		k, rem := pos/4, pos%4
		if k < 1 {
			return s[0]
		}
		if k >= n {
			return s[n-1]
		}
		return (s[k-1]*float64(4-rem) + s[k]*float64(rem)) / 4
	}
	return at(1), at(2), at(3)
}

// steadiness runs the workload runs times, each in a fresh process of
// this program on its own seed, and prints for every metric the median,
// the quartiles, the sample count and whether the spread (q3-q1)/median
// fits the bound BENCHMARK.json declares. It fails when a spread other
// than setup_s's exceeds its bound or a run fails.
func steadiness(name string, seed int64, seconds int, traced bool, runs int, out io.Writer) error {
	spec, err := readSpec("BENCHMARK.json")
	if err != nil {
		return err
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	trace := "0"
	if traced {
		trace = "1"
	}
	values := map[string][]float64{}
	for i := 0; i < runs; i++ {
		s := seed + int64(i)
		cmd := exec.Command(self, "--workload", name, "--seed", strconv.FormatInt(s, 10),
			"--seconds", strconv.Itoa(seconds), "--trace", trace)
		cmd.Stderr = os.Stderr
		stdout, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("run with seed %d: %w", s, err)
		}
		var res result
		if err := json.Unmarshal(lastLine(stdout), &res); err != nil {
			return fmt.Errorf("run with seed %d: result line: %w", s, err)
		}
		if !res.Correct {
			return fmt.Errorf("run with seed %d: %d of %d requests failed", s, res.Failed, res.Attempted)
		}
		names := make([]string, 0, len(res.Metrics))
		for k, v := range res.Metrics {
			values[k] = append(values[k], v.Value)
			names = append(names, k)
		}
		sort.Strings(names)
		fmt.Fprintf(out, "run %d (seed %d):", i+1, s)
		for _, k := range names {
			fmt.Fprintf(out, " %s=%.4g", k, res.Metrics[k].Value)
		}
		fmt.Fprintln(out)
	}
	fmt.Fprintf(out, "%-28s %4s %14s %14s %14s %8s %6s %s\n", "metric", "n", "q1", "median", "q3", "spread", "bound", "fits")
	bad := 0
	row := func(name string, bound float64) {
		xs := values[name]
		if len(xs) == 0 {
			fmt.Fprintf(out, "%-28s missing\n", name)
			bad++
			return
		}
		q1, q2, q3 := quartiles(xs)
		spread := 0.0
		if q2 != 0 {
			spread = (q3 - q1) / q2
		}
		fits := "-"
		if bound > 0 {
			switch {
			case name == "setup_s":
				fits = "n/a"
			case spread <= bound/3:
				fits = "yes"
			case spread <= bound:
				fits = "within bound, above a third"
			default:
				fits = "NO"
				bad++
			}
		}
		fmt.Fprintf(out, "%-28s %4d %14.6g %14.6g %14.6g %8.4f %6.3f %s\n", name, len(xs), q1, q2, q3, spread, bound, fits)
	}
	if traced {
		for _, m := range spec.PerLayer {
			row(m.Name, 0)
		}
	} else {
		for _, m := range spec.EndToEnd {
			row(m.Name, m.Bound)
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d metrics missing or spread beyond their bound", bad)
	}
	return nil
}

func lastLine(b []byte) []byte {
	sc := bufio.NewScanner(bytes.NewReader(b))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var last []byte
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) > 0 {
			last = append(last[:0], sc.Bytes()...)
		}
	}
	return last
}
