package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// benchFile is the part of BENCHMARK.json the repeat command reads.
type benchFile struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// quartiles returns the three cut points of xs the way Python's
// statistics.quantiles(xs, n=4) computes them (the "exclusive" method).
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	var q [3]float64
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

// repeatMain runs every workload n times, each in its own process with
// its own seed, and prints each metric's median, quartiles and spread
// (interquartile distance over median) against its bound. It fails when
// a run fails or a spread is over its bound.
func repeatMain(args []string) int {
	fs := flag.NewFlagSet("repeat", flag.ContinueOnError)
	n := fs.Int("n", 10, "runs per workload; run i uses seed i")
	seconds := fs.Float64("seconds", 0, "seconds per run (0 = run_seconds from BENCHMARK.json)")
	only := fs.String("workloads", "", "comma-separated workloads (default: all in BENCHMARK.json)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var bf benchFile
	b, err := os.ReadFile("BENCHMARK.json")
	if err == nil {
		err = json.Unmarshal(b, &bf)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "repeat:", err)
		return 2
	}
	secs := *seconds
	if secs == 0 {
		secs = float64(bf.RunSeconds)
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	if *only != "" {
		names = strings.Split(*only, ",")
	}
	bounds := map[string]float64{}
	for _, m := range bf.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "repeat:", err)
		return 2
	}

	values := map[string]map[string][]float64{} // workload → metric → values
	units := map[string]string{}
	attempted, failed, bad, over := map[string]int{}, map[string]int{}, 0, 0
	for seed := int64(1); seed <= int64(*n); seed++ {
		for _, w := range names {
			res, err := runChild(self, w, seed, secs)
			if err != nil {
				fmt.Fprintf(os.Stderr, "repeat: %s seed %d: %v\n", w, seed, err)
				bad++
				continue
			}
			if !res.Correct {
				bad++
			}
			attempted[w] += res.Attempted
			failed[w] += res.Failed
			if values[w] == nil {
				values[w] = map[string][]float64{}
			}
			line := fmt.Sprintf("run %s seed=%d correct=%v attempted=%d failed=%d", w, seed, res.Correct, res.Attempted, res.Failed)
			keys := make([]string, 0, len(res.Metrics))
			for k := range res.Metrics {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				values[w][k] = append(values[w][k], res.Metrics[k].Value)
				units[k] = res.Metrics[k].Unit
				line += fmt.Sprintf(" %s=%.4g", k, res.Metrics[k].Value)
			}
			fmt.Println(line)
		}
	}

	fmt.Printf("\n%-11s %-26s %6s %14s %14s %14s %8s %6s  %s\n",
		"workload", "metric", "unit", "median", "q1", "q3", "spread", "bound", "verdict")
	for _, w := range names {
		fails := 0.0
		if attempted[w] > 0 {
			fails = 100 * float64(failed[w]) / float64(attempted[w])
		}
		fmt.Printf("%-11s %-26s %6s %14d %14s %14s %8s %6s  %s\n", w, "attempted", "count", attempted[w], "", "", "", "", "")
		fmt.Printf("%-11s %-26s %6s %14.4f %14s %14s %8s %6s  %s\n", w, "fail_pct", "%", fails, "", "", "", "", "")
		metrics := make([]string, 0, len(values[w]))
		for k := range values[w] {
			metrics = append(metrics, k)
		}
		sort.Strings(metrics)
		for _, k := range metrics {
			q1, med, q3 := quartiles(values[w][k])
			spread := 0.0
			if med != 0 {
				spread = (q3 - q1) / med
			}
			bound, verdict := "", ""
			if b, ok := bounds[k]; ok {
				bound = strconv.FormatFloat(b, 'f', 2, 64)
				switch {
				case spread > b:
					verdict = "OVER BOUND"
					over++
				case spread > b/3:
					verdict = "over bound/3"
				default:
					verdict = "ok"
				}
			}
			fmt.Printf("%-11s %-26s %6s %14.4f %14.4f %14.4f %8.4f %6s  %s\n",
				w, k, units[k], med, q1, q3, spread, bound, verdict)
		}
	}
	if bad > 0 {
		fmt.Printf("\n%d runs failed or reported incorrect output\n", bad)
	}
	if over > 0 {
		fmt.Printf("\n%d spreads over their bound\n", over)
	}
	if bad > 0 || over > 0 {
		return 1
	}
	return 0
}

// runChild runs one workload in a child process and parses the JSON
// result on the last line of its standard output.
func runChild(self, w string, seed int64, secs float64) (*result, error) {
	cmd := exec.Command(self, "--workload", w, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.FormatFloat(secs, 'f', -1, 64), "--trace", "0")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, err
	}
	var last string
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		if t := strings.TrimSpace(sc.Text()); t != "" {
			last = t
		}
	}
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return nil, fmt.Errorf("parsing result %q: %w", last, err)
	}
	return &res, nil
}
