package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"
)

// steady runs two sets of ten runs of every workload at run_seconds, each
// run with its own seed, and prints each end-to-end metric's median,
// quartiles and spread per set, the shift between the two sets' medians,
// and whether both stay within the metric's bound in BENCHMARK.json. The
// bounds in BENCHMARK.json are derived from this output. The run results
// are also written to .bench_build/steady-<time>.json.
func steady() error {
	const sets, runs = 2, 10
	workloads := []string{"cold", "warm", "ingest"}
	var b struct {
		RunSeconds int `json:"run_seconds"`
		EndToEnd   []struct {
			Name  string  `json:"name"`
			Unit  string  `json:"unit"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, &b); err != nil {
		return err
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	type runOut struct {
		Workload  string            `json:"workload"`
		Set       int               `json:"set"`
		Seed      int64             `json:"seed"`
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Reported  map[string]metric `json:"reported"`
	}
	var all []runOut
	for set := 1; set <= sets; set++ {
		for i := 1; i <= runs; i++ {
			for _, w := range workloads {
				seed := int64(1000*set + i)
				cmd := exec.Command(self, "--workload", w, "--seed", strconv.FormatInt(seed, 10),
					"--seconds", strconv.Itoa(b.RunSeconds), "--trace", "0")
				var out bytes.Buffer
				cmd.Stdout = &out
				cmd.Stderr = os.Stderr
				start := time.Now()
				if err := cmd.Run(); err != nil {
					return fmt.Errorf("%s seed %d: %v", w, seed, err)
				}
				var last string
				reported := map[string]metric{}
				sc := bufio.NewScanner(&out)
				sc.Buffer(make([]byte, 1<<20), 1<<20)
				for sc.Scan() {
					last = sc.Text()
					// Report lines: perfbench <workload> <metric> <value> <unit>.
					if f := strings.Fields(last); len(f) == 5 && f[0] == "perfbench" {
						if v, err := strconv.ParseFloat(f[3], 64); err == nil {
							reported[f[2]] = metric{v, f[4]}
						}
					}
				}
				ro := runOut{Workload: w, Set: set, Seed: seed}
				if err := json.Unmarshal([]byte(last), &ro); err != nil {
					return fmt.Errorf("%s seed %d: bad result line %q", w, seed, last)
				}
				ro.Reported = reported
				all = append(all, ro)
				fmt.Fprintf(os.Stderr, "set %d run %d %s seed %d: correct=%v attempted=%d failed=%d (%.0fs)\n",
					set, i, w, seed, ro.Correct, ro.Attempted, ro.Failed, time.Since(start).Seconds())
			}
		}
	}
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(buildDir, fmt.Sprintf("steady-%s.json", time.Now().Format("20060102-150405")))
	if data, err := json.MarshalIndent(all, "", " "); err == nil {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			return err
		}
	}

	bounds := map[string]float64{}
	var names []string
	for _, m := range b.EndToEnd {
		bounds[m.Name] = m.Bound
		names = append(names, m.Name)
	}
	var others []string
	for _, ro := range all {
		for name := range ro.Reported {
			if _, gated := bounds[name]; !gated && !slices.Contains(others, name) {
				others = append(others, name)
			}
		}
	}
	sort.Strings(others)
	names = append(names, others...)

	fmt.Printf("%-8s %-20s %5s %12s %12s %12s %8s %8s %8s %s\n",
		"workload", "metric", "set", "median", "q1", "q3", "iqr/med", "shift", "bound", "verdict")
	for _, w := range workloads {
		for _, name := range names {
			var first float64
			for set := 1; set <= sets; set++ {
				var vals []float64
				for _, ro := range all {
					if m, ok := ro.Reported[name]; ok && ro.Workload == w && ro.Set == set {
						vals = append(vals, m.Value)
					}
				}
				if len(vals) == 0 || slices.Max(vals) == 0 {
					continue // not measured on this workload
				}
				q1, med, q3 := quantile(vals, 0.25), quantile(vals, 0.5), quantile(vals, 0.75)
				spread, shift := (q3-q1)/med, 0.0
				if set == 1 {
					first = med
				} else {
					shift = med/first - 1
				}
				bound, gated := bounds[name]
				verdict := "not in BENCHMARK.json"
				switch {
				case !gated:
				case spread > bound:
					verdict = "SPREAD>BOUND"
				case spread > bound/3:
					verdict = "spread>bound/3"
				default:
					verdict = "ok"
				}
				if gated && math.Abs(shift) > bound {
					verdict += " SHIFT>BOUND"
				}
				fmt.Printf("%-8s %-20s %5d %12.6g %12.6g %12.6g %8.4f %8.4f %8.3f %s\n",
					w, name, set, med, q1, q3, spread, shift, bound, verdict)
			}
		}
		var share []string
		for set := 1; set <= sets; set++ {
			var att, fail int
			for _, ro := range all {
				if ro.Workload == w && ro.Set == set {
					att += ro.Attempted
					fail += ro.Failed
				}
			}
			share = append(share, fmt.Sprintf("%d/%d", fail, att))
		}
		fmt.Printf("%-8s failed/attempted per set: %s\n", w, strings.Join(share, " "))
	}
	fmt.Println("runs written to", path)
	return nil
}
