package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// steadiness runs one workload n times, each in a fresh process with
// seeds seed..seed+n-1, and prints every metric's median, quartiles and
// spread (interquartile distance as a share of the median), plus each
// run's failed share. This is the evidence for the bounds in
// BENCHMARK.json.
func steadiness(w io.Writer, workload string, seed int64, seconds, trace, n int) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	values := make(map[string][]float64)
	units := make(map[string]string)
	for i := 0; i < n; i++ {
		s := seed + int64(i)
		cmd := exec.Command(self, "--workload", workload, "--seed", strconv.FormatInt(s, 10),
			"--seconds", strconv.Itoa(seconds), "--trace", strconv.Itoa(trace))
		cmd.Stderr = io.Discard
		out, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("seed %d: %w", s, err)
		}
		lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
		var res result
		if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
			return fmt.Errorf("seed %d: %w", s, err)
		}
		fmt.Fprintf(w, "seed %d: correct=%v attempted=%d failed=%d (share %.6f)",
			s, res.Correct, res.Attempted, res.Failed, float64(res.Failed)/float64(res.Attempted))
		keys := make([]string, 0, len(res.Metrics))
		for name, m := range res.Metrics {
			values[name] = append(values[name], m.Value)
			units[name] = m.Unit
			keys = append(keys, name)
		}
		sort.Strings(keys)
		for _, name := range keys {
			fmt.Fprintf(w, " %s=%.4g", name, res.Metrics[name].Value)
		}
		fmt.Fprintln(w)
	}
	names := make([]string, 0, len(values))
	for name := range values {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-30s %14s %14s %14s %9s  unit\n", "metric", "median", "q1", "q3", "spread")
	for _, name := range names {
		xs := values[name]
		med := median(xs)
		q1, q3 := quartiles(xs)
		spread := 0.0
		if med != 0 {
			spread = (q3 - q1) / med
		}
		fmt.Fprintf(w, "%-30s %14.4f %14.4f %14.4f %8.2f%%  %s\n", name, med, q1, q3, 100*spread, units[name])
	}
	return nil
}
