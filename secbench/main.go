// Command secbench is the repository benchmark. It builds a secext
// world through the public APIs, drives one named workload from a
// single process for a fixed window, checks every outcome against an
// oracle computed apart from the program, and prints one JSON object as
// the last line of its standard output:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Usage (from the root of the repository; run.sh builds and runs it):
//
//	bash secbench/run.sh --workload inproc-mix --seed 1 --seconds 12 --trace 0
//	bash secbench/run.sh --workload revoke-churn --seed 1 --seconds 12 --trace 1
//	bash secbench/run.sh --workload edge-check --seconds 12 --steady 10
//
// --trace 0 reports the end-to-end metrics; --trace 1 reports the
// per-layer metrics, prints the per-layer table with self times and
// the tracing overhead on standard error, and writes the spans under
// .bench_build. --steady N runs the workload N times, each in a fresh
// process with seeds seed..seed+N-1, and prints each metric's median,
// quartiles and spread. See README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// metricDef names a metric and its unit; the lists below are the ones
// BENCHMARK.json declares, in the same order.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"heap_mb", "MiB"},
	{"ops_s", "1/s"},
	{"p50_us", "us"},
	{"p99_us", "us"},
	{"revoke_acl_ms", "ms"},
	{"revoke_member_ms", "ms"},
}

var perLayer = []metricDef{
	{"core.checkdata_ns", "ns"},
	{"core.call_ns", "ns"},
	{"names.check_ns", "ns"},
	{"names.check_uncached_ns", "ns"},
	{"monitor.check_ns", "ns"},
	{"audit.record_ns", "ns"},
	{"dispatch.invoke_ns", "ns"},
	{"decision.hit_ratio", "ratio"},
	{"acl.compile_us", "us"},
	{"names.publish_acl_ms", "ms"},
	{"names.publish_member_ms", "ms"},
	{"names.compile_acl_ms", "ms"},
	{"names.compile_member_ms", "ms"},
	{"names.flush_wait_acl_ms", "ms"},
	{"names.flush_wait_member_ms", "ms"},
	{"names.compiles_full", "count"},
	{"names.compiles_incremental", "count"},
	{"principal.freezes_incremental", "count"},
	{"names.compiled_mb", "MiB"},
	{"names.tree_mb", "MiB"},
	{"principal.populate_s", "s"},
	{"names.build_tree_s", "s"},
	{"remote.null_rtt_us", "us"},
	{"remote.server_us", "us"},
	{"remote.write_us", "us"},
	{"remote.wait_us", "us"},
	{"gc.cycles", "count"},
	{"gc.pause_ms", "ms"},
	{"alloc.bytes_per_op", "B"},
	{"harness.clock_ns", "ns"},
	{"trace.overhead_us", "us"},
}

func main() {
	workload := flag.String("workload", "", "inproc-mix, edge-check or revoke-churn")
	seed := flag.Int64("seed", 1, "seed of the population and the operation stream")
	seconds := flag.Int("seconds", 12, "length of the measured window")
	trace := flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	steady := flag.Int("steady", 0, "run the workload this many times in fresh processes and report the spread")
	spans := flag.String("spans", ".bench_build", "directory the traced run writes its spans to")
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "secbench: --seconds must be >= 1 and --trace 0 or 1")
		os.Exit(2)
	}
	if *steady > 0 {
		if err := steadiness(os.Stdout, *workload, *seed, *seconds, *trace, *steady); err != nil {
			fmt.Fprintln(os.Stderr, "secbench:", err)
			os.Exit(1)
		}
		return
	}
	res, err := run(runConfig{
		workload: *workload, seed: *seed, window: time.Duration(*seconds) * time.Second,
		trace: *trace == 1, spansDir: *spans,
	}, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "secbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "secbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// run executes one workload run. The traced run's report goes to log.
func run(cfg runConfig, log io.Writer) (*result, error) {
	r, err := newRunner(cfg)
	if err != nil {
		return nil, err
	}
	defer r.teardown()
	if err := r.setup(); err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	r.warm()
	var m map[string]metric
	if cfg.trace {
		m, err = r.measureTraced(log)
	} else {
		m = r.measure()
	}
	if err != nil {
		return nil, err
	}
	return &result{
		Correct:   r.mismatched.Load() == 0,
		Attempted: r.attempted.Load(),
		Failed:    r.failed.Load(),
		Metrics:   m,
	}, nil
}

// warm runs a few whole rounds before timing, so that the decision
// cache and lazily built state are filled as in steady operation.
func (r *runner) warm() {
	var h hist
	for i := 0; i < 4; i++ {
		if r.cfg.workload == wEdge {
			r.edgeLoop(time.Time{}, &h, nil)
		} else {
			r.mixLoop(r.ops, time.Time{}, nil, &h, nil)
		}
	}
}

// measure is the untraced run: the end-to-end metrics.
func (r *runner) measure() map[string]metric {
	ws := r.window(r.cfg.window, nil)
	rev := ws.rev
	if r.cfg.workload != wChurn {
		rev, _ = r.probeRevocations(false)
	}
	m := map[string]metric{
		"setup_s":          {median(r.setupS) * (1 - r.setupStolen), "s"},
		"heap_mb":          {liveHeapMiB(), "MiB"},
		"ops_s":            {ws.rate(), "1/s"},
		"p50_us":           {ws.latency(0.50) / 1e3, "us"},
		"p99_us":           {ws.latency(0.99) / 1e3, "us"},
		"revoke_acl_ms":    {rev.median(revACL), "ms"},
		"revoke_member_ms": {rev.median(revMember), "ms"},
	}
	return m
}
