package main

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"strings"
	"time"
)

// measureTraced is the traced run. A third of the window runs untraced
// (the baseline for the tracing overhead and the window the allocation
// and decision-cache counters are read over), a third runs traced, and
// the probes that reach layers the workload's own loop does not
// (revocations on an idle world, the loopback edge, ACL compilation,
// the clock) run after it. Every per-layer metric is measured on every
// workload. The collection counters cover the two windows and the
// revocations, and none of the collections the benchmark forces.
func (r *runner) measureTraced(log io.Writer) (map[string]metric, error) {
	ns := r.bw.sys.Names()
	reg := r.bw.sys.Registry()
	cs0, fc0 := ns.CompiledStats(), reg.FreezeCounts()

	u := r.window(r.cfg.window/3, nil)
	tr := newTracer()
	t := r.window(r.cfg.window/3, tr)
	rev, rt := t.rev, u.rt.add(t.rt)
	if r.cfg.workload != wChurn {
		var prt rtCounters
		rev, prt = r.probeRevocations(true)
		rt = rt.add(prt)
	}
	revocationSpans(tr, rev)
	cs1, fc1 := ns.CompiledStats(), reg.FreezeCounts()

	po := tr.perOp
	if r.cfg.workload == wEdge {
		// The edge loop issues no Call: time core.System.Call and the
		// dispatcher on the mix's calls by the same population.
		ct := r.callProbe()
		po[spCall], po[spDispatch] = ct.perOp[spCall], ct.perOp[spDispatch]
		tr.absorb(ct)
	}
	lb, err := r.loopbackProbe()
	if err != nil {
		return nil, fmt.Errorf("loopback probe: %w", err)
	}
	compileUS := r.compileProbe()
	clockNS := clockProbe()

	split := func(k revKind, f func(s revSplit) time.Duration) float64 {
		var xs []float64
		for _, s := range rev.splits[k] {
			xs = append(xs, float64(f(s)))
		}
		return median(xs) / 1e6
	}
	publish := func(s revSplit) time.Duration { return s.publish }
	compile := func(s revSplit) time.Duration { return s.compile }
	wait := func(s revSplit) time.Duration { return s.call - s.publish }
	hit := 0.0
	if u.cache[1] > 0 {
		hit = float64(u.cache[0]) / float64(u.cache[1])
	}
	const mib = 1 << 20
	uP50, tP50 := u.latency(0.5), t.latency(0.5)
	v := map[string]float64{
		"core.checkdata_ns":             median(po[spCheck]),
		"core.call_ns":                  median(po[spCall]),
		"names.check_ns":                median(po[spNames]),
		"names.check_uncached_ns":       median(po[spUncached]),
		"monitor.check_ns":              median(po[spMonitor]),
		"audit.record_ns":               median(po[spAudit]),
		"dispatch.invoke_ns":            median(po[spDispatch]),
		"decision.hit_ratio":            hit,
		"acl.compile_us":                compileUS,
		"names.publish_acl_ms":          split(revACL, publish),
		"names.publish_member_ms":       split(revMember, publish),
		"names.compile_acl_ms":          split(revACL, compile),
		"names.compile_member_ms":       split(revMember, compile),
		"names.flush_wait_acl_ms":       split(revACL, wait),
		"names.flush_wait_member_ms":    split(revMember, wait),
		"names.compiles_full":           float64(cs1.Full - cs0.Full),
		"names.compiles_incremental":    float64(cs1.Incremental - cs0.Incremental),
		"principal.freezes_incremental": float64(fc1.Incremental - fc0.Incremental),
		"names.compiled_mb":             float64(cs1.RetainedBytes) / mib,
		"names.tree_mb":                 float64(ns.EpochFootprint().Footprint.TotalBytes) / mib,
		"principal.populate_s":          median(r.populateS),
		"names.build_tree_s":            median(r.treeS),
		"remote.null_rtt_us":            lb.null / 1e3,
		"remote.server_us":              (lb.real - lb.null) / 1e3,
		"remote.write_us":               lb.write / 1e3,
		"remote.wait_us":                lb.wait / 1e3,
		"gc.cycles":                     float64(rt.gcCycles),
		"gc.pause_ms":                   rt.gcPause * 1e3,
		"alloc.bytes_per_op":            float64(u.rt.allocBytes) / float64(u.ops),
		"harness.clock_ns":              clockNS,
		"trace.overhead_us":             (tP50 - uP50) / 1e3,
	}
	m := make(map[string]metric, len(perLayer))
	for _, d := range perLayer {
		m[d.name] = metric{v[d.name], d.unit}
	}
	if r.cfg.spansDir != "" {
		if err := tr.write(spansFile(r.cfg.spansDir, r.cfg.workload, r.cfg.seed)); err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
	}
	r.report(log, m, po, rev, uP50, tP50)
	return m, nil
}

// revocationSpans turns each revocation's journal split into spans: the
// call, its epoch's publication (ending when the call returned) and,
// inside that, the compile.
func revocationSpans(tr *tracer, rev revStats) {
	for k := range rev.splits {
		for _, s := range rev.splits[k] {
			tr.op++
			end := s.start.Add(s.call)
			id, pub := tr.id(), tr.id()
			tr.add(spRevoke, id, 0, tr.op, s.start, end, 1)
			tr.add(spPublish, pub, id, tr.op, end.Add(-s.publish), end, 1)
			tr.add(spCompile, tr.id(), pub, tr.op, end.Add(-s.compile), end, 1)
		}
	}
}

// absorb appends another tracer's spans, renumbering their IDs.
func (t *tracer) absorb(o *tracer) {
	off := t.next
	for _, s := range o.spans {
		s.ID += off
		if s.Parent != 0 {
			s.Parent += off
		}
		s.Start += o.t0.Sub(t.t0).Nanoseconds()
		s.End += o.t0.Sub(t.t0).Nanoseconds()
		if len(t.spans) < maxSpans {
			t.spans = append(t.spans, s)
		}
	}
	t.next += o.next
}

// callProbe runs the mix's Call operations, traced, on the current
// world.
func (r *runner) callProbe() *tracer {
	var calls []op
	for _, o := range genOps(r.pop, r.cfg.seed, blockOps, false) {
		if o.kind == opCall {
			calls = append(calls, o)
		}
	}
	calls = calls[:len(calls)/segmentOps*segmentOps]
	tr := newTracer()
	var h hist
	r.tracedMix(calls, &h, tr)
	return tr
}

// loopbackResult holds the loopback probe's medians, in ns.
type loopbackResult struct{ null, real, write, wait float64 }

// loopbackProbe drives the same client loop against the null server
// and the real server, alternating in chunks, with the edge subject's
// CHECKs. Real replies are checked against the oracle; null replies
// must be the fixed "OK allowed".
func (r *runner) loopbackProbe() (loopbackResult, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // as in edgeLoop
	const perSide, chunk = 8 * roundOps, 512
	ops := genOps(r.pop, r.cfg.seed+1, perSide, true)
	nullSrv, err := startNull()
	if err != nil {
		return loopbackResult{}, err
	}
	defer nullSrv.close()
	nc, err := dial(nullSrv.addr(), "null")
	if err != nil {
		return loopbackResult{}, err
	}
	defer nc.quit()
	cl := r.cl
	if cl == nil {
		if err := r.connect(); err != nil {
			return loopbackResult{}, err
		}
		cl = r.cl
		defer r.teardown()
	}
	var hn, hr, hw, hwt hist
	for base := 0; base < perSide; base += chunk {
		for i := base; i < base+chunk; i++ {
			t0 := time.Now()
			line, err := nc.roundTrip(ops[i].line)
			hn.add(time.Since(t0))
			got, perr := verdict(line)
			if err == nil {
				err = perr
			}
			r.outcome(err == nil && got, err)
		}
		for i := base; i < base+chunk; i++ {
			t0 := time.Now()
			ok, w, wt, err := cl.check(&ops[i], true)
			hr.add(time.Since(t0))
			hw.add(w)
			hwt.add(wt)
			r.outcome(ok, err)
		}
	}
	return loopbackResult{hn.quantile(0.5), hr.quantile(0.5), hw.quantile(0.5), hwt.quantile(0.5)}, nil
}

// compileProbe times acl.ACL.Compile of every pool ACL against the live
// registry's frozen view: the median over five passes of the mean
// per-ACL time, in µs.
func (r *runner) compileProbe() float64 {
	frozen := r.bw.sys.Registry().Freeze()
	var xs []float64
	for pass := 0; pass < 5; pass++ {
		t0 := time.Now()
		for _, a := range r.bw.pool {
			_ = a.Compile(frozen)
		}
		xs = append(xs, float64(time.Since(t0))/float64(len(r.bw.pool)))
	}
	return median(xs) / 1e3
}

// clockProbe is the cost of one timestamp pair, the calibration every
// per-op timing carries.
func clockProbe() float64 {
	const n = 1 << 18
	var sink time.Duration
	t0 := time.Now()
	for i := 0; i < n; i++ {
		a := time.Now()
		sink += time.Since(a)
	}
	el := time.Since(t0)
	_ = sink
	return float64(el) / n
}

// selfChildren maps a span name to its children, for the self-time
// column: a parent's self time is its per-op median minus its
// children's. The guard stack is not listed under names: compiled
// allows never consult it.
var selfChildren = map[string][]string{
	spCheck:  {spNames, spAudit},
	spCall:   {spNames, spAudit, spDispatch},
	spRemote: {spWrite, spWait},
}

// report prints the traced run's per-layer table, self times, the
// tracing overhead and how far the blocking steps of one operation are
// from its untraced median.
func (r *runner) report(w io.Writer, m map[string]metric, po map[string][]float64, rev revStats, uP50, tP50 float64) {
	fmt.Fprintf(w, "== %s seed %d: per-layer metrics (traced run) ==\n", r.cfg.workload, r.cfg.seed)
	for _, d := range perLayer {
		fmt.Fprintf(w, "  %-30s %14.4f %s\n", d.name, m[d.name].Value, d.unit)
	}
	// A real check hits the decision cache at the window's hit ratio;
	// the replay right after it always hits, and the uncached replay
	// never does, so a check's names cost is their hit-weighted mix.
	hit := m["decision.hit_ratio"].Value
	namesCost := hit*median(po[spNames]) + (1-hit)*median(po[spUncached])
	cost := func(name string) float64 {
		if name == spNames {
			return namesCost
		}
		return median(po[name])
	}
	fmt.Fprintln(w, "== self time per span (per-op medians; replayed children count as nested) ==")
	spanNames := make([]string, 0, len(po))
	for n := range po {
		if n != spSegment {
			spanNames = append(spanNames, n)
		}
	}
	sort.Strings(spanNames)
	for _, n := range spanNames {
		p50 := median(po[n])
		self := p50
		children := selfChildren[n]
		if n == spCall && r.cfg.workload == wEdge {
			// Only the call probe's Call and dispatcher medians are
			// kept; this run's names and audit spans belong to the
			// CHECKs.
			children = []string{spDispatch}
		}
		var kids []string
		for _, c := range children {
			if len(po[c]) > 0 {
				self -= cost(c)
				kids = append(kids, c)
			}
		}
		fmt.Fprintf(w, "  %-28s n=%-8d p50 %12.1f ns  self %12.1f ns  %s\n", n, len(po[n]), p50, self, strings.Join(kids, "+"))
	}
	fmt.Fprintf(w, "== tracing overhead: traced p50 %.3f us - untraced p50 %.3f us = %.3f us ==\n", tP50/1e3, uP50/1e3, (tP50-uP50)/1e3)
	switch r.cfg.workload {
	case wEdge:
		floor := m["remote.null_rtt_us"].Value * 1e3
		server := median(po[spCheck])
		fmt.Fprintf(w, "== blocking steps of one CHECK: null round trip %.0f ns + server CheckData %.0f ns = %.0f ns; untraced p50 %.0f ns; unaccounted %.0f ns ==\n",
			floor, server, floor+server, uP50, uP50-floor-server)
	default:
		steps := namesCost + median(po[spAudit])
		fmt.Fprintf(w, "== blocking steps of one CheckData: names %.0f ns (hit ratio %.2f of %.0f ns warm, %.0f ns uncached) + audit %.0f ns = %.0f ns; untraced p50 %.0f ns; unaccounted (core self + clock) %.0f ns ==\n",
			namesCost, hit, median(po[spNames]), median(po[spUncached]), median(po[spAudit]), steps, uP50, uP50-steps)
	}
	for k, name := range []string{"acl", "member"} {
		var call, pub, wt []float64
		for _, s := range rev.splits[k] {
			call = append(call, float64(s.call))
			pub = append(pub, float64(s.publish))
			wt = append(wt, float64(s.call-s.publish))
		}
		fmt.Fprintf(w, "== %s revocation (n=%d): call %.3f ms = publish %.3f ms + flush wait %.3f ms (medians) ==\n",
			name, len(call), median(call)/1e6, median(pub)/1e6, median(wt)/1e6)
	}
}
