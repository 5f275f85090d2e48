package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"secext/internal/acl"
	"secext/internal/core"
	"secext/internal/subject"
)

// workload names.
const (
	wInproc = "inproc-mix"
	wEdge   = "edge-check"
	wChurn  = "revoke-churn"
)

// runConfig is one invocation.
type runConfig struct {
	workload string
	seed     int64
	window   time.Duration
	trace    bool
	spansDir string // traced runs write their spans here

	// Set by the smoke test only.
	sc            *scale // population override
	setups        int    // set-ups per run (default: see newRunner)
	probeCycles   int    // membership revocations the idle-world probe times (default 7)
	corruptOracle bool   // flip expected outcomes to prove the oracle can fail
}

// runner holds one run's world and counters.
type runner struct {
	cfg runConfig
	pop *population
	bw  *world
	ops []op // the workload's pre-generated block
	pos int  // where the next round starts in ops
	srv *edgeServer
	cl  *client

	attempted, failed, mismatched atomic.Int64
	// cycles is every revocation so far, per revKind, appended by the
	// revocation loop; sightings are the barrier checks made beside it,
	// judged against cycles once the loop has ended.
	cycles                   [2][]cycle
	sightings                []sighting
	setupS, populateS, treeS []float64
	setupStolen              float64 // host steal share over the set-ups
}

// blockOps is the size of the pre-generated operation block the loops
// cycle through, round by round.
const blockOps = 16 * roundOps

func newRunner(cfg runConfig) (*runner, error) {
	switch cfg.workload {
	case wInproc, wEdge, wChurn:
	default:
		return nil, fmt.Errorf("unknown workload %q (want %s, %s or %s)", cfg.workload, wInproc, wEdge, wChurn)
	}
	if cfg.setups <= 0 {
		// Five set-ups steady the median; the 10^5-node worlds take ~2 s
		// each, so they settle for three.
		cfg.setups = 5
		if cfg.workload != wChurn {
			cfg.setups = 3
		}
	}
	if cfg.probeCycles <= 0 {
		cfg.probeCycles = 7
	}
	sc := bigScale
	if cfg.workload == wChurn {
		sc = churnScale
	}
	if cfg.sc != nil {
		sc = *cfg.sc
	}
	r := &runner{cfg: cfg, pop: newPopulation(sc, cfg.seed)}
	if r.pop.aclTarget < 0 || r.pop.memberTarget < 0 {
		return nil, fmt.Errorf("population too small for revocation targets")
	}
	r.ops = genOps(r.pop, cfg.seed, blockOps, cfg.workload == wEdge)
	if cfg.corruptOracle {
		corrupt(r.ops)
	}
	return r, nil
}

// setup builds the world (and, for edge-check, the server and the
// authenticated connection) cfg.setups times, keeping the last one.
// Each set-up is timed on its own; setup_s is their median, less the
// host steal over all of them.
func (r *runner) setup() error {
	cpu0 := readCPU()
	defer func() { r.setupStolen = stolenShare(cpu0, readCPU()) }()
	for i := 0; i < r.cfg.setups; i++ {
		r.teardown()
		r.bw = nil
		runtime.GC()
		t0 := time.Now()
		bw, err := buildWorld(r.pop)
		if err != nil {
			return err
		}
		r.bw = bw
		if r.cfg.workload == wEdge {
			if err := r.connect(); err != nil {
				return err
			}
		}
		r.setupS = append(r.setupS, time.Since(t0).Seconds())
		r.populateS = append(r.populateS, bw.populate.Seconds())
		r.treeS = append(r.treeS, bw.buildTree.Seconds())
	}
	return nil
}

// connect starts the in-process remote server and authenticates one
// connection as the edge subject.
func (r *runner) connect() error {
	tok, err := r.bw.sys.Registry().IssueToken(principalName(r.pop.edgeSubject))
	if err != nil {
		return err
	}
	if r.srv, err = startEdge(r.bw.sys); err != nil {
		return err
	}
	r.cl, err = dial(r.srv.addr(), tok)
	return err
}

// teardown closes the connection and the server, if any.
func (r *runner) teardown() {
	if r.cl != nil {
		r.cl.quit()
		r.cl = nil
	}
	if r.srv != nil {
		_ = r.srv.close() // Serve's listener error on close carries nothing
		r.srv = nil
	}
}

// outcome counts one operation.
func (r *runner) outcome(ok bool, err error) {
	r.attempted.Add(1)
	if !ok {
		r.failed.Add(1)
		if err == nil {
			r.mismatched.Add(1)
		}
	}
}

// windowStats is what one measured window produced. ops_s is the
// window's operations over its elapsed time less the share the host
// took from the machine (see stolenShare), and the latencies come from
// one histogram over the whole window, so every collection or
// publication pause inside the window counts in them.
type windowStats struct {
	ops     int64
	elapsed time.Duration
	stolen  float64 // share of the window's CPU time the host took
	lat     hist
	rev     revStats
	rt      rtCounters
	cache   [2]uint64 // decision-cache hits, lookups
}

func (ws *windowStats) rate() float64 {
	return float64(ws.ops) / (ws.elapsed.Seconds() * (1 - ws.stolen))
}

// latency returns the window's q-quantile latency in ns. It is not
// scaled for steal: the host takes the CPU in bursts that stall a few
// operations, not every operation by the same share.
func (ws *windowStats) latency(q float64) float64 { return ws.lat.quantile(q) }

// window runs the workload's closed loop for d. With tr set the loop
// records spans and replays each layer's own call. A collection first
// clears the set-up's garbage, so every window starts from the same
// heap state; it runs before the runtime counters are read, so they
// hold only the window's own collections.
func (r *runner) window(d time.Duration, tr *tracer) *windowStats {
	runtime.GC()
	ws := &windowStats{}
	c0 := r.bw.sys.DecisionCache().Stats()
	rt0, cpu0 := readRuntime(), readCPU()
	start := time.Now()
	deadline := start.Add(d)
	switch r.cfg.workload {
	case wEdge:
		ws.ops = r.edgeLoop(deadline, &ws.lat, tr)
	case wInproc:
		ws.ops = r.mixLoop(r.ops, deadline, nil, &ws.lat, tr)
	case wChurn:
		// Beside the revocation loop, the reader runs until that loop
		// has finished.
		var stop atomic.Bool
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !ws.rev.enough() || time.Now().Before(deadline) {
				r.revoke(&ws.rev, revACL, tr != nil)
				r.revoke(&ws.rev, revMember, tr != nil)
			}
			stop.Store(true)
		}()
		ws.ops = r.mixLoop(r.ops, deadline, &stop, &ws.lat, tr)
		wg.Wait()
		r.judgeSightings()
	}
	ws.elapsed = time.Since(start)
	ws.stolen = stolenShare(cpu0, readCPU())
	ws.rev.stolen = [2]float64{ws.stolen, ws.stolen}
	ws.rt = readRuntime().sub(rt0)
	c1 := r.bw.sys.DecisionCache().Stats()
	ws.cache = [2]uint64{c1.Hits - c0.Hits, (c1.Hits + c1.Misses) - (c0.Hits + c0.Misses)}
	return ws
}

// mixLoop issues the in-process mix round by round until the deadline
// passes (or, beside a revocation loop, until it stops). Successive
// calls continue through the block where the last one stopped. Beside
// a revocation loop, every segment is followed by one barrier check of
// each revocation kind; those are oracle checks, not timed operations.
func (r *runner) mixLoop(ops []op, deadline time.Time, stop *atomic.Bool, h *hist, tr *tracer) int64 {
	var n int64
	for {
		round := ops[r.pos : r.pos+roundOps]
		r.pos = (r.pos + roundOps) % len(ops)
		for s := 0; s < len(round); s += segmentOps {
			seg := round[s : s+segmentOps]
			if tr != nil {
				r.tracedMix(seg, h, tr)
			} else {
				for i := range seg {
					t0 := time.Now()
					ok := r.bw.do(&seg[i])
					h.add(time.Since(t0))
					r.outcome(ok, nil)
				}
			}
			if stop != nil {
				r.checkBarrier(revACL)
				r.checkBarrier(revMember)
			}
		}
		n += roundOps
		if stop != nil {
			if stop.Load() {
				return n
			}
		} else if !time.Now().Before(deadline) {
			return n
		}
	}
}

// edgeLoop sends CHECK lines over the authenticated connection. The
// client and the server run in this one process; with one P the
// server's goroutine runs on the client's thread as soon as the client
// waits for the reply, instead of on the other CPU, which on a virtual
// machine may first have to be woken by the hypervisor (see README.md).
func (r *runner) edgeLoop(deadline time.Time, h *hist, tr *tracer) int64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var n int64
	for {
		round := r.ops[r.pos : r.pos+roundOps]
		r.pos = (r.pos + roundOps) % len(r.ops)
		if tr != nil {
			r.tracedEdge(round, h, tr)
		} else {
			for i := range round {
				t0 := time.Now()
				ok, _, _, err := r.cl.check(&round[i], false)
				h.add(time.Since(t0))
				r.outcome(ok, err)
			}
		}
		n += roundOps
		if !time.Now().Before(deadline) {
			return n
		}
	}
}

// revKind tells the two revocations apart.
type revKind int

const (
	revACL revKind = iota
	revMember
)

// revSplit is one revocation's call time and its journal split.
type revSplit struct {
	start                  time.Time
	call, publish, compile time.Duration
}

// revStats collects revocation timings, with the share of the CPU time
// the host took while each kind ran.
type revStats struct {
	calls  [2][]time.Duration
	splits [2][]revSplit
	stolen [2]float64
}

// median returns the median revocation call of kind k in ms, less the
// share the host took.
func (s *revStats) median(k revKind) float64 {
	return median(durations(s.calls[k])) / 1e6 * (1 - s.stolen[k])
}

// minRevocations is how many revocations of each kind revoke-churn
// completes at least, however short the window.
const minRevocations = 40

func (s *revStats) enough() bool {
	return len(s.calls[revACL]) >= minRevocations && len(s.calls[revMember]) >= minRevocations
}

// cycle is one revocation: the version it landed at and the version
// its restore landed at (math.MaxUint64 until the restore returns).
type cycle struct{ revoked, restored uint64 }

// sighting is one barrier check made beside the revocations: the epoch
// the check ran at and whether it allowed the revoked grant.
type sighting struct {
	kind    revKind
	ep      uint64
	allowed bool
}

// target is the subject and the leaf a revocation of kind k takes the
// write grant from.
func (r *runner) target(k revKind) (*subject.Context, string) {
	if k == revMember {
		return r.bw.rvMember, r.pop.leafPath(r.pop.memberTarget)
	}
	return r.bw.rvACL, r.pop.leafPath(r.pop.aclTarget)
}

// checkBarrier checks the grant revocations of kind k take away while
// they may be landing. The verdict is kept with its epoch and judged
// once the revocation loop has ended and every landing version is
// known; an error that is not a denial fails at once.
func (r *runner) checkBarrier(k revKind) {
	ctx, path := r.target(k)
	_, ep, err := r.bw.sys.Names().CheckAccessAt(ctx, ctx.Class(), path, acl.Write)
	if err != nil && !core.IsDenied(err) {
		r.outcome(false, err)
		return
	}
	r.sightings = append(r.sightings, sighting{k, ep, err == nil})
}

// judgeSightings checks every kept barrier check against the complete
// revocation history: a check at an epoch in [revoked, restored) of
// some revocation must deny the grant, and a check at any other epoch
// must allow it. Every disagreement is a failed operation.
func (r *runner) judgeSightings() {
	for _, s := range r.sightings {
		cs := r.cycles[s.kind]
		i := sort.Search(len(cs), func(i int) bool { return cs[i].revoked > s.ep }) - 1
		revoked := i >= 0 && s.ep < cs[i].restored
		r.outcome(s.allowed != revoked, nil)
	}
	r.sightings = r.sightings[:0]
}

// revoke revokes one grant and restores it: for revACL a checked
// SetACLAt through core drops rv-acl's individual grant on one leaf and
// puts it back; for revMember RemoveMemberAt takes rv-member out of
// group 0 and AddMemberAt puts it back. Each returned version is
// recorded for the checks running beside the loop, and after each call
// the revoker checks the barrier itself: a check at an epoch >= v must deny
// the revoked grant, and after the restore the grant must be allowed
// again. Only the revocation call is timed.
func (r *runner) revoke(s *revStats, kind revKind, split bool) {
	bw := r.bw
	ctx, path := r.target(kind)
	call := func(revoke bool) (uint64, error) {
		a := bw.targetWith
		if revoke {
			a = bw.targetWithout
		}
		return bw.sys.SetACLAt(bw.admin, path, a)
	}
	if kind == revMember {
		reg := bw.sys.Registry()
		call = func(revoke bool) (uint64, error) {
			if revoke {
				return reg.RemoveMemberAt(groupName(0), rvMember)
			}
			return reg.AddMemberAt(groupName(0), rvMember)
		}
	}
	for _, revoking := range []bool{true, false} {
		t0 := time.Now()
		v, err := call(revoking)
		d := time.Since(t0)
		r.outcome(err == nil, err)
		if err != nil {
			continue
		}
		cs := r.cycles[kind]
		if revoking {
			r.cycles[kind] = append(cs, cycle{v, math.MaxUint64})
		} else if n := len(cs); n > 0 && cs[n-1].restored == math.MaxUint64 {
			cs[n-1].restored = v
		}
		if revoking {
			s.calls[kind] = append(s.calls[kind], d)
			if split {
				if rec, ok := journalRecord(bw, v); ok {
					s.splits[kind] = append(s.splits[kind], revSplit{
						start: t0, call: d, publish: time.Duration(rec.PublishNS), compile: time.Duration(rec.CompileNS),
					})
				}
			}
		}
		_, ep, err := bw.sys.Names().CheckAccessAt(ctx, ctx.Class(), path, acl.Write)
		allowed := err == nil
		r.outcome(ep >= v && allowed == !revoking && (allowed || core.IsDenied(err)), nil)
	}
}

// probeACLs is how many ACL revocations the probe times: they are
// cheap next to a membership revocation, and more of them steady
// their median.
const probeACLs = 61

// probeRevocations runs revocations on an otherwise idle world: the
// revocation metrics of inproc-mix and edge-check. Each kind runs as
// one block after an unmeasured warm-up revocation of its own. As a
// window does, the probe starts from a collected heap; like
// revoke-churn, it forces no collection between revocations, so the
// collections their own allocations cause count in their times. It
// also returns the runtime counters' change after its forced collection.
func (r *runner) probeRevocations(split bool) (revStats, rtCounters) {
	var s, warm revStats
	runtime.GC()
	rt0 := readRuntime()
	r.revoke(&warm, revACL, false)
	cpu0 := readCPU()
	for i := 0; i < probeACLs; i++ {
		r.revoke(&s, revACL, split)
	}
	s.stolen[revACL] = stolenShare(cpu0, readCPU())
	r.revoke(&warm, revMember, false)
	cpu0 = readCPU()
	for i := 0; i < r.cfg.probeCycles; i++ {
		r.revoke(&s, revMember, split)
	}
	s.stolen[revMember] = stolenShare(cpu0, readCPU())
	return s, readRuntime().sub(rt0)
}

// rtCounters are runtime/metrics readings.
type rtCounters struct {
	gcCycles, allocBytes uint64
	gcPause              float64 // seconds, from the pause histogram
}

var rtNames = []string{"/gc/cycles/automatic:gc-cycles", "/gc/heap/allocs:bytes", "/sched/pauses/total/gc:seconds"}

func readRuntime() rtCounters {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	var c rtCounters
	if s[0].Value.Kind() == metrics.KindUint64 {
		c.gcCycles = s[0].Value.Uint64()
	}
	if s[1].Value.Kind() == metrics.KindUint64 {
		c.allocBytes = s[1].Value.Uint64()
	}
	if s[2].Value.Kind() == metrics.KindFloat64Histogram {
		h := s[2].Value.Float64Histogram()
		for i, n := range h.Counts {
			lo, hi := h.Buckets[i], h.Buckets[i+1]
			if lo < 0 || hi > 1e9 { // the open-ended edge buckets
				continue
			}
			c.gcPause += float64(n) * (lo + hi) / 2
		}
	}
	return c
}

func (c rtCounters) sub(o rtCounters) rtCounters {
	return rtCounters{c.gcCycles - o.gcCycles, c.allocBytes - o.allocBytes, c.gcPause - o.gcPause}
}

func (c rtCounters) add(o rtCounters) rtCounters {
	return rtCounters{c.gcCycles + o.gcCycles, c.allocBytes + o.allocBytes, c.gcPause + o.gcPause}
}

// cpuTicks is the machine's CPU time from /proc/stat, in clock ticks:
// the time its CPUs ran anything, and the time the hypervisor took from
// them while they had work (steal).
type cpuTicks struct{ busy, steal uint64 }

// readCPU reads the aggregate line of /proc/stat; it reads zero where
// the file is missing or has no steal column.
func readCPU() cpuTicks {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTicks{}
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return cpuTicks{}
	}
	var v [8]uint64
	for i := range v {
		v[i], _ = strconv.ParseUint(f[i+1], 10, 64)
	}
	// user nice system idle iowait irq softirq steal
	return cpuTicks{busy: v[0] + v[1] + v[2] + v[5] + v[6], steal: v[7]}
}

// minTicks is the least CPU time, in clock ticks (10 ms each), over
// which a steal share is taken: over less, one tick more or less moves
// it by several percent, and the timing is left unscaled.
const minTicks = 50

// stolenShare is the share of the CPU time the machine wanted between
// two readings that the hypervisor gave to other guests instead. On a
// shared host that share moves by several percent from one minute to
// the next and slows a run as a whole, which no change to the program
// causes; timings are scaled by one minus it. Stalls of the program
// itself (collections, lock waits, publications) are not steal, and
// stay counted.
func stolenShare(a, b cpuTicks) float64 {
	busy, steal := b.busy-a.busy, b.steal-a.steal
	if busy+steal < minTicks {
		return 0
	}
	return float64(steal) / float64(busy+steal)
}

// liveHeapMiB forces two collections and reads the live heap.
func liveHeapMiB() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}
