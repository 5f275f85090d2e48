package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"secext/internal/acl"
	"secext/internal/audit"
	"secext/internal/lattice"
	"secext/internal/monitor"
	"secext/internal/names"
)

// Span names. Real operations get one span each; a layer reached only
// through another layer's call gets a child span that times a batch of
// replays of that layer's own public function on the same inputs.
const (
	spSegment  = "core.segment"          // parent of one segment's ops and replays
	spCheck    = "core.System.CheckData" // real op, or batch replay under edge-check
	spCall     = "core.System.Call"      // real op
	spNames    = "names.Server.CheckAccessAt"
	spUncached = "names.Server.CheckAccessIn" // the same check on the pinned epoch, past the decision cache
	spMonitor  = "monitor.Pipeline.Check"
	spAudit    = "audit.Log.Record"
	spDispatch = "dispatch.Dispatcher.Invoke"
	spRemote   = "remote.CHECK"  // real op under edge-check
	spWrite    = "remote.write"  // client write and flush
	spWait     = "remote.wait"   // flush until the reply is read
	spRevoke   = "revocation"    // one revocation call
	spPublish  = "names.publish" // journal PublishNS of its landing epoch
	spCompile  = "names.compile" // journal CompileNS of the same epoch
)

// segmentOps is the replay batch size: sub-µs calls are timed over a
// batch of calls rather than one at a time.
const segmentOps = 64

// span is one recorded interval; N > 1 marks a batch of N calls.
type span struct {
	Name   string `json:"name"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Op     int64  `json:"op"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	N      int    `json:"n"`
}

// maxSpans bounds the spans a run keeps for writing out. Every span,
// kept or not, feeds the per-layer medians.
const maxSpans = 1 << 16

// tracer keeps spans in memory; they are written out when the run ends.
type tracer struct {
	t0    time.Time
	spans []span
	next  int64
	op    int64
	// perOp holds, per span name, the duration per call of every span
	// recorded (a batch contributes its mean).
	perOp map[string][]float64
}

func newTracer() *tracer { return &tracer{t0: time.Now(), perOp: make(map[string][]float64)} }

func (t *tracer) id() int64 { t.next++; return t.next }

func (t *tracer) add(name string, id, parent, op int64, start, end time.Time, n int) {
	t.perOp[name] = append(t.perOp[name], float64(end.Sub(start))/float64(n))
	if len(t.spans) >= maxSpans && name != spRevoke && name != spPublish && name != spCompile {
		return
	}
	t.spans = append(t.spans, span{
		Name: name, ID: id, Parent: parent, Op: op,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds(), N: n,
	})
}

// write dumps the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := t.encode(w); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func (t *tracer) encode(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return nil
}

// tracedMix runs one round of the in-process mix in segments: each real
// op gets its own span, then the segment's inputs are replayed batch by
// batch through names, monitor, audit and dispatch.
func (r *runner) tracedMix(round []op, h *hist, tr *tracer) {
	for s := 0; s < len(round); s += segmentOps {
		seg := round[s : s+segmentOps]
		segID := tr.id()
		segStart := time.Now()
		for i := range seg {
			o := &seg[i]
			tr.op++
			name := spCheck
			if o.kind == opCall {
				name = spCall
			}
			id := tr.id()
			t0 := time.Now()
			ok := r.bw.do(o)
			t1 := time.Now()
			tr.add(name, id, segID, tr.op, t0, t1, 1)
			h.add(t1.Sub(t0))
			r.outcome(ok, nil)
		}
		r.replay(seg, segID, tr, false)
		tr.add(spSegment, segID, 0, tr.op-int64(len(seg))+1, segStart, time.Now(), len(seg))
	}
}

// tracedEdge runs one round of CHECKs with the client write and the
// wait for the reply as child spans, then replays the segment's inputs
// in-process layer by layer.
func (r *runner) tracedEdge(round []op, h *hist, tr *tracer) {
	for s := 0; s < len(round); s += segmentOps {
		seg := round[s : s+segmentOps]
		segID := tr.id()
		segStart := time.Now()
		for i := range seg {
			tr.op++
			id := tr.id()
			t0 := time.Now()
			ok, wr, wt, err := r.cl.check(&seg[i], true)
			t1 := time.Now()
			tr.add(spRemote, id, segID, tr.op, t0, t1, 1)
			tr.add(spWrite, tr.id(), id, tr.op, t0, t0.Add(wr), 1)
			tr.add(spWait, tr.id(), id, tr.op, t1.Add(-wt), t1, 1)
			h.add(t1.Sub(t0))
			r.outcome(ok, err)
		}
		r.replay(seg, segID, tr, true)
		tr.add(spSegment, segID, 0, tr.op-int64(len(seg))+1, segStart, time.Now(), len(seg))
	}
}

// replay calls each layer's own public function on the segment's
// inputs, one batch span per layer. withCore also replays
// core.System.CheckData (the server-side work of an edge CHECK).
func (r *runner) replay(seg []op, parent int64, tr *tracer, withCore bool) {
	bw := r.bw
	sys := bw.sys
	ns := sys.Names()
	op0 := tr.op - int64(len(seg)) + 1
	batch := func(name string, parent int64, fn func(o *op), pick func(o *op) bool) int64 {
		id := tr.id()
		n := 0
		t0 := time.Now()
		for i := range seg {
			if pick(&seg[i]) {
				fn(&seg[i])
				n++
			}
		}
		if n > 0 {
			tr.add(name, id, parent, op0, t0, time.Now(), n)
		}
		return id
	}
	all := func(*op) bool { return true }
	calls := func(o *op) bool { return o.kind == opCall }
	data := func(o *op) bool { return o.kind != opCall }

	if withCore {
		parent = batch(spCheck, parent, func(o *op) { _, _ = sys.CheckData(bw.ctxs[o.sub], o.path, o.mode) }, data)
	}
	namesID := batch(spNames, parent, func(o *op) {
		ctx := bw.ctxs[o.sub]
		_, _, _ = ns.CheckAccessAt(ctx, ctx.Class(), o.path, o.mode)
	}, all)
	ep := ns.Current()
	batch(spUncached, parent, func(o *op) {
		ctx := bw.ctxs[o.sub]
		_, _ = ns.CheckAccessIn(ep, ctx, ctx.Class(), o.path, o.mode)
	}, all)
	members := ep.Membership()
	batch(spMonitor, namesID, func(o *op) {
		ctx := bw.ctxs[o.sub]
		obj, class := bw.object(o)
		sys.Monitor().Check(monitor.Request{
			Subject: ctx, Class: ctx.Class(), Modes: o.mode, Members: members, Op: monitor.OpAccess,
			Object: monitor.Object{Path: o.path, ACL: obj, Class: class},
		})
	}, all)
	version := ns.Version()
	batch(spAudit, parent, func(o *op) {
		ctx := bw.ctxs[o.sub]
		kind, reason := audit.KindData, "denied"
		if o.kind == opCall {
			kind = audit.KindCall
		}
		if o.want || o.kind == opCall {
			reason = "granted"
		}
		sys.Audit().Record(audit.Event{
			Kind: kind, Subject: ctx.SubjectName(), Class: ctx.ClassLabel(), Path: o.path,
			Op: o.mode.String(), Allowed: reason == "granted", Reason: reason, Epoch: version,
		})
	}, all)
	batch(spDispatch, parent, func(o *op) { _, _ = sys.Dispatcher().Invoke(servicePath, bw.ctxs[o.sub], nil) }, calls)
}

// object is the protection state the guard stack sees for an op's
// target, rebuilt from the population.
func (bw *world) object(o *op) (*acl.ACL, lattice.Class) {
	if o.kind == opCall {
		return bw.svcACL, bw.lattice(bottom)
	}
	a := bw.pool[bw.pop.leafPool[o.leaf]]
	if int(o.leaf) == bw.pop.aclTarget {
		a = bw.targetWith
	}
	return a, bw.lattice(bw.pop.leafClass[o.leaf])
}

// journalRecord finds the epoch-transition record of version v.
func journalRecord(bw *world, v uint64) (names.TransitionRecord, bool) {
	for _, rec := range bw.sys.Names().Journal(16) {
		if rec.Version == v {
			return rec, true
		}
	}
	return names.TransitionRecord{}, false
}

// spansFile names the span dump of one traced run.
func spansFile(dir, workload string, seed int64) string {
	return filepath.Join(dir, fmt.Sprintf("spans-%s-seed%d.jsonl", workload, seed))
}
