package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"sort"
	"testing"
	"time"
)

// declared reads the metric names BENCHMARK.json lists under key.
func declared(t *testing.T, key string) []string {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec map[string]json.RawMessage
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var ms []struct{ Name, Unit string }
	if err := json.Unmarshal(spec[key], &ms); err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, m := range ms {
		out = append(out, m.Name+" "+m.Unit)
	}
	sort.Strings(out)
	return out
}

func printed(res *result) []string {
	var out []string
	for name, m := range res.Metrics {
		out = append(out, name+" "+m.Unit)
	}
	sort.Strings(out)
	return out
}

func tiny(workload string, seed int64, trace bool, dir string) runConfig {
	sc := tinyScale
	return runConfig{
		workload: workload, seed: seed, window: 300 * time.Millisecond, trace: trace, spansDir: dir,
		sc: &sc, setups: 2, probeCycles: 2,
	}
}

func sameNames(t *testing.T, what string, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: printed %v, BENCHMARK.json lists %v", what, got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: printed %v, BENCHMARK.json lists %v", what, got, want)
		}
	}
}

// Every workload finishes on two seeds with no failed operation and
// prints exactly the end-to-end metrics BENCHMARK.json lists.
func TestWorkloadsAtTinyScale(t *testing.T) {
	want := declared(t, "end_to_end")
	for _, w := range []string{wInproc, wEdge, wChurn} {
		for _, seed := range []int64{7, 8} {
			res, err := run(tiny(w, seed, false, ""), io.Discard)
			if err != nil {
				t.Fatalf("%s seed %d: %v", w, seed, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < roundOps {
				t.Fatalf("%s seed %d: correct=%v attempted=%d failed=%d", w, seed, res.Correct, res.Attempted, res.Failed)
			}
			sameNames(t, w, printed(res), want)
			for name, m := range res.Metrics {
				if !(m.Value > 0) {
					t.Errorf("%s seed %d: %s = %v, want > 0", w, seed, name, m.Value)
				}
			}
		}
	}
}

// The traced run prints exactly the per-layer metrics BENCHMARK.json
// lists and writes its spans.
func TestTracedRunAtTinyScale(t *testing.T) {
	want := declared(t, "per_layer")
	for _, w := range []string{wInproc, wEdge, wChurn} {
		dir := t.TempDir()
		res, err := run(tiny(w, 7, true, dir), io.Discard)
		if err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		if !res.Correct || res.Failed != 0 {
			t.Fatalf("%s: correct=%v failed=%d", w, res.Correct, res.Failed)
		}
		sameNames(t, w, printed(res), want)
		if st, err := os.Stat(spansFile(dir, w, 7)); err != nil || st.Size() == 0 {
			t.Fatalf("%s: spans not written: %v", w, err)
		}
	}
}

// A deliberately wrong expected verdict makes the run report failures:
// the oracle can fail a run.
func TestWrongOracleFails(t *testing.T) {
	for _, w := range []string{wInproc, wEdge, wChurn} {
		cfg := tiny(w, 7, false, "")
		cfg.corruptOracle = true
		res, err := run(cfg, io.Discard)
		if err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		if res.Correct || res.Failed == 0 {
			t.Fatalf("%s: corrupted oracle went unnoticed: correct=%v failed=%d", w, res.Correct, res.Failed)
		}
	}
}

// A check beside the revocations that contradicts the revocation
// history is a failed operation: the concurrent barrier oracle can
// fail a run, on an allow and on a denial.
func TestBarrierCheckCanFail(t *testing.T) {
	r, err := newRunner(tiny(wChurn, 7, false, ""))
	if err != nil {
		t.Fatal(err)
	}
	defer r.teardown()
	if err := r.setup(); err != nil {
		t.Fatal(err)
	}
	judged := func(k revKind, cs []cycle) int64 {
		t.Helper()
		r.cycles[k] = cs
		f0 := r.mismatched.Load()
		r.checkBarrier(k)
		r.judgeSightings()
		return r.mismatched.Load() - f0
	}
	ep := r.bw.sys.Names().Version()
	// The grant is in place: revocations that ended before the current
	// epoch, or begin after it, leave the allow correct.
	for _, k := range []revKind{revACL, revMember} {
		if n := judged(k, []cycle{{1, 2}, {ep + 1, ep + 2}}); n != 0 {
			t.Fatalf("kind %d: allow outside every revocation: %d mismatched", k, n)
		}
		// Claim the grant was revoked at version 1 and never restored:
		// the allow must count as failed.
		if n := judged(k, []cycle{{1, math.MaxUint64}}); n != 1 {
			t.Fatalf("kind %d: allow inside a revocation: %d mismatched, want 1", k, n)
		}
	}
	// Revoke for real without recording it: the denial must fail too.
	if _, err := r.bw.sys.Registry().RemoveMemberAt(groupName(0), rvMember); err != nil {
		t.Fatal(err)
	}
	if n := judged(revMember, nil); n != 1 {
		t.Fatalf("denial outside every recorded revocation: %d mismatched, want 1", n)
	}
}
