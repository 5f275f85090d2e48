package main

import (
	"math/rand"

	"secext/internal/acl"
	"secext/internal/core"
)

type opKind uint8

const (
	opRead opKind = iota
	opWrite
	opCall
)

// op is one pre-generated operation with its expected outcome.
type op struct {
	kind  opKind
	sub   int32
	leaf  int32
	path  string
	mode  acl.Mode
	want  bool   // data ops: expected verdict
	owner string // calls: expected handler
	line  []byte // edge ops: the CHECK request line
}

// roundOps is the size of one round: every run attempts whole rounds
// of the pre-generated block, so attempted is a multiple of it.
const roundOps = 4096

// zipfS is the skew of the subject and target distributions.
const zipfS = 1.1

// genOps generates n operations (a multiple of roundOps) from the seed.
// Subjects and target leaves are zipf-skewed over the population's
// ranks, so hot principals and hot leaves are spread across classes and
// subtrees. The mix is 80% read CheckData, 12% write CheckData and 8%
// Call; edge ops are 85% read and 15% write CHECKs by the edge subject.
// These shares are assumptions, not taken from a trace; README.md gives
// the reason for each.
func genOps(p *population, seed int64, n int, edge bool) []op {
	r := rand.New(rand.NewSource(seed ^ 0x5eed))
	nLeaves := p.Dirs * p.Leaves
	zs := rand.NewZipf(r, zipfS, 1, uint64(p.Principals-1))
	zl := rand.NewZipf(r, zipfS, 1, uint64(nLeaves-1))
	paths := make(map[int]string)
	path := func(i int) string {
		s, ok := paths[i]
		if !ok {
			s = p.leafPath(i)
			paths[i] = s
		}
		return s
	}
	ops := make([]op, n)
	for k := range ops {
		o := &ops[k]
		o.sub = int32(p.subjByRank[zs.Uint64()])
		if edge {
			o.sub = int32(p.edgeSubject)
		}
		u := r.Intn(100)
		switch {
		case !edge && u >= 92:
			o.kind, o.path, o.mode = opCall, servicePath, acl.Execute
			o.owner = handlerOwner(wantHandler(p.subjClass[o.sub]))
			continue
		case (edge && u >= 85) || (!edge && u >= 80):
			o.kind, o.mode = opWrite, acl.Write
		default:
			o.kind, o.mode = opRead, acl.Read
		}
		o.leaf = int32(p.leafByRank[zl.Uint64()])
		o.path = path(int(o.leaf))
		o.want = p.wantData(int(o.sub), int(o.leaf), o.kind == opWrite)
		if edge {
			o.line = []byte("CHECK " + o.path + " " + o.mode.String() + "\n")
		}
	}
	return ops
}

// corrupt flips the expected outcome of the first op of every round:
// the smoke test's proof that the oracle can fail a run.
func corrupt(ops []op) {
	for k := 0; k < len(ops); k += roundOps {
		o := &ops[k]
		if o.kind == opCall {
			o.owner = "nobody"
		} else {
			o.want = !o.want
		}
	}
}

// do runs one in-process operation through core and reports whether
// its outcome matches the oracle. Errors other than a denial are
// mismatches too.
func (bw *world) do(o *op) bool {
	ctx := bw.ctxs[o.sub]
	if o.kind == opCall {
		out, err := bw.sys.Call(ctx, servicePath, nil)
		return err == nil && out == o.owner
	}
	_, err := bw.sys.CheckData(ctx, o.path, o.mode)
	if err == nil {
		return o.want
	}
	return !o.want && core.IsDenied(err)
}
