package main

import (
	"fmt"
	"math/rand"
)

// The population is pure data derived from the seed: principal and
// group names, each principal's class, every directory's and leaf's
// class and ACL-pool index. The world is built from it through the
// program's public APIs, and the oracle (oracle.go) answers every
// expected outcome from it with its own arithmetic, never by asking
// the program.

// levels and categories make the lattice every world runs on.
var (
	levels     = []string{"L0", "L1", "L2", "L3"}
	categories = []string{"a", "b"}
)

// cls is the benchmark's own view of a security class: a level index
// and a category bitmask (bit 0 = a, bit 1 = b).
type cls struct {
	lvl  int
	cats uint8
}

// dominates is the lattice order, computed apart from the program.
func (c cls) dominates(o cls) bool { return c.lvl >= o.lvl && c.cats&o.cats == o.cats }

func (c cls) join(o cls) cls {
	if o.lvl > c.lvl {
		c.lvl = o.lvl
	}
	c.cats |= o.cats
	return c
}

// label renders the class in the program's textual form ("L2:{a,b}").
func (c cls) label() string {
	if c.cats == 0 {
		return levels[c.lvl]
	}
	s := ""
	for i, name := range categories {
		if c.cats&(1<<i) != 0 {
			if s != "" {
				s += ","
			}
			s += name
		}
	}
	return levels[c.lvl] + ":{" + s + "}"
}

var (
	bottom = cls{0, 0}
	// principalClasses spreads principals over the lattice.
	principalClasses = []cls{{0, 0}, {1, 0}, {1, 1}, {1, 2}, {2, 0}, {2, 1}, {2, 2}, {3, 3}}
	// raisedClasses are the classes of subtrees that sit above bottom.
	raisedClasses = []cls{{1, 0}, {1, 1}, {2, 2}, {3, 3}}
	// raisedLeaf is joined into one leaf in sixteen.
	raisedLeaf = cls{2, 1}
	// edgeClass is the class of the principal behind the edge-check
	// connection: some subtrees are read-ups for it, most are not.
	edgeClass = cls{2, 1}
)

// specClasses are the static classes of the class-specialized
// extensions of the Call service, a chain so that the most specific
// admissible one is always unique. Callers that dominate none of them
// get the base handler.
var specClasses = []cls{{1, 0}, {2, 1}, {3, 3}}

// scale sizes one population.
type scale struct {
	Dirs, Leaves int // directories under /data, leaves per directory
	Principals   int
	Groups       int
	ACLPool      int // distinct pool ACLs scattered over the tree
}

var (
	// bigScale is ~10^5 nodes under ~10^4 principals.
	bigScale = scale{Dirs: 390, Leaves: 256, Principals: 10_000, Groups: 312, ACLPool: 1562}
	// churnScale is a few times smaller, so that member revocations
	// complete by the dozen within one run.
	churnScale = scale{Dirs: 78, Leaves: 256, Principals: 2_000, Groups: 62, ACLPool: 312}
	// tinyScale is for the smoke test.
	tinyScale = scale{Dirs: 8, Leaves: 16, Principals: 64, Groups: 4, ACLPool: 16}
)

// Dedicated principals, outside the zipf subject population so that
// revocations never change an expected verdict of the check mix.
const (
	rvAdmin  = "rv-admin"  // administrates the ACL-revocation targets
	rvACL    = "rv-acl"    // holds the individual grant an ACL revocation drops
	rvMember = "rv-member" // member of group 0, removed by a member revocation
	extender = "extender"  // registers the class-specialized extensions
)

// population is the seed-derived shape of one world.
//
// Subjects and leaves are drawn by zipf rank, and every property that
// decides an outcome is a function of the rank: the principal at rank r
// has class principalClasses[r mod 8], the leaf at rank r lies in a
// directory whose class follows a fixed pattern in r and is raised when
// r mod 16 = 7. The seed picks which principal and which leaf hold each
// rank, the ACL pool indices, and the operation stream, so two seeds
// exercise the same shape of hot set under different names.
type population struct {
	scale
	seed       int64
	subjClass  []cls // per principal
	dirClass   []cls // per directory
	leafClass  []cls // per global leaf index
	dirPool    []int // pool index per directory
	leafPool   []int // pool index per global leaf
	subjByRank []int // zipf rank -> principal
	leafByRank []int // zipf rank -> global leaf index

	// aclTarget is the leaf whose ACL carries rv-acl's write grant;
	// memberTarget is a leaf whose ACL grants group 0 write, so rv-member
	// writes it through its membership. Both sit at bottom, in bottom
	// directories.
	aclTarget, memberTarget int
	// edgeSubject is the principal the edge-check connection
	// authenticates as.
	edgeSubject int
}

// dirClassAt is the class of the directory at position j of the
// seeded directory order: seven in ten at bottom, the rest raised.
func dirClassAt(j int) cls {
	if j%10 < 7 {
		return bottom
	}
	return raisedClasses[(j/10)%len(raisedClasses)]
}

func newPopulation(sc scale, seed int64) *population {
	r := rand.New(rand.NewSource(seed))
	p := &population{scale: sc, seed: seed}
	p.subjByRank = r.Perm(sc.Principals)
	p.subjClass = make([]cls, sc.Principals)
	p.edgeSubject = -1
	for rank, i := range p.subjByRank {
		p.subjClass[i] = principalClasses[rank%len(principalClasses)]
		if p.edgeSubject < 0 && p.subjClass[i] == edgeClass {
			p.edgeSubject = i
		}
	}

	// The leaf at rank k sits in directory dirOrder[k mod Dirs], at
	// slot slotOrder[k / Dirs]: the hottest leaves are spread one per
	// directory, and a directory's class follows its position in
	// dirOrder.
	dirOrder, slotOrder := r.Perm(sc.Dirs), r.Perm(sc.Leaves)
	p.dirClass = make([]cls, sc.Dirs)
	p.dirPool = make([]int, sc.Dirs)
	for j, d := range dirOrder {
		p.dirClass[d] = dirClassAt(j)
		p.dirPool[d] = r.Intn(sc.ACLPool)
	}
	n := sc.Dirs * sc.Leaves
	p.leafByRank = make([]int, n)
	p.leafClass = make([]cls, n)
	p.leafPool = make([]int, n)
	for k := range p.leafByRank {
		d := dirOrder[k%sc.Dirs]
		i := d*sc.Leaves + slotOrder[k/sc.Dirs]
		p.leafByRank[k] = i
		c := p.dirClass[d]
		if k%16 == 7 {
			c = c.join(raisedLeaf)
		}
		p.leafClass[i] = c
	}
	for i := range p.leafPool {
		p.leafPool[i] = r.Intn(sc.ACLPool)
	}

	// Revocation targets: bottom leaves of bottom directories, taken
	// from the cold half of the ranks; the member target's pool ACL
	// names group 0.
	p.aclTarget, p.memberTarget = -1, -1
	for _, i := range p.leafByRank[n/2:] {
		if p.leafClass[i] != bottom || p.dirClass[i/sc.Leaves] != bottom {
			continue
		}
		switch {
		case p.aclTarget < 0:
			p.aclTarget = i
		case p.memberTarget < 0:
			p.memberTarget = i
			p.leafPool[i] = 0
		}
	}
	return p
}

func principalName(i int) string { return fmt.Sprintf("p%05d", i) }
func groupName(g int) string     { return fmt.Sprintf("g%04d", g) }
func dirName(d int) string       { return fmt.Sprintf("d%05d", d) }
func (p *population) leafPath(i int) string {
	return fmt.Sprintf("/data/d%05d/f%04d", i/p.Leaves, i%p.Leaves)
}

// groupOf is every principal's one group.
func (p *population) groupOf(i int) int { return i % p.Groups }

// Pool ACL k, as a formula: everyone may read and list; one principal
// may write and delete; one group may write and administrate; one
// principal is denied write (deny overrides).
func (p *population) poolWriter(k int) int { return (k * 7) % p.Principals }
func (p *population) poolGroup(k int) int  { return k % p.Groups }
func (p *population) poolDenied(k int) int { return (k*13 + 1) % p.Principals }
