package main

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"secext"
	"secext/internal/acl"
	"secext/internal/core"
	"secext/internal/dispatch"
	"secext/internal/lattice"
	"secext/internal/names"
	"secext/internal/subject"
)

// servicePath is the class-dispatched service the Call operations hit.
const servicePath = "/svc/bench/select"

// chunkSpecs bounds one bulk bind (one epoch publication per chunk).
const chunkSpecs = 20_000

// world is one assembled system plus the handles the workloads use.
type world struct {
	pop  *population
	sys  *core.System
	ctxs []*subject.Context // per principal
	cls  map[cls]lattice.Class
	pool []*acl.ACL // pool ACLs as handed to the program
	// svcACL protects the Call service.
	svcACL *acl.ACL

	// The ACL-revocation target's ACL with and without rv-acl's grant.
	targetWith, targetWithout *acl.ACL
	admin, rvACL, rvMember    *subject.Context

	populate, buildTree time.Duration // registry population, bulk binds
}

// buildWorld assembles a world from the population through the public
// APIs: NewWorld with only a lattice given (audit, decision cache,
// compiled epochs and telemetry at their defaults), batched registry
// population, bulk binds, and one class-dispatched service.
func buildWorld(p *population) (*world, error) {
	w, err := secext.NewWorld(secext.WorldOptions{Levels: levels, Categories: categories})
	if err != nil {
		return nil, err
	}
	bw := &world{pop: p, sys: w.Sys, cls: make(map[cls]lattice.Class)}
	for _, c := range append(append(append([]cls{bottom, raisedLeaf}, principalClasses...), raisedClasses...), specClasses...) {
		bw.lattice(c)
	}
	for _, c := range p.leafClass {
		bw.lattice(c)
	}
	for _, m := range bw.cls {
		if !m.Valid() {
			return nil, fmt.Errorf("class did not parse")
		}
	}

	t0 := time.Now()
	if err := bw.populateRegistry(); err != nil {
		return nil, fmt.Errorf("populate registry: %w", err)
	}
	bw.populate = time.Since(t0)
	t1 := time.Now()
	if err := bw.bindTree(); err != nil {
		return nil, fmt.Errorf("bind tree: %w", err)
	}
	bw.buildTree = time.Since(t1)
	if err := bw.registerService(); err != nil {
		return nil, fmt.Errorf("register service: %w", err)
	}
	bw.ctxs = make([]*subject.Context, p.Principals)
	for i := range bw.ctxs {
		if bw.ctxs[i], err = bw.sys.NewContext(principalName(i)); err != nil {
			return nil, err
		}
	}
	for _, c := range []struct {
		name string
		dst  **subject.Context
	}{{rvAdmin, &bw.admin}, {rvACL, &bw.rvACL}, {rvMember, &bw.rvMember}} {
		if *c.dst, err = bw.sys.NewContext(c.name); err != nil {
			return nil, err
		}
	}
	return bw, nil
}

// lattice maps a benchmark class to the program's class value.
func (bw *world) lattice(c cls) lattice.Class {
	if m, ok := bw.cls[c]; ok {
		return m
	}
	m, _ := bw.sys.Lattice().ParseClass(c.label())
	bw.cls[c] = m
	return m
}

// populateRegistry registers the principals (one batch per class), the
// groups and the memberships: every principal joins one group, and
// rv-member joins group 0.
func (bw *world) populateRegistry() error {
	p := bw.pop
	byClass := make(map[string][]string)
	for i, c := range p.subjClass {
		byClass[c.label()] = append(byClass[c.label()], principalName(i))
	}
	byClass[bottom.label()] = append(byClass[bottom.label()], rvAdmin, rvACL, rvMember, extender)
	labels := make([]string, 0, len(byClass))
	for l := range byClass {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	for _, l := range labels {
		if _, err := bw.sys.AddPrincipals(l, byClass[l]...); err != nil {
			return err
		}
	}
	reg := bw.sys.Registry()
	groups := make([]string, p.Groups)
	for g := range groups {
		groups[g] = groupName(g)
	}
	if err := reg.AddGroups(groups...); err != nil {
		return err
	}
	grants := make(map[string][]string, p.Groups)
	for i := 0; i < p.Principals; i++ {
		g := groupName(p.groupOf(i))
		grants[g] = append(grants[g], principalName(i))
	}
	grants[groupName(0)] = append(grants[groupName(0)], rvMember)
	_, err := reg.AddMemberships(grants)
	return err
}

// poolACL builds pool ACL k from the population's formula.
func (p *population) poolACL(k int, extra ...acl.Entry) *acl.ACL {
	e := []acl.Entry{
		acl.AllowEveryone(acl.Read | acl.List),
		acl.Allow(principalName(p.poolWriter(k)), acl.Write|acl.Delete),
		acl.AllowGroup(groupName(p.poolGroup(k)), acl.Write|acl.Administrate),
		acl.Deny(principalName(p.poolDenied(k)), acl.Write),
	}
	return acl.New(append(e, extra...)...)
}

// bindTree builds /data with bulk binds, one publication per chunk.
func (bw *world) bindTree() error {
	p := bw.pop
	bw.pool = make([]*acl.ACL, p.ACLPool)
	for k := range bw.pool {
		bw.pool[k] = p.poolACL(k)
	}
	k := p.leafPool[p.aclTarget]
	bw.targetWith = p.poolACL(k, acl.Allow(rvAdmin, acl.Administrate), acl.Allow(rvACL, acl.Write))
	bw.targetWithout = p.poolACL(k, acl.Allow(rvAdmin, acl.Administrate))

	ns := bw.sys.Names()
	if _, err := ns.BindUnchecked("/", names.BindSpec{
		Name: "data", Kind: names.KindDomain, ACL: acl.New(acl.AllowEveryone(acl.List)), Class: bw.lattice(bottom),
	}); err != nil {
		return err
	}
	chunk := make([]names.SubtreeSpec, 0, chunkSpecs+p.Leaves+1)
	for d := 0; d < p.Dirs; d++ {
		dir := dirName(d)
		chunk = append(chunk, names.SubtreeSpec{
			Path: dir, Kind: names.KindDomain, ACL: bw.pool[p.dirPool[d]], Class: bw.lattice(p.dirClass[d]),
		})
		for l := 0; l < p.Leaves; l++ {
			i := d*p.Leaves + l
			a := bw.pool[p.leafPool[i]]
			if i == p.aclTarget {
				a = bw.targetWith
			}
			chunk = append(chunk, names.SubtreeSpec{
				Path: fmt.Sprintf("%s/f%04d", dir, l), Kind: names.KindFile, ACL: a, Class: bw.lattice(p.leafClass[i]),
			})
		}
		if len(chunk) >= chunkSpecs || d == p.Dirs-1 {
			if _, _, err := ns.BindSubtreeUnchecked("/data", chunk); err != nil {
				return err
			}
			chunk = chunk[:0]
		}
	}
	return nil
}

// registerService mounts the Call service and has the extender
// register one specialization per chain class, in a seeded order so
// that selection does not follow registration order.
func (bw *world) registerService() error {
	if _, err := bw.sys.CreateNode(core.NodeSpec{
		Path: "/svc/bench", Kind: names.KindDomain, ACL: acl.New(acl.AllowEveryone(acl.List)),
	}); err != nil {
		return err
	}
	handler := func(owner string) dispatch.Handler {
		return func(*subject.Context, any) (any, error) { return owner, nil }
	}
	bw.svcACL = acl.New(acl.AllowEveryone(acl.Execute|acl.List), acl.Allow(extender, acl.Extend))
	if err := bw.sys.RegisterService(core.ServiceSpec{
		Path: servicePath,
		ACL:  bw.svcACL,
		Base: dispatch.Binding{Owner: handlerOwner(-1), Handler: handler(handlerOwner(-1))},
	}); err != nil {
		return err
	}
	ext, err := bw.sys.NewContext(extender)
	if err != nil {
		return err
	}
	for _, j := range rand.New(rand.NewSource(bw.pop.seed)).Perm(len(specClasses)) {
		owner := handlerOwner(j)
		if err := bw.sys.Extend(ext, servicePath, dispatch.Binding{
			Owner: owner, Static: bw.lattice(specClasses[j]), Handler: handler(owner),
		}); err != nil {
			return err
		}
	}
	return nil
}
