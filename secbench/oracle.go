package main

// The oracle answers every expected outcome from the population's
// formulas alone. It shares no code with the program: DAC is the pool
// formula, MAC is cls.dominates, traversal is "every directory on the
// way is readable", and handler selection is "the most specific
// admissible static class".

// modeBit is the benchmark's own mode vocabulary.
type modeBit uint8

const (
	mRead modeBit = 1 << iota
	mWrite
	mList
	mDelete
	mAdministrate
)

// dacGranted is pool ACL k's effective mode set for principal s
// (deny overrides allow).
func (p *population) dacGranted(s, k int) modeBit {
	g := mRead | mList
	if s == p.poolWriter(k) {
		g |= mWrite | mDelete
	}
	if p.groupOf(s) == p.poolGroup(k) {
		g |= mWrite | mAdministrate
	}
	if s == p.poolDenied(k) {
		g &^= mWrite
	}
	return g
}

// wantData is the expected verdict of a data check by principal s on
// leaf i: the leaf's directory must be visible (list on it, granted to
// everyone by every pool ACL, and MAC read of its class), then DAC
// must grant the mode and MAC must allow the flow (no read up, no
// write down).
func (p *population) wantData(s, i int, write bool) bool {
	sc := p.subjClass[s]
	if !sc.dominates(p.dirClass[i/p.Leaves]) || p.dacGranted(s, p.dirPool[i/p.Leaves])&mList == 0 {
		return false
	}
	k := p.leafPool[i]
	if write {
		return p.dacGranted(s, k)&mWrite != 0 && p.leafClass[i].dominates(sc)
	}
	return p.dacGranted(s, k)&mRead != 0 && sc.dominates(p.leafClass[i])
}

// wantHandler is the index into specClasses of the extension a caller
// at class c is served by, or -1 for the base handler. specClasses is
// an ascending chain, so the most specific admissible class is the
// highest one the caller dominates.
func wantHandler(c cls) int {
	for j := len(specClasses) - 1; j >= 0; j-- {
		if c.dominates(specClasses[j]) {
			return j
		}
	}
	return -1
}

// handlerOwner names the binding a handler index stands for.
func handlerOwner(j int) string {
	if j < 0 {
		return "base"
	}
	return "spec-" + specClasses[j].label()
}
