package rules

// The conflict set is kept between firings. Each rule owns its
// activations; asserting or retracting a fact marks only the rules with a
// condition element over that fact's memory, and only those are
// re-matched before the next firing, so a firing whose RHS changes nothing
// (a call) finds the agenda as it left it. Refraction is a flag on the
// activation: a fired one stays in its rule's set while all of its facts
// are live — also while a negated pattern hides it — and goes with the
// first of them retracted. Fact ids are never reused, so nothing dropped
// could have matched again.

// act is one activation: a complete match of a rule, identified by its
// tuple of matched facts (one per positive pattern, in conflictSet.tuples).
type act struct {
	recency int  // highest matched fact id
	fired   bool // refraction: already executed
	live    bool // matches now; a fired activation may linger unmatched
}

// conflictSet is one rule's activations in match-enumeration order, which
// is lexicographic in the matched fact ids.
type conflictSet struct {
	acts   []act
	tuples []*Fact // len(acts) × (the rule's positive pattern count)
}

func (s *conflictSet) tuple(i, n int) []*Fact { return s.tuples[i*n : (i+1)*n] }

// ruleState is one engine's share of one program rule: its conflict set,
// and whether a memory under the rule's patterns changed since the set
// was matched.
type ruleState struct {
	dirty bool
	set   conflictSet
}

// next brings the conflict sets up to date and picks the activation to
// fire: highest salience, then most recent fact, then rule definition
// order, then enumeration order. It returns the rule's index and the
// activation's, or r < 0 at quiescence.
func (e *Engine) next() (r, at int) {
	if e.stale {
		for i := range e.state {
			if e.state[i].dirty {
				e.rematch(i)
			}
		}
		e.stale = false
	}
	if len(e.unlisted) > 0 {
		e.reclaim()
	}
	rs, r := e.prog.rules, -1
	for i, p := range rs {
		acts := e.state[i].set.acts
		for j := range acts {
			a := &acts[j]
			if a.live && !a.fired && (r < 0 || p.Salience > rs[r].Salience ||
				p.Salience == rs[r].Salience && a.recency > e.state[r].set.acts[at].recency) {
				r, at = i, j
			}
		}
	}
	return r, at
}

// rematch recomputes rule r's conflict set, carrying refraction over from
// the old one. Both are in enumeration order, so the carry is a merge:
// found consumes old entries up to each new match as the matcher
// produces it.
func (e *Engine) rematch(r int) {
	p, st := e.prog.rules[r], &e.state[r]
	st.dirty = false
	e.old, e.fresh = st.set, conflictSet{e.spare.acts[:0], e.spare.tuples[:0]}
	e.cur = 0
	e.match(p, 0)
	for ; e.cur < len(e.old.acts); e.cur++ {
		e.linger(p, e.cur)
	}
	clear(e.old.tuples)
	st.set, e.spare = e.fresh, e.old
}

// match enumerates the complete matches of p depth-first from condition
// element i over the engine's one frame and fact stack.
func (e *Engine) match(p *prod, i int) {
	if i == len(p.conds) {
		e.found(p)
		return
	}
	switch c := &p.conds[i]; c.kind {
	case cePattern:
		for _, f := range e.pm[c.mem].facts {
			if !f.gone && c.unify(f, e.frame) {
				e.stack[c.pos] = f
				e.match(p, i+1)
			}
		}
	case ceNegated:
		for _, f := range e.pm[c.mem].facts {
			if !f.gone && c.unify(f, e.frame) {
				return // a match exists: negation fails
			}
		}
		e.match(p, i+1)
	case ceTest:
		v, err := c.test(e.frame)
		if err != nil {
			e.logf("rules: rule %s: test error: %v", p.Name, err)
		} else if truthy(v) {
			e.match(p, i+1)
		}
	}
}

// found records the match on the fact stack as an activation of p in the
// conflict set being built.
func (e *Engine) found(p *prod) {
	n := p.npos
	tuple := e.stack[:n]
	a := act{live: true}
	for _, f := range tuple {
		a.recency = max(a.recency, f.id)
	}
merge:
	for ; e.cur < len(e.old.acts); e.cur++ {
		prev := e.old.tuple(e.cur, n)
		for k, f := range tuple {
			if prev[k].id > f.id {
				break merge // prev sorts after this match: keep it for later
			}
			if prev[k].id < f.id {
				e.linger(p, e.cur) // prev no longer matches
				continue merge
			}
		}
		a.fired = e.old.acts[e.cur].fired // the same activation as before
		e.cur++
		break
	}
	e.fresh.acts = append(e.fresh.acts, a)
	e.fresh.tuples = append(e.fresh.tuples, tuple...)
}

// linger keeps old activation i, which matched before and does not now,
// if it has fired and every fact it matched is still live.
func (e *Engine) linger(p *prod, i int) {
	tuple := e.old.tuple(i, p.npos)
	if !e.old.acts[i].fired {
		return
	}
	for _, f := range tuple {
		if f.gone {
			return
		}
	}
	e.fresh.acts = append(e.fresh.acts, act{recency: e.old.acts[i].recency, fired: true})
	e.fresh.tuples = append(e.fresh.tuples, tuple...)
}
