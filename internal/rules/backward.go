package rules

import (
	"fmt"
)

// Backward chaining: the paper notes the inferencing "can either be as
// complex as backward chaining (working backwards from a goal to start),
// forward chaining (vice-versa) or as relatively simple as a lookup". The
// managers use forward chaining; Prove offers goal-directed queries over
// the same rule base, treating each rule whose right-hand side is a
// single (assert ...) of plain atoms as a Horn clause:
//
//	(defrule reachable
//	  (edge ?a ?b)
//	  (reachable ?b ?c)
//	  =>
//	  (assert (reachable ?a ?c)))
//
// Negated condition elements use negation-as-failure; test elements are
// evaluated once their variables are bound. Rules with multiple actions,
// retractions, calls, or computed assert items are not used as clauses.

// maxProofDepth bounds recursion through rule bodies so cyclic rule sets
// terminate.
const maxProofDepth = 64

// Solution is one way a goal was satisfied: the variable bindings
// accumulated along the proof.
type Solution map[string]Value

// Prove reports whether the goal pattern (variables allowed) is derivable
// from the current facts and the Horn-clause subset of the rules, and
// returns the bindings of the first proof found.
func (e *Engine) Prove(goal ...Value) (Solution, bool) {
	sols := e.ProveAll(1, goal...)
	if len(sols) == 0 {
		return nil, false
	}
	return sols[0], true
}

// ProveAll returns up to limit distinct solutions for the goal pattern
// (limit <= 0 means all).
func (e *Engine) ProveAll(limit int, goal ...Value) []Solution {
	var out []Solution
	seen := make(map[string]bool)
	e.prove(goal, newBindings(), 0, func(b *bindings) bool {
		sol := make(Solution)
		for _, v := range goal {
			if v.IsVariable() && v.Sym != "?" {
				if bound, ok := b.lookup(v.Sym); ok {
					sol[v.Sym] = bound
				}
			}
		}
		key := fmt.Sprint(sol)
		if seen[key] {
			return true // keep searching for a distinct solution
		}
		seen[key] = true
		out = append(out, sol)
		return limit <= 0 || len(out) < limit
	})
	return out
}

// substitute applies bindings to a pattern, leaving unbound variables in
// place.
func substitute(pattern []Value, b *bindings) []Value {
	out := make([]Value, len(pattern))
	for i, v := range pattern {
		if v.IsVariable() && v.Sym != "?" {
			if bound, ok := b.lookup(v.Sym); ok {
				out[i] = bound
				continue
			}
		}
		out[i] = v
	}
	return out
}

// hornHead returns the assert-head of a rule usable as a Horn clause, or
// nil.
func hornHead(r *Rule) []Value {
	if len(r.actions) != 1 {
		return nil
	}
	act := r.actions[0]
	if act.head() != "assert" || len(act.list) != 2 || !act.list[1].isList() {
		return nil
	}
	head := make([]Value, 0, len(act.list[1].list))
	for _, item := range act.list[1].list {
		if item.atom == nil {
			return nil // computed item: not a plain clause
		}
		head = append(head, *item.atom)
	}
	return head
}

// prove searches for derivations of goal under b; emit is called for each
// proof and returns false to stop the search. prove reports whether the
// search should continue.
func (e *Engine) prove(goal []Value, b *bindings, depth int, emit func(*bindings) bool) bool {
	if depth > maxProofDepth {
		return true
	}
	g := substitute(goal, b)

	// Ground case: facts.
	for _, f := range e.candidates(g) {
		if f.gone {
			continue
		}
		if nb, ok := unify(g, f, b); ok && !emit(nb) {
			return false
		}
	}

	// Rule case: any Horn clause whose head unifies with the goal.
	for _, p := range e.rs {
		r := p.Rule
		head := hornHead(r)
		if head == nil || len(head) != len(g) {
			continue
		}
		// Rename rule variables apart from the goal's by prefixing with
		// the rule name and depth.
		renamed := renameRule(r, depth)
		rb := newBindings()
		ok := true
		for i := range g {
			hv := renamed.head[i]
			gv := g[i]
			switch {
			case hv.IsVariable() && hv.Sym != "?":
				if bound, exists := rb.lookup(hv.Sym); exists {
					if gv.IsVariable() {
						ok = false // cannot match two unbound vars here
					} else if !bound.Equal(gv) {
						ok = false
					}
				} else if !gv.IsVariable() {
					rb.setVar(hv.Sym, gv)
				}
				// An unbound goal variable against a head variable stays
				// open; the body proof will bind it and emit propagates
				// it back through unification of the goal at emit time.
			case gv.IsVariable() && gv.Sym != "?":
				// goal var against head constant: bind via emit below.
			default:
				if !hv.Equal(gv) {
					ok = false
				}
			}
			if !ok {
				break
			}
		}
		if !ok {
			continue
		}
		// Prove the body conjunction.
		cont := e.proveBody(renamed.ces, rb, depth+1, func(finalRB *bindings) bool {
			// Re-derive the head under the body bindings and unify it
			// with the original goal to propagate goal-variable bindings.
			derived := substitute(renamed.head, finalRB)
			ground := true
			for _, v := range derived {
				if v.IsVariable() {
					ground = false
					break
				}
			}
			if !ground {
				return true
			}
			f := &Fact{items: derived}
			if nb, ok := unify(g, f, b); ok {
				return emit(nb)
			}
			return true
		})
		if !cont {
			return false
		}
	}
	return true
}

// renamedRule is a rule with variables renamed apart.
type renamedRule struct {
	head []Value
	ces  []condElem
}

func renameRule(r *Rule, depth int) renamedRule {
	suffix := fmt.Sprintf("@%s%d", r.Name, depth)
	ren := func(v Value) Value {
		if v.IsVariable() && v.Sym != "?" {
			return Sym(v.Sym + suffix)
		}
		return v
	}
	out := renamedRule{head: make([]Value, 0, 4)}
	for _, v := range hornHead(r) {
		out.head = append(out.head, ren(v))
	}
	for _, ce := range r.ces {
		nce := condElem{kind: ce.kind, bindVar: ce.bindVar, test: renameSexpr(ce.test, suffix)}
		for _, v := range ce.pattern {
			nce.pattern = append(nce.pattern, ren(v))
		}
		out.ces = append(out.ces, nce)
	}
	return out
}

func renameSexpr(e sexpr, suffix string) sexpr {
	if e.atom != nil {
		if e.atom.IsVariable() && e.atom.Sym != "?" {
			v := Sym(e.atom.Sym + suffix)
			return sexpr{atom: &v, line: e.line}
		}
		return e
	}
	out := sexpr{line: e.line}
	for _, c := range e.list {
		out.list = append(out.list, renameSexpr(c, suffix))
	}
	return out
}

// proveBody proves a conjunction of condition elements left to right.
func (e *Engine) proveBody(ces []condElem, b *bindings, depth int, emit func(*bindings) bool) bool {
	if len(ces) == 0 {
		return emit(b)
	}
	ce := ces[0]
	switch ce.kind {
	case cePattern:
		return e.prove(ce.pattern, b, depth, func(nb *bindings) bool {
			return e.proveBody(ces[1:], nb, depth, emit)
		})
	case ceNegated:
		found := false
		e.prove(ce.pattern, b, depth, func(*bindings) bool {
			found = true
			return false
		})
		if found {
			return true // negation fails: this branch yields nothing
		}
		return e.proveBody(ces[1:], b, depth, emit)
	case ceTest:
		v, err := eval(ce.test, b)
		if err != nil || !truthy(v) {
			return true // unprovable branch
		}
		return e.proveBody(ces[1:], b, depth, emit)
	default:
		return true
	}
}
